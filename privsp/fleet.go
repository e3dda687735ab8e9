package privsp

import (
	"context"
	"fmt"

	"repro/internal/fleet"
)

// ErrReplicaDown is matched by errors.Is for every fleet replica failure:
// a dead replica at dial time, a transport failure mid-query (which trips
// that replica's circuit breaker), or a query started while fewer than two
// replicas are up. The concrete error is always a *ReplicaDownError.
var ErrReplicaDown = fleet.ErrReplicaDown

// ReplicaDownError names the replica behind an ErrReplicaDown failure.
type ReplicaDownError = fleet.ReplicaDownError

// FleetConfig tunes DialFleetConfig.
type FleetConfig struct {
	// Database selects a hosted database by name on every replica; empty
	// selects each daemon's sole database.
	Database string
	// Logf receives failover events (replica down/up); nil disables
	// logging.
	Logf func(format string, args ...any)
}

// FleetServer fans private queries out across a fleet of privspd
// replicas. Each XOR PIR read is split into two selector shares sent to
// DIFFERENT replicas, and the page is reconstructed only client-side — the
// paper's two-server PIR model made real: each replica performs one scan,
// sees one uniformly random bitvector, and (run with -replica-role)
// physically cannot reconstruct what was read. Privacy is
// information-theoretic as long as the replicas do not collude.
//
// Every query runs on two distinct replicas or fails. A dead replica trips
// its circuit breaker and a health prober re-dials it every 2 s; meanwhile
// queries pair on the replicas still up. With fewer than two up, ShortestPath
// returns ErrReplicaDown without sending any replica a share — both shares
// on one server would reveal the page — so availability through a replica
// failure comes from running three or more replicas. It satisfies the
// same PathService surface as the in-process Server and the single-daemon
// RemoteServer.
type FleetServer struct {
	f      *fleet.Fleet
	scheme Scheme
}

var _ PathService = (*FleetServer)(nil)

// DialFleet connects to every replica with the default configuration. It
// needs at least two replicas, all of them answering, serving the same
// database and able to answer selector shares; anything else fails the
// dial with an error naming the problem.
func DialFleet(addrs ...string) (*FleetServer, error) {
	return DialFleetConfig(context.Background(), addrs, FleetConfig{})
}

// DialFleetConfig connects to every replica of a fleet. ctx bounds the
// connects and handshakes.
func DialFleetConfig(ctx context.Context, addrs []string, cfg FleetConfig) (*FleetServer, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	f, err := fleet.Dial(ctx, addrs, fleet.Options{Database: cfg.Database, Logf: cfg.Logf})
	if err != nil {
		return nil, err
	}
	scheme := Scheme(f.Scheme())
	if _, ok := schemes[scheme]; !ok {
		f.Close()
		return nil, fmt.Errorf("privsp: fleet hosts unsupported scheme %q", scheme)
	}
	return &FleetServer{f: f, scheme: scheme}, nil
}

// Scheme returns the scheme of the replicated database.
func (fs *FleetServer) Scheme() Scheme { return fs.scheme }

// ShortestPath runs one private query fanned out across the fleet. The
// scheme protocol is the same code that drives the other deployments; every
// replica records the identical canonical trace it would record alone, and
// WithServerTrace captures it (the fleet verifies both replicas' traces
// match before returning one).
func (fs *FleetServer) ShortestPath(ctx context.Context, src, dst Point, opts ...QueryOption) (*Result, error) {
	return remoteShortestPath(ctx, fs.scheme, func() (querySession, error) {
		qs := fs.f.StartQuery()
		return qs, qs.Err()
	}, src, dst, opts)
}

// FleetReplicaStatus is one replica's health snapshot.
type FleetReplicaStatus = fleet.ReplicaStatus

// FleetStatus is the fleet's health and query accounting.
type FleetStatus = fleet.Status

// Status snapshots the fleet's health without touching the network.
func (fs *FleetServer) Status() FleetStatus { return fs.f.Status() }

// Close stops the health prober and tears down every replica connection.
func (fs *FleetServer) Close() error { return fs.f.Close() }
