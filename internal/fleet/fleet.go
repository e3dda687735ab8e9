// Package fleet is the replica fan-out client of two-server PIR serving:
// it holds one multiplexed connection per privspd replica and splits every
// XOR PIR query into selector shares, sending each share to a DIFFERENT
// replica process and XORing the answers locally. The non-collusion
// assumption of Chor et al. — which the in-process pir.XORPIR can only
// model — becomes real: each replica performs one scan, sees one uniform
// bitvector, and (in -replica-role) physically cannot reconstruct a page,
// while per-server compute halves.
//
// A query runs on two distinct up replicas or not at all. Failover is
// health-checked and deterministic: a transport error trips the replica's
// circuit breaker immediately (no threshold — one broken fan-out is one
// broken query too many), a background prober re-dials it until it
// answers, and new queries pair on the remaining up replicas. A fleet left
// with fewer than two up replicas refuses new queries with
// *ReplicaDownError before any frame reaches a replica: both shares on one
// server would hand it the page index, so availability comes from running
// three or more replicas, never from sending both shares to one.
package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/retrier"
	"repro/internal/telemetry"
)

// DefaultProbeInterval is how often the health prober revisits replicas.
const DefaultProbeInterval = 2 * time.Second

// probeInterval is the health-prober period (re-dial of down replicas,
// liveness ping of up ones) a fleet takes when it is dialed:
// DefaultProbeInterval, which tests lower.
var probeInterval = DefaultProbeInterval

// registry receives the families of the fleets dialed from now on:
// telemetry.Default(), which tests swap for an isolated registry.
var registry = telemetry.Default()

// Options tunes a fleet.
type Options struct {
	// Database selects a hosted database by name on every replica; empty
	// selects each daemon's sole database.
	Database string
	// Logf receives failover events (replica down/up); nil disables
	// logging.
	Logf func(format string, args ...any)
}

// replica is one privspd process in the fleet.
type replica struct {
	addr string

	// Guarded by Fleet.mu.
	c       *client.Client // nil while down
	up      bool
	lastErr error
	trips   uint64 // breaker openings since dial

	// Prober schedule, guarded by Fleet.mu: when this replica is probed
	// next and how many consecutive probes have failed (drives the
	// per-replica exponential backoff).
	nextProbe  time.Time
	failStreak int

	mUp     *telemetry.Gauge
	mErrors *telemetry.Counter
}

// Fleet fans queries out across privspd replicas. Safe for concurrent use:
// start one Query per in-flight query, from any goroutine.
type Fleet struct {
	opts     Options
	interval time.Duration // probeInterval as the fleet was dialed
	// ref is the replica the others are checked against, at dial and at
	// every re-dial: its scheme, file table and header are the fleet's.
	// They stay readable once its connection is closed.
	ref *client.Client

	mu       sync.Mutex
	replicas []*replica
	rr       uint64 // rotation counter for replica selection
	closed   bool

	stop chan struct{} // closes the prober
	done chan struct{} // prober exited

	m fleetMetrics
}

// Dial connects to every replica, validates that they serve the same
// database (scheme, file table, header) and can all answer selector
// shares, and starts the health prober. Fewer than two replicas, or one
// that cannot answer shares, is refused: there is no single-server
// fallback. All replicas must answer: a dead replica fails the dial with a
// *ReplicaDownError naming it — a fleet deliberately started short of a
// replica is a misconfiguration, not a failover.
func Dial(ctx context.Context, addrs []string, opts Options) (*Fleet, error) {
	if len(addrs) < 2 {
		return nil, fmt.Errorf("fleet: two-server PIR needs at least 2 replicas, got %d", len(addrs))
	}
	seen := map[string]bool{}
	for _, a := range addrs {
		if seen[a] {
			return nil, fmt.Errorf("fleet: replica %s listed twice (shares would collude with themselves)", a)
		}
		seen[a] = true
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	f := &Fleet{
		opts:     opts,
		interval: probeInterval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	f.initTelemetry(addrs)

	// Dial all replicas concurrently; the first failure wins and the rest
	// are torn down.
	clients := make([]*client.Client, len(addrs))
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			c, err := client.DialContext(ctx, addr, client.Options{Database: opts.Database})
			if err != nil {
				errs[i] = &ReplicaDownError{Addr: addr, Err: err}
				return
			}
			clients[i] = c
		}(i, addr)
	}
	wg.Wait()
	fail := func(err error) (*Fleet, error) {
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
		close(f.stop)
		close(f.done)
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return fail(err)
		}
	}

	// Every replica must serve the same database: shares XOR page contents
	// across replicas, so diverging databases corrupt answers silently.
	f.ref = clients[0]
	for _, c := range clients[1:] {
		if err := consistent(f.ref, c); err != nil {
			return fail(err)
		}
	}

	for _, c := range clients {
		if !c.ShareCapable() {
			return fail(fmt.Errorf("fleet: replica %s cannot answer selector shares on every file (run the daemons with two-server XOR PIR stores)", c.Addr()))
		}
	}

	for i, c := range clients {
		rep := &replica{addr: addrs[i], c: c, up: true}
		rep.mUp = f.m.replicaUp[addrs[i]]
		rep.mErrors = f.m.replicaErrors[addrs[i]]
		rep.mUp.Set(1)
		f.replicas = append(f.replicas, rep)
	}
	go f.probeLoop()
	return f, nil
}

// consistent verifies b serves the same database as a: the same scheme,
// file table and public header. It runs on the handshakes alone, so no
// query ever compares the two replicas' copies.
func consistent(a, b *client.Client) error {
	if a.Scheme() != b.Scheme() || a.Database() != b.Database() {
		return fmt.Errorf("fleet: replicas disagree: %s serves %s/%s, %s serves %s/%s",
			a.Addr(), a.Database(), a.Scheme(), b.Addr(), b.Database(), b.Scheme())
	}
	if !bytes.Equal(a.Header(), b.Header()) {
		return fmt.Errorf("fleet: replicas %s and %s serve different headers (%d vs %d bytes): diverged databases",
			a.Addr(), b.Addr(), len(a.Header()), len(b.Header()))
	}
	fa, fb := a.Files(), b.Files()
	if len(fa) != len(fb) {
		return fmt.Errorf("fleet: replicas %s and %s disagree on the file table (%d vs %d files)",
			a.Addr(), b.Addr(), len(fa), len(fb))
	}
	for i := range fa {
		if fa[i] != fb[i] {
			return fmt.Errorf("fleet: replicas %s and %s disagree on file %q", a.Addr(), b.Addr(), fa[i].Name)
		}
	}
	return nil
}

// Scheme returns the replicated database's scheme name.
func (f *Fleet) Scheme() string { return f.ref.Scheme() }

// Close stops the prober and tears down every replica connection.
func (f *Fleet) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	close(f.stop)
	for _, rep := range f.replicas {
		if rep.c != nil {
			rep.c.Close()
		}
	}
	f.mu.Unlock()
	<-f.done
	return nil
}

// markDown opens a replica's breaker: its connection is closed, queries
// stop selecting it, and only the prober's successful re-dial closes the
// breaker again. Idempotent — concurrent queries hitting the same dead
// replica trip it once.
func (f *Fleet) markDown(rep *replica, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rep.lastErr = err
	rep.mErrors.Inc()
	if !rep.up {
		return
	}
	rep.up = false
	rep.trips++
	if rep.c != nil {
		rep.c.Close()
		rep.c = nil
	}
	rep.mUp.Set(0)
	f.opts.Logf("fleet: replica %s down (breaker open): %v", rep.addr, err)
}

// reportError classifies a replica error: daemon-side rejections leave the
// connection (and the breaker) alone; transport failures trip the breaker
// and surface as *ReplicaDownError.
func (f *Fleet) reportError(rep *replica, err error) error {
	if err == nil {
		return nil
	}
	if !client.IsServerShutdown(err) &&
		(client.IsServerReject(err) || errors.Is(err, client.ErrBusy) ||
			errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		// A shed query (ErrBusy) is the daemon protecting itself, not
		// dying: the breaker stays closed and the caller's retry layer
		// backs off instead of failing over.
		return err
	}
	f.markDown(rep, err)
	return &ReplicaDownError{Addr: rep.addr, Err: err}
}

// probeDelay schedules a replica's next health probe. A healthy replica
// (streak 0) is revisited roughly every interval, jittered ±¼ so a fleet's
// probers drift apart instead of pinging in lockstep. A failing replica
// backs off exponentially with full jitter — uniform below an interval<<
// (streak-1) ceiling capped at 8×interval — over a fixed interval/4 floor,
// so N clients watching one dead replica never converge into a
// synchronized re-dial stampede, and a flapping replica is not hammered.
func probeDelay(interval time.Duration, streak int) time.Duration {
	if streak <= 0 {
		return interval*3/4 + retrier.Policy{Base: interval / 2, Max: interval / 2}.Backoff(0)
	}
	p := retrier.Policy{Base: interval, Max: 8 * interval}
	return interval/4 + p.Backoff(streak-1)
}

// probeLoop is the health prober: each replica is pinged (a bare Ping/Pong
// on the control ID — no query session, no trace) or, while down, re-dialed
// on its own jittered-backoff schedule, closing the breaker on a
// successful handshake.
func (f *Fleet) probeLoop() {
	defer close(f.done)
	interval := f.interval
	f.mu.Lock()
	for _, rep := range f.replicas {
		rep.nextProbe = time.Now().Add(probeDelay(interval, 0))
	}
	f.mu.Unlock()
	timer := time.NewTimer(interval)
	defer timer.Stop()
	for {
		now := time.Now()
		f.mu.Lock()
		var due []*replica
		next := now.Add(interval)
		for _, rep := range f.replicas {
			if !rep.nextProbe.After(now) {
				due = append(due, rep)
			} else if rep.nextProbe.Before(next) {
				next = rep.nextProbe
			}
		}
		f.mu.Unlock()
		for _, rep := range due {
			ok := f.probe(rep)
			f.mu.Lock()
			if ok {
				rep.failStreak = 0
			} else {
				rep.failStreak++
			}
			rep.nextProbe = time.Now().Add(probeDelay(interval, rep.failStreak))
			if rep.nextProbe.Before(next) {
				next = rep.nextProbe
			}
			f.mu.Unlock()
		}
		timer.Reset(max(time.Until(next), time.Millisecond))
		select {
		case <-f.stop:
			return
		case <-timer.C:
		}
	}
}

// probe checks one replica, reporting whether it answered: an up replica
// gets a ping, a down one a re-dial that closes the breaker on success. A
// replica that holds its connection but stops answering fails the ping
// when the interval runs out.
func (f *Fleet) probe(rep *replica) bool {
	f.mu.Lock()
	up, c := rep.up, rep.c
	f.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), f.interval)
	defer cancel()
	if up {
		if err := c.Ping(ctx); err != nil {
			f.m.probeFail.Inc()
			f.markDown(rep, err)
			return false
		}
		f.m.probeOK.Inc()
		return true
	}
	nc, err := client.DialContext(ctx, rep.addr, client.Options{Database: f.opts.Database})
	if err == nil {
		// A replica that came back serving another database (a rebuild, a
		// different -db) would XOR garbage into every share it answers:
		// its breaker stays open.
		if err = consistent(f.ref, nc); err != nil {
			nc.Close()
		}
	}
	if err != nil {
		f.m.probeFail.Inc()
		f.mu.Lock()
		rep.lastErr = err
		f.mu.Unlock()
		return false
	}
	f.m.probeOK.Inc()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		nc.Close()
		return true
	}
	rep.c, rep.up, rep.lastErr = nc, true, nil
	rep.mUp.Set(1)
	f.mu.Unlock()
	f.opts.Logf("fleet: replica %s recovered (breaker closed)", rep.addr)
	return true
}

// pick starts a client query on each of two distinct up replicas, rotating
// the starting point per call so load spreads evenly across a healthy
// fleet. Both client queries start under f.mu, so neither races the
// breaker swapping the replica's connection. With fewer than two replicas
// up it starts nothing and names a down replica in a *ReplicaDownError.
func (f *Fleet) pick() (subs [2]sub, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	start := f.rr
	f.rr++
	var picked []*replica
	for i := 0; i < len(f.replicas) && len(picked) < 2; i++ {
		rep := f.replicas[(int(start)+i)%len(f.replicas)]
		if rep.up {
			picked = append(picked, rep)
		}
	}
	if len(picked) < 2 {
		// Dial admits at least two replicas, so one is down, and its
		// breaker recorded why.
		for _, rep := range f.replicas {
			if !rep.up {
				err = &ReplicaDownError{Addr: rep.addr, Err: rep.lastErr}
				break
			}
		}
		return subs, err
	}
	for i, rep := range picked {
		subs[i] = sub{rep: rep, q: rep.c.StartQuery()}
	}
	return subs, nil
}

// ReplicaStatus is one replica's health snapshot.
type ReplicaStatus struct {
	Addr    string
	Up      bool   // circuit breaker closed
	Trips   uint64 // breaker openings since dial
	LastErr error  // most recent failure; nil when healthy since dial
}

// Status snapshots the fleet: per-replica health and the number of queries
// started, each with its two shares on distinct replicas.
type Status struct {
	Replicas []ReplicaStatus
	// PairedQueries counts queries started, each with its two shares on
	// distinct replicas.
	PairedQueries uint64
}

// Status reports the fleet's health and accounting.
func (f *Fleet) Status() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := Status{PairedQueries: f.m.queriesPaired.Value()}
	for _, rep := range f.replicas {
		st.Replicas = append(st.Replicas, ReplicaStatus{
			Addr: rep.addr, Up: rep.up, Trips: rep.trips, LastErr: rep.lastErr,
		})
	}
	return st
}
