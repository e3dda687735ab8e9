// Command privspd is the networked LBS daemon: it serves database
// containers written by "privsp build -out" over TCP with the wire protocol
// of internal/wire. It builds nothing: the (potentially multi-hour, §7)
// preprocessing runs offline in privsp build, and the daemon maps the
// finished containers. Remote clients connect with privsp.Dial (or privsp
// query -remote) and run the multi-round PIR protocol; the daemon observes
// only the public query plan's access pattern.
//
// Usage:
//
//	privsp build -preset Oldenburg -scale 0.05 -scheme CI -out ci.psdb
//	privsp build -nodes oldb.nodes -edges oldb.edges -scheme PI -out pi.psdb
//	privspd -listen :7465 -db ci.psdb,pi.psdb
//
// The daemon has seven flags: -listen, -db, -pir, -replica-role,
// -max-inflight, -admin and -drain. It has no fault-injection mode: tests
// inject faults in process through internal/faultinject, which this binary
// does not link.
//
// -db is required. Each database is hosted under its scheme name; clients
// select one with privsp.DialDatabase (or take the sole database when only
// one is served). SIGINT/SIGTERM trigger a graceful shutdown that waits for
// in-flight sessions.
//
// -max-inflight is the daemon's one concurrency setting: the queries open
// at once across all databases (64×GOMAXPROCS by default). Each hosted
// database answers its fetch and share batches on a worker pool of
// 2×GOMAXPROCS slots.
//
// -admin ADDR (off by default) serves the operator endpoints on a SEPARATE
// listen address: Prometheus-text /metrics over the daemon's telemetry
// registry — the one way its counters leave the process — a /healthz liveness probe, a /readyz readiness probe that
// turns 503 while the daemon sheds at its -max-inflight budget, and the
// net/http/pprof profile handlers, so the serving hot paths — the PIR scan
// kernels above all — can be watched and profiled in deployment:
//
//	privspd -listen :7465 -db ci.psdb -admin localhost:6060
//	curl http://localhost:6060/metrics
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=30
//
// Bind it to localhost (or another non-public interface): the endpoints
// expose internals and must not face clients.
// Every exported metric is a function of the adversary-visible access
// pattern plus wall-clock timing — scraping the daemon reveals nothing
// about query contents that Theorem 1 does not already concede.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/costmodel"
	"repro/internal/lbs"
	"repro/internal/server"
	"repro/privsp"
)

func main() {
	fs, cfg := newFlagSet(os.Stderr)
	if err := fs.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		os.Exit(2)
	}

	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("")

	// Validate the whole flag combination up front: a missing -db or a
	// contradictory pairing must fail here, before any container is opened.
	if err := cfg.validate(); err != nil {
		log.Fatalf("privspd: %v", err)
	}

	srv := server.New(server.Options{
		Logf:        log.Printf,
		Stores:      storeFactory(cfg.PIRStore),
		ReplicaRole: cfg.ReplicaRole,
		MaxInflight: cfg.MaxInflight,
	})
	for _, path := range cfg.DBFiles {
		start := time.Now()
		db, err := privsp.Open(path)
		if err != nil {
			log.Fatalf("privspd: %v", err)
		}
		name := string(db.Scheme())
		if err := srv.Host(name, db.LBS(), costmodel.Default()); err != nil {
			log.Fatalf("privspd: hosting %s as %q: %v", path, name, err)
		}
		log.Printf("privspd: hosted %s from %s: %.2f MB, plan %s (loaded in %v)",
			name, path, float64(db.TotalBytes())/(1<<20), db.Plan(), time.Since(start).Round(time.Millisecond))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The admin endpoints ride their own listener, never the serving
	// address: metrics and profiles are an operator tool, not a client
	// surface.
	adminWait := func() {}
	if cfg.Admin != "" {
		wait, err := startAdmin(ctx, cfg.Admin, newAdminMux(srv.Telemetry(), srv.Ready))
		if err != nil {
			log.Fatalf("privspd: admin listen %s: %v", cfg.Admin, err)
		}
		adminWait = wait
	}

	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		log.Fatalf("privspd: listen %s: %v", cfg.Listen, err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		if err != nil {
			log.Fatalf("privspd: serve: %v", err)
		}
	case <-ctx.Done():
		log.Printf("privspd: shutting down (cancelling in-flight queries; settling for up to %v)", cfg.Drain)
		sctx, cancel := context.WithTimeout(context.Background(), cfg.Drain)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("privspd: forced shutdown: %v", err)
		}
		adminWait()
	}
}

// daemonConfig holds the daemon's flags; validate checks their combination
// before any container is opened.
type daemonConfig struct {
	Listen      string
	DBFiles     []string
	PIRStore    string
	ReplicaRole bool
	MaxInflight int
	Admin       string
	Drain       time.Duration
}

// newFlagSet defines the daemon's flags, each bound to a field of the
// returned config; parse errors and usage go to output.
func newFlagSet(output io.Writer) (*flag.FlagSet, *daemonConfig) {
	c := &daemonConfig{}
	fs := flag.NewFlagSet("privspd", flag.ContinueOnError)
	fs.SetOutput(output)
	fs.StringVar(&c.Listen, "listen", ":7465", "TCP listen address")
	fs.Func("db", "comma-separated .psdb container `paths` to serve, written by privsp build -out (required)", func(s string) error {
		c.DBFiles = splitList(s)
		return nil
	})
	fs.StringVar(&c.PIRStore, "pir", "plain", "PIR store per hosted file: plain (reads delegate to the page file; PIR timing simulated analytically) or xorpir (real two-server XOR PIR scans; each fetch or share batch is one pass holding one of its database's 2x GOMAXPROCS pool slots)")
	fs.BoolVar(&c.ReplicaRole, "replica-role", false, "serve as a non-reconstructing fleet replica: answer only XOR PIR selector shares (FetchShare), reject plain page fetches; requires -pir xorpir (clients fan out with privsp.DialFleet)")
	fs.IntVar(&c.MaxInflight, "max-inflight", 0, "daemon-wide bound on queries open at once, the daemon's one concurrency setting; a query past the budget is shed at its first frame with a typed BUSY reply before any query content is read (0 = 64x GOMAXPROCS, negative = unlimited)")
	fs.StringVar(&c.Admin, "admin", "", "serve /metrics, /healthz and /debug/pprof/ on this address (e.g. localhost:6060; empty = disabled)")
	fs.DurationVar(&c.Drain, "drain", 10*time.Second, "graceful shutdown window (in-flight queries are cancelled immediately; sessions get this long to settle)")
	return fs, c
}

// validate rejects contradictory or unknown flag combinations with one
// clear error, before any container is opened.
func (c daemonConfig) validate() error {
	if len(c.DBFiles) == 0 {
		return fmt.Errorf("no database to serve: build a container with privsp build -out FILE and pass it with -db FILE")
	}
	switch c.PIRStore {
	case "", "plain", "xorpir":
	default:
		return fmt.Errorf("unknown -pir store %q (use plain or xorpir)", c.PIRStore)
	}
	if c.ReplicaRole && c.PIRStore != "xorpir" {
		return fmt.Errorf("-replica-role answers XOR PIR selector shares and requires -pir xorpir (got %q)",
			orDefault(c.PIRStore, "plain"))
	}
	return nil
}

// storeFactory maps the -pir flag (already validated) to an lbs.StoreFactory;
// nil selects lbs.PlainStores.
func storeFactory(name string) lbs.StoreFactory {
	if name == "xorpir" {
		return lbs.XORStores
	}
	return nil
}

// orDefault substitutes a default for an empty flag value in messages.
func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// splitList parses a comma-separated flag, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
