// Command privspd is the networked LBS daemon: it loads prebuilt database
// containers — or builds a road network and pre-processes it under one or
// more privacy schemes — and serves the resulting databases over TCP with
// the wire protocol of internal/wire. Remote clients connect with
// privsp.Dial (or privsp query -remote) and run the multi-round PIR
// protocol; the daemon observes only the public query plan's access
// pattern.
//
// Usage:
//
//	privspd -listen :7465 -preset Oldenburg -scale 0.05 -schemes CI,PI,HY
//	privspd -listen :7465 -nodes oldb.nodes -edges oldb.edges -schemes CI
//	privspd -listen :7465 -db ci.psdb,pi.psdb
//
// The -db form loads containers written by "privsp build -out" instead of
// re-running the (potentially multi-hour, §7) preprocessing at startup; it
// is mutually exclusive with the build-path flags. Each database is hosted
// under its scheme name; clients select one with privsp.DialDatabase (or
// take the sole database when only one is served). SIGINT/SIGTERM trigger
// a graceful shutdown that waits for in-flight sessions.
//
// -admin ADDR (off by default) serves the operator endpoints on a SEPARATE
// listen address: Prometheus-text /metrics over the daemon's telemetry
// registry, a /healthz liveness probe, a /readyz readiness probe that
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
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/costmodel"
	"repro/internal/faultinject"
	"repro/internal/lbs"
	"repro/internal/pagefile"
	"repro/internal/pir"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/privsp"
)

func main() {
	listen := flag.String("listen", ":7465", "TCP listen address")
	preset := flag.String("preset", "Oldenburg", "network preset (Oldenburg, Germany, Argentina, Denmark, India, NorthAmerica)")
	scale := flag.Float64("scale", 0.05, "network scale in (0,1]")
	seed := flag.Int64("seed", 1, "generator / build seed")
	nodesFile := flag.String("nodes", "", "node file ('id x y' lines); overrides -preset together with -edges")
	edgesFile := flag.String("edges", "", "edge file ('id from to weight' lines)")
	schemes := flag.String("schemes", "CI", "comma-separated schemes to host: CI, PI, PI*, HY, LM, AF")
	dbFiles := flag.String("db", "", "comma-separated .psdb containers to serve instead of building (see privsp build -out)")
	pageSize := flag.Int("page", 0, "page size in bytes (0 = Table 2 default)")
	threshold := flag.Int("threshold", 0, "HY threshold")
	cluster := flag.Int("cluster", 0, "PI* cluster pages")
	landmarks := flag.Int("landmarks", 0, "LM anchors")
	regions := flag.Int("regions", 0, "AF regions")
	workers := flag.Int("workers", 0, "worker-pool slots per database: every fetch or share batch is one store call holding one, so this bounds the store calls running at once; an XOR-PIR pass's scan width is the store's own, set by GOMAXPROCS and file size (0 = 2x GOMAXPROCS)")
	pirStore := flag.String("pir", "plain", "PIR store per hosted file: plain (reads delegate to the page file; PIR timing simulated analytically) or xorpir (real two-server XOR PIR scans; each fetch or share batch is one pass on one -workers slot)")
	replicaRole := flag.Bool("replica-role", false, "serve as a non-reconstructing fleet replica: answer only XOR PIR selector shares (FetchShare), reject plain page fetches; requires -pir xorpir (clients fan out with privsp.DialFleet)")
	maxInflight := flag.Int("max-inflight", 0, "daemon-wide bound on queries open at once; a BeginQuery past the budget is shed with a typed BUSY reply before any query content is read (0 = 32x workers with a floor of 64, negative = unlimited)")
	chaosSpec := flag.String("chaos", "", "DEV ONLY fault-injection spec, comma-separated key=value from latency=<dur>, tear=<n>, dialfail=<n>, eio=<n>, slowpage=<dur>, seed=<n> (e.g. latency=2ms,tear=6,dialfail=5,eio=97); empty = off")
	adminAddr := flag.String("admin", "", "serve /metrics, /healthz and /debug/pprof/ on this address (e.g. localhost:6060; empty = disabled)")
	statsEvery := flag.Duration("stats", 0, "log serving stats at this interval (0 = off)")
	shutdownWait := flag.Duration("drain", 10*time.Second, "graceful shutdown window (in-flight queries are cancelled immediately; sessions get this long to settle)")
	flag.Parse()

	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("")

	// Validate the whole flag combination up front: a bad scheme name or a
	// contradictory pairing must fail here, not minutes into a network
	// build.
	var explicit []string
	flag.Visit(func(f *flag.Flag) { explicit = append(explicit, f.Name) })
	cfg := daemonConfig{
		DBFiles:     splitList(*dbFiles),
		Schemes:     splitList(*schemes),
		Preset:      *preset,
		NodesFile:   *nodesFile,
		EdgesFile:   *edgesFile,
		PIRStore:    *pirStore,
		ReplicaRole: *replicaRole,
		Chaos:       *chaosSpec,
		Explicit:    explicit,
	}
	warnings, err := cfg.validate()
	if err != nil {
		log.Fatalf("privspd: %v", err)
	}
	for _, w := range warnings {
		log.Printf("privspd: warning: %s", w)
	}

	// Chaos mode (dev only): one injector shared by the listener wrapper and
	// every hosted file's reader, so fault rates are daemon-global.
	var chaos *faultinject.Injector
	if *chaosSpec != "" {
		ccfg, _ := faultinject.ParseSpec(*chaosSpec) // validated above
		if ccfg.Enabled() {
			chaos = faultinject.New(ccfg)
		}
	}

	stores := storeFactory(*pirStore)
	if chaos != nil {
		stores = chaosStores(chaos, stores)
	}
	srv := server.New(server.Options{
		Workers:     *workers,
		Logf:        log.Printf,
		Stores:      stores,
		ReplicaRole: *replicaRole,
		MaxInflight: *maxInflight,
	})
	if len(cfg.DBFiles) > 0 {
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
			log.Printf("privspd: hosted %s from %s: %.2f MB, plan %s (loaded in %v — no rebuild)",
				name, path, float64(db.TotalBytes())/(1<<20), db.Plan(), time.Since(start).Round(time.Millisecond))
		}
	} else {
		net, desc, err := loadNetwork(*preset, *scale, *seed, *nodesFile, *edgesFile)
		if err != nil {
			log.Fatalf("privspd: %v", err)
		}
		log.Printf("privspd: network %s: %d nodes, %d edges", desc, net.NumNodes(), net.NumEdges())
		for _, name := range cfg.Schemes {
			bcfg := privsp.Config{
				Scheme:       privsp.Scheme(name),
				PageSize:     *pageSize,
				Threshold:    *threshold,
				ClusterPages: *cluster,
				Landmarks:    *landmarks,
				Regions:      *regions,
				Seed:         *seed,
			}
			start := time.Now()
			db, err := privsp.Build(net, bcfg)
			if err != nil {
				log.Fatalf("privspd: building %s: %v", name, err)
			}
			if err := srv.Host(name, db.LBS(), costmodel.Default()); err != nil {
				log.Fatalf("privspd: hosting %s: %v", name, err)
			}
			log.Printf("privspd: hosted %s: %.2f MB, plan %s (built in %v)",
				name, float64(db.TotalBytes())/(1<<20), db.Plan(), time.Since(start).Round(time.Millisecond))
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The admin endpoints ride their own listener, never the serving
	// address: metrics and profiles are an operator tool, not a client
	// surface.
	adminWait := func() {}
	if *adminAddr != "" {
		wait, err := startAdmin(ctx, *adminAddr, newAdminMux(srv.Telemetry(), srv.Ready))
		if err != nil {
			log.Fatalf("privspd: admin listen %s: %v", *adminAddr, err)
		}
		adminWait = wait
	}

	// The stats ticker gets its own cancellation, sequenced AFTER server
	// shutdown: logStats emits a final line when it exits, and that line
	// must reflect the settled post-shutdown counters.
	statsCtx, statsStop := context.WithCancel(context.Background())
	defer statsStop()
	var statsWG sync.WaitGroup
	if *statsEvery > 0 {
		statsWG.Add(1)
		go func() {
			defer statsWG.Done()
			logStats(statsCtx, srv, *statsEvery)
		}()
	}

	// Listen here, not in the server, so chaos mode can wrap the listener
	// with its connection-level faults.
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("privspd: listen %s: %v", *listen, err)
	}
	if chaos != nil {
		ln = chaos.Listener(ln)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		if err != nil {
			statsStop()
			statsWG.Wait()
			log.Fatalf("privspd: serve: %v", err)
		}
	case <-ctx.Done():
		log.Printf("privspd: shutting down (cancelling in-flight queries; settling for up to %v)", *shutdownWait)
		sctx, cancel := context.WithTimeout(context.Background(), *shutdownWait)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("privspd: forced shutdown: %v", err)
		}
		statsStop()
		statsWG.Wait()
		if *statsEvery <= 0 {
			printStats(srv)
		}
		adminWait()
	}
}

// daemonConfig is the flag combination validate checks before any expensive
// work runs.
type daemonConfig struct {
	DBFiles     []string
	Schemes     []string
	Preset      string
	NodesFile   string
	EdgesFile   string
	PIRStore    string
	ReplicaRole bool
	Chaos       string
	// Explicit lists the flag names the user actually set (flag.Visit).
	Explicit []string
}

// buildOnlyFlags are meaningless when serving prebuilt containers: the
// containers already fix the network, the schemes and every tuning knob.
var buildOnlyFlags = map[string]bool{
	"preset": true, "scale": true, "seed": true, "nodes": true, "edges": true,
	"schemes": true, "page": true, "threshold": true, "cluster": true,
	"landmarks": true, "regions": true,
}

// validate rejects contradictory or unknown flag combinations with one
// clear error, before any network is generated or container opened, and
// returns advisory warnings for combinations that are legal but probably
// not what the operator meant.
func (c daemonConfig) validate() (warnings []string, err error) {
	switch c.PIRStore {
	case "", "plain", "xorpir":
	default:
		return nil, fmt.Errorf("unknown -pir store %q (use plain or xorpir)", c.PIRStore)
	}
	if c.ReplicaRole && c.PIRStore != "xorpir" {
		return nil, fmt.Errorf("-replica-role answers XOR PIR selector shares and requires -pir xorpir (got %q)",
			orDefault(c.PIRStore, "plain"))
	}
	if c.Chaos != "" {
		ccfg, cerr := faultinject.ParseSpec(c.Chaos)
		if cerr != nil {
			return nil, fmt.Errorf("-chaos: %v", cerr)
		}
		if ccfg.Enabled() {
			warnings = append(warnings, fmt.Sprintf(
				"-chaos %s injects faults into serving I/O — development and testing only, never production", ccfg))
		}
	}
	if len(c.DBFiles) > 0 {
		var conflict []string
		for _, name := range c.Explicit {
			if buildOnlyFlags[name] {
				conflict = append(conflict, "-"+name)
			}
		}
		if len(conflict) > 0 {
			return warnings, fmt.Errorf("-db serves prebuilt containers and is mutually exclusive with %s", strings.Join(conflict, ", "))
		}
		return warnings, nil
	}
	if (c.NodesFile == "") != (c.EdgesFile == "") {
		return warnings, fmt.Errorf("-nodes and -edges must be given together")
	}
	if c.NodesFile == "" && !knownPreset(c.Preset) {
		return warnings, fmt.Errorf("unknown preset %q", c.Preset)
	}
	if len(c.Schemes) == 0 {
		return warnings, fmt.Errorf("no schemes to host")
	}
	for _, name := range c.Schemes {
		switch privsp.Scheme(name) {
		case privsp.CI, privsp.PI, privsp.PIStar, privsp.HY, privsp.LM, privsp.AF:
		default:
			return warnings, fmt.Errorf("unknown scheme %q in -schemes (use CI, PI, PI*, HY, LM, AF)", name)
		}
	}
	return warnings, nil
}

// storeFactory maps the -pir flag (already validated) to an lbs.StoreFactory;
// nil selects lbs.PlainStores.
func storeFactory(name string) lbs.StoreFactory {
	if name == "xorpir" {
		return lbs.XORStores
	}
	return nil
}

// chaosStores wraps every hosted file's reader with the injector's page
// faults (EIO, slow pages) before the real store factory builds on it.
// XOR PIR reads every page at construction, so under -pir xorpir injected
// EIO can only fail hosting; -pir plain serves straight from the reader and
// surfaces injected EIO per query-time fetch.
func chaosStores(in *faultinject.Injector, next lbs.StoreFactory) lbs.StoreFactory {
	if next == nil {
		next = lbs.PlainStores
	}
	return func(f pagefile.Reader) (pir.Store, error) { return next(in.Reader(f)) }
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

// resolvePreset is the single source of preset-name matching, shared by the
// up-front validation and the build path.
func resolvePreset(name string) (privsp.Preset, bool) {
	for _, p := range []privsp.Preset{
		privsp.Oldenburg, privsp.Germany, privsp.Argentina,
		privsp.Denmark, privsp.India, privsp.NorthAmerica,
	} {
		if strings.EqualFold(p.String(), name) {
			return p, true
		}
	}
	return 0, false
}

func knownPreset(name string) bool {
	_, ok := resolvePreset(name)
	return ok
}

func loadNetwork(preset string, scale float64, seed int64, nodesFile, edgesFile string) (*privsp.Network, string, error) {
	if nodesFile != "" {
		nf, err := os.Open(nodesFile)
		if err != nil {
			return nil, "", err
		}
		defer nf.Close()
		ef, err := os.Open(edgesFile)
		if err != nil {
			return nil, "", err
		}
		defer ef.Close()
		net, err := privsp.LoadNetwork(nf, ef)
		return net, nodesFile, err
	}
	p, ok := resolvePreset(preset)
	if !ok {
		return nil, "", fmt.Errorf("unknown preset %q", preset)
	}
	return privsp.Generate(p, scale, seed), fmt.Sprintf("%s@%.3f", p, scale), nil
}

// logStats prints a stats line every tick, plus one final line when the
// ticker is stopped — the shutdown path cancels ctx only after the server
// has settled, so the last line is the authoritative end-of-run summary.
func logStats(ctx context.Context, srv *server.Server, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	defer printStats(srv)
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			printStats(srv)
		}
	}
}

func printStats(srv *server.Server) {
	log.Print(statsLine(srv.Stats()))
}

// statsLine renders one serving-stats log line: connection totals, then per
// database the query counters — completed, in-flight, cancelled,
// deadline-exceeded — pages served, and the worker-pool gauges.
func statsLine(st wire.ServerStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "privspd: conns %d active / %d total", st.ActiveConns, st.TotalConns)
	for _, db := range st.Databases {
		fmt.Fprintf(&b, " | %s: %d queries (%d in-flight, %d cancelled, %d deadline), %d pages, pool %d/%d busy (%d queued)",
			db.Name, db.Queries, db.InFlight, db.Cancelled, db.Deadline,
			db.Pages, db.BusyWorkers, db.Workers, db.QueuedReads)
	}
	return b.String()
}
