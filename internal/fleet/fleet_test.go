package fleet_test

import (
	"bufio"
	"context"
	"errors"
	"math/rand"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/fleet"
	"repro/internal/lbs"
	"repro/internal/pagefile"
	"repro/internal/pir"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// rawPages builds n deterministic ps-byte pages.
func rawPages(n, ps int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	pages := make([][]byte, n)
	for i := range pages {
		pages[i] = make([]byte, ps)
		rng.Read(pages[i])
	}
	return pages
}

// rawDB wraps pages in a single-file database — the minimal thing a daemon
// can host, used to drive the fleet Backend directly.
func rawDB(pages [][]byte, ps int) *lbs.Database {
	return &lbs.Database{
		Scheme: "RAW",
		Header: []byte("raw fixture header\n"),
		Files:  []pagefile.Reader{pagefile.SlicePages("pages", ps, pages)},
		Plan:   plan.Plan{Rounds: []plan.Round{{Fetches: []plan.Fetch{{File: "pages", Count: 1}}}}},
	}
}

// loggingXORPIR is a replica's XOR-PIR store that also logs, in arrival
// order, every selector share it answers: what that replica daemon
// actually received over the wire. It embeds *pir.XORPIR, so lbs.NewServer
// still finds ShareAnswerer and ScanStats on it.
type loggingXORPIR struct {
	*pir.XORPIR
	mu   sync.Mutex
	sels [][]byte
}

func (x *loggingXORPIR) AnswerShares(ctx context.Context, sels [][]byte, dst [][]byte) error {
	if err := x.XORPIR.AnswerShares(ctx, sels, dst); err != nil {
		return err
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, sel := range sels {
		x.sels = append(x.sels, append([]byte(nil), sel...))
	}
	return nil
}

// shares returns the logged selector shares, oldest first.
func (x *loggingXORPIR) shares() [][]byte {
	x.mu.Lock()
	defer x.mu.Unlock()
	return append([][]byte(nil), x.sels...)
}

// capture collects the share-logging stores a daemon builds.
type capture struct {
	mu     sync.Mutex
	stores []*loggingXORPIR
}

func (c *capture) factory(r pagefile.Reader) (pir.Store, error) {
	x, err := pir.NewXORPIR(r)
	if err != nil {
		return nil, err
	}
	lx := &loggingXORPIR{XORPIR: x}
	c.mu.Lock()
	c.stores = append(c.stores, lx)
	c.mu.Unlock()
	return lx, nil
}

// startDaemon hosts db under name on a loopback listener. replica runs it
// in -replica-role (share fetches only); cap, when non-nil, captures the
// XORPIR stores. Plain (non-share-capable) daemons pass xor=false.
func startDaemon(t testing.TB, name string, db *lbs.Database, replica, xor bool, cap *capture) (*server.Server, string) {
	t.Helper()
	opts := server.Options{ReplicaRole: replica}
	if cap != nil {
		opts.Stores = cap.factory
	} else if xor {
		opts.Stores = lbs.XORStores
	}
	srv := server.New(opts)
	if err := srv.Host(name, db, costmodel.Default()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ln.Addr().String()
}

// dialFleet dials with an isolated telemetry registry and probes every
// 50 ms.
func dialFleet(t testing.TB, addrs []string, opts fleet.Options) *fleet.Fleet {
	t.Helper()
	return dialProbing(t, addrs, opts, 50*time.Millisecond)
}

// dialProbing is dialFleet probing at the given interval.
func dialProbing(t testing.TB, addrs []string, opts fleet.Options, interval time.Duration) *fleet.Fleet {
	t.Helper()
	fleet.SetRegistry(t, telemetry.NewRegistry())
	fleet.SetProbeInterval(t, interval)
	f, err := fleet.Dial(context.Background(), addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// readOne runs one complete fan-out query reading a single page and
// returns the page plus the replica-recorded trace.
func readOne(t testing.TB, f *fleet.Fleet, page int) ([]byte, string) {
	t.Helper()
	ctx := context.Background()
	q := f.StartQuery()
	if err := q.Err(); err != nil {
		t.Fatal(err)
	}
	got, err := q.ReadPages(ctx, "pages", []int{page})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := q.End(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d pages, want 1", len(got))
	}
	return got[0], trace
}

// TestDialValidation: misconfigured fleets fail at dial time with errors
// that name the problem, not at first query with garbage answers.
func TestDialValidation(t *testing.T) {
	pages := rawPages(16, 8, 1)
	db := rawDB(pages, 8)
	_, addrA := startDaemon(t, "RAW", db, true, true, nil)
	fleet.SetRegistry(t, telemetry.NewRegistry())

	t.Run("no addresses", func(t *testing.T) {
		if _, err := fleet.Dial(context.Background(), nil, fleet.Options{}); err == nil {
			t.Fatal("dial with no addresses succeeded")
		}
	})
	t.Run("duplicate address", func(t *testing.T) {
		_, err := fleet.Dial(context.Background(), []string{addrA, addrA}, fleet.Options{})
		if err == nil || !strings.Contains(err.Error(), "twice") {
			t.Fatalf("duplicate address: err = %v", err)
		}
	})
	t.Run("dead replica", func(t *testing.T) {
		// A listener that never answers the handshake, closed immediately:
		// connecting fails fast.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		dead := ln.Addr().String()
		ln.Close()
		_, err = fleet.Dial(context.Background(), []string{addrA, dead}, fleet.Options{})
		if !errors.Is(err, fleet.ErrReplicaDown) {
			t.Fatalf("dead replica: err = %v, want ErrReplicaDown", err)
		}
		var rd *fleet.ReplicaDownError
		if !errors.As(err, &rd) || rd.Addr != dead {
			t.Fatalf("dead replica: err = %v, want *ReplicaDownError for %s", err, dead)
		}
	})
	t.Run("shares needs two", func(t *testing.T) {
		_, err := fleet.Dial(context.Background(), []string{addrA}, fleet.Options{})
		if err == nil || !strings.Contains(err.Error(), "at least 2") {
			t.Fatalf("one-replica fleet: err = %v", err)
		}
	})
	t.Run("plain daemons refused", func(t *testing.T) {
		_, addrP := startDaemon(t, "RAW", db, false, false, nil)
		_, addrQ := startDaemon(t, "RAW", db, false, false, nil)
		_, err := fleet.Dial(context.Background(), []string{addrP, addrQ}, fleet.Options{})
		if err == nil || !strings.Contains(err.Error(), "selector shares") {
			t.Fatalf("plain daemons: err = %v", err)
		}
	})
	t.Run("diverged headers", func(t *testing.T) {
		other := rawDB(pages, 8)
		other.Header = []byte("another build's header\n")
		_, addrC := startDaemon(t, "RAW", other, true, true, nil)
		_, err := fleet.Dial(context.Background(), []string{addrA, addrC}, fleet.Options{})
		if err == nil || !strings.Contains(err.Error(), "different headers") ||
			!strings.Contains(err.Error(), addrA) || !strings.Contains(err.Error(), addrC) {
			t.Fatalf("diverged headers: err = %v, want a header mismatch naming %s and %s", err, addrA, addrC)
		}
	})
	t.Run("diverged file tables", func(t *testing.T) {
		other := rawDB(rawPages(32, 8, 2), 8) // different page count
		_, addrC := startDaemon(t, "RAW", other, true, true, nil)
		_, err := fleet.Dial(context.Background(), []string{addrA, addrC}, fleet.Options{})
		if err == nil || !strings.Contains(err.Error(), "disagree on file") {
			t.Fatalf("diverged databases: err = %v", err)
		}
	})
}

func equalBytes(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFleetMetricsCatalog: the fleet client's registry and the
// fleet-scoped lines of docs/metrics.catalog must agree bidirectionally,
// with every family present eagerly on a freshly dialed fleet — the
// mirror of cmd/privspd's TestMetricsCatalog for the daemon scope.
func TestFleetMetricsCatalog(t *testing.T) {
	pages := rawPages(16, 8, 4)
	db := rawDB(pages, 8)
	_, addrA := startDaemon(t, "RAW", db, true, true, nil)
	_, addrB := startDaemon(t, "RAW", db, true, true, nil)
	reg := telemetry.NewRegistry()
	fleet.SetRegistry(t, reg)
	f, err := fleet.Dial(context.Background(), []string{addrA, addrB}, fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	exported := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 4 && fields[0] == "#" && fields[1] == "TYPE" {
			exported[fields[2]] = fields[3]
		}
	}
	if len(exported) == 0 {
		t.Fatal("freshly dialed fleet exports no families — eager registration broke")
	}

	raw, err := os.ReadFile("../../docs/metrics.catalog")
	if err != nil {
		t.Fatal(err)
	}
	catalog := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 3 && fields[2] == "fleet" {
			catalog[fields[0]] = fields[1]
		}
	}
	if len(catalog) == 0 {
		t.Fatal("docs/metrics.catalog lists no fleet-scoped families")
	}

	var names []string
	for name := range exported {
		names = append(names, name)
	}
	for name := range catalog {
		if _, ok := exported[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		got, exp := exported[name]
		want, cat := catalog[name]
		switch {
		case !cat:
			t.Errorf("fleet exports %s (%s) but docs/metrics.catalog does not list it as fleet-scoped", name, got)
		case !exp:
			t.Errorf("docs/metrics.catalog lists fleet family %s but a fresh fleet does not export it", name)
		case got != want:
			t.Errorf("%s: exported type %s, catalog says %s", name, got, want)
		}
	}
}
