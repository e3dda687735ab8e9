package main

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/server"
	"repro/privsp"
)

// adminFixture hosts one CI-scheme daemon (default pir.Plain store, so the
// full metric catalog is registered) shared by the admin-endpoint tests.
var adminFixture struct {
	once sync.Once
	net  *privsp.Network
	srv  *server.Server
	addr string
	err  error
}

func testDaemon(t *testing.T) (*privsp.Network, *server.Server, string) {
	t.Helper()
	adminFixture.once.Do(func() {
		adminFixture.net = privsp.Generate(privsp.Oldenburg, 0.08, 1)
		db, err := privsp.Build(adminFixture.net, privsp.Config{Scheme: privsp.CI})
		if err != nil {
			adminFixture.err = err
			return
		}
		srv := server.New(server.Options{})
		if err := srv.Host("CI", db.LBS(), costmodel.Default()); err != nil {
			adminFixture.err = err
			return
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			adminFixture.err = err
			return
		}
		go srv.Serve(ln)
		adminFixture.srv = srv
		adminFixture.addr = ln.Addr().String()
	})
	if adminFixture.err != nil {
		t.Fatal(adminFixture.err)
	}
	return adminFixture.net, adminFixture.srv, adminFixture.addr
}

// scrape fetches /metrics from the admin mux and returns the body.
func scrape(t *testing.T, srv *server.Server) string {
	t.Helper()
	ts := httptest.NewServer(newAdminMux(srv.Telemetry(), srv.Ready))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics: Content-Type %q, want Prometheus text 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue finds the sample value of the series whose name and label set
// match the given prefix, e.g. `privsp_server_queries_total{db="CI"}`.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, series+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, series)), 64)
		if err != nil {
			t.Fatalf("series %s: bad value in %q: %v", series, line, err)
		}
		return v
	}
	t.Fatalf("series %s not found in scrape:\n%s", series, body)
	return 0
}

// registryValue reads one series of the daemon's registry in process, by
// its full key: a counter's value or a gauge's.
func registryValue(t *testing.T, srv *server.Server, series string) float64 {
	t.Helper()
	for _, row := range srv.Telemetry().Snapshot() {
		if row.Key == series {
			return float64(row.Counter) + row.Gauge
		}
	}
	t.Fatalf("series %s not registered", series)
	return 0
}

// settleDaemon waits for the daemon's per-query finish accounting (which
// runs after the client sees QueryDone) to drain.
func settleDaemon(t *testing.T, srv *server.Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		busy := false
		for _, family := range []string{"privsp_server_queries_inflight", "privsp_pool_busy", "privsp_pool_queued"} {
			if registryValue(t, srv, family+`{db="CI"}`) != 0 {
				busy = true
			}
		}
		if !busy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("query accounting did not settle")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdminMetricsConsistency: the /metrics scrape renders the daemon's
// telemetry registry, the one place its counters live — after a batch of
// queries, the scraped per-db query and page counters equal the registry's
// read in process, and count every query.
func TestAdminMetricsConsistency(t *testing.T) {
	net0, srv, addr := testDaemon(t)
	remote, err := privsp.DialDatabase(addr, "CI")
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	const n = 3
	for i := 0; i < n; i++ {
		if _, err := remote.ShortestPath(context.Background(),
			net0.NodePoint(0), net0.NodePoint(privsp.NodeID(5+i))); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	settleDaemon(t, srv)

	queries := registryValue(t, srv, `privsp_server_queries_total{db="CI"}`)
	pages := registryValue(t, srv, `privsp_server_pages_served_total{db="CI"}`)
	if queries < n {
		t.Fatalf("registry counts %v queries, ran %d", queries, n)
	}
	if pages == 0 {
		t.Fatal("registry counts no pages served")
	}

	body := scrape(t, srv)
	if got := metricValue(t, body, `privsp_server_queries_total{db="CI"}`); got != queries {
		t.Errorf("/metrics queries_total = %v, registry = %v", got, queries)
	}
	if got := metricValue(t, body, `privsp_server_pages_served_total{db="CI"}`); got != pages {
		t.Errorf("/metrics pages_served_total = %v, registry = %v", got, pages)
	}
	if got := metricValue(t, body, `privsp_server_queries_inflight{db="CI"}`); got != 0 {
		t.Errorf("/metrics queries_inflight = %v after settle, want 0", got)
	}
	// The latency histogram must have recorded one observation per query.
	if got := metricValue(t, body, `privsp_server_query_seconds_count{db="CI"}`); got != queries {
		t.Errorf("/metrics query_seconds_count = %v, want %v", got, queries)
	}
}

// TestAdminHealthz: the liveness probe answers 200 with a plain body.
func TestAdminHealthz(t *testing.T) {
	_, srv, _ := testDaemon(t)
	ts := httptest.NewServer(newAdminMux(srv.Telemetry(), srv.Ready))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("/healthz: %d %q", resp.StatusCode, body)
	}
}

// TestAdminReadyz: the readiness probe tracks the shedding state — 200
// with admission headroom, 503 while the in-flight budget is full — and
// /healthz stays a pure 200 liveness answer throughout.
func TestAdminReadyz(t *testing.T) {
	_, srv, _ := testDaemon(t)
	shedding := false
	ready := func() bool { return !shedding }
	ts := httptest.NewServer(newAdminMux(srv.Telemetry(), ready))
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/readyz"); code != http.StatusOK || body != "ready\n" {
		t.Fatalf("/readyz ready: %d %q", code, body)
	}
	shedding = true
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || body != "shedding\n" {
		t.Fatalf("/readyz shedding: %d %q", code, body)
	}
	if code, body := get("/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz while shedding: %d %q — liveness must not track load", code, body)
	}
	shedding = false
	if code, body := get("/readyz"); code != http.StatusOK || body != "ready\n" {
		t.Fatalf("/readyz after drain: %d %q", code, body)
	}

	// The real daemon wiring: srv.Ready reflects the live server, which has
	// headroom here.
	ts2 := httptest.NewServer(newAdminMux(srv.Telemetry(), srv.Ready))
	defer ts2.Close()
	resp, err := http.Get(ts2.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz on an idle daemon: %d, want 200", resp.StatusCode)
	}
}

// TestMetricsCatalog: the daemon's exported metric families match
// docs/metrics.catalog exactly, in both directions. A family the daemon
// exports but the catalog omits is an undocumented metric (and would slip
// past the CI smoke job unreviewed); a family the catalog lists but the
// daemon omits means eager registration broke and a dashboard would
// silently flatline.
func TestMetricsCatalog(t *testing.T) {
	_, srv, _ := testDaemon(t)
	body := scrape(t, srv)

	exported := map[string]string{} // family -> type
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 4 && fields[0] == "#" && fields[1] == "TYPE" {
			exported[fields[2]] = fields[3]
		}
	}
	if len(exported) == 0 {
		t.Fatal("no TYPE lines in scrape")
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
		switch {
		case len(fields) == 2 || (len(fields) == 3 && fields[2] == "daemon"):
			catalog[fields[0]] = fields[1]
		case len(fields) == 3 && fields[2] == "fleet":
			// Fleet-client families: enforced against a fleet registry by
			// internal/fleet's TestFleetMetricsCatalog, not the daemon scrape.
		case len(fields) == 3 && fields[2] == "client":
			// Client-side families on the process-default registry: enforced
			// by internal/client's TestClientMetricsCatalog.
		default:
			t.Fatalf("catalog line %q: want <family> <type> [daemon|fleet|client]", line)
		}
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
			t.Errorf("daemon exports %s (%s) but docs/metrics.catalog does not list it", name, got)
		case !exp:
			t.Errorf("docs/metrics.catalog lists %s but the daemon does not export it", name)
		case got != want:
			t.Errorf("%s: exported type %s, catalog says %s", name, got, want)
		}
	}
}
