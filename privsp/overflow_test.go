package privsp

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/lbs"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// metric sums the series of one family in the daemon's registry — a
// counter's value or a gauge's — across its label sets; given a full series
// key, it reads that one series.
func metric(srv *server.Server, family string) float64 {
	var total float64
	for _, row := range srv.Telemetry().Snapshot() {
		if strings.HasPrefix(row.Key, family+"{") || row.Key == family {
			total += float64(row.Counter) + row.Gauge
		}
	}
	return total
}

// settled waits for the daemon's per-query finish accounting to complete.
func settled(t *testing.T, srv *server.Server) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		busy := false
		for _, family := range []string{"privsp_server_queries_inflight", "privsp_pool_busy", "privsp_pool_queued"} {
			busy = busy || metric(srv, family) != 0
		}
		if !busy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("query accounting did not settle")
		}
	}
}

// TestPlanOverflowInvisibleToServer: whether a pair fits AF's sampled plan
// depends on the endpoints, so the service must not be able to tell. A
// fitting and an overflowing query leave byte-identical audit-ring traces
// and byte-identical registry deltas (the TestTelemetryLeakageFree
// currency) on a single daemon and on both replicas of a fleet, while the
// client learns of the overflow through the typed error.
func TestPlanOverflowInvisibleToServer(t *testing.T) {
	net0 := Generate(Oldenburg, 0.1, 1)
	// A plan derived from one sampled query with no margin: overflow is
	// common. It is built through Build, so the derivation fields reach the
	// plan the way a user sets them.
	db, err := Build(net0, Config{Scheme: AF, DeriveQueries: 1, SafetyMargin: 1})
	if err != nil {
		t.Fatal(err)
	}
	canonical := lbs.CanonicalTrace(db.LBS().Plan)

	local, err := Serve(db)
	if err != nil {
		t.Fatal(err)
	}
	n := NodeID(net0.NumNodes())
	fit, over := [2]NodeID{-1, -1}, [2]NodeID{-1, -1}
	for s := NodeID(0); s < n && (fit[0] < 0 || over[0] < 0); s += 5 {
		p := [2]NodeID{s, n - 1 - s}
		switch _, err := local.ShortestPath(context.Background(), net0.NodePoint(p[0]), net0.NodePoint(p[1])); {
		case err == nil:
			fit = p
		case errors.Is(err, ErrPlanOverflow):
			over = p
		default:
			t.Fatal(err)
		}
	}
	if fit[0] < 0 || over[0] < 0 {
		t.Fatalf("need a fitting and an overflowing pair, found %v and %v", fit, over)
	}

	for _, dep := range []struct {
		name string
		dial func(t *testing.T) ([]*server.Server, PathService)
	}{
		{"daemon", func(t *testing.T) ([]*server.Server, PathService) {
			srv, addr := hostDaemon(t, server.Options{}, "AF", db)
			rs, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { rs.Close() })
			return []*server.Server{srv}, rs
		}},
		{"fleet", func(t *testing.T) ([]*server.Server, PathService) {
			a, addrA := hostDaemon(t, replicaOptions, "AF", db)
			b, addrB := hostDaemon(t, replicaOptions, "AF", db)
			fs, err := DialFleet(addrA, addrB)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { fs.Close() })
			return []*server.Server{a, b}, fs
		}},
	} {
		t.Run(dep.name, func(t *testing.T) {
			srvs, svc := dep.dial(t)
			// observe runs one query and returns what each daemon saw of it:
			// the newest audit-ring trace and the registry delta.
			observe := func(p [2]NodeID) (views []string, err error) {
				before := make([][]telemetry.SnapshotRow, len(srvs))
				for i, srv := range srvs {
					before[i] = srv.Telemetry().Snapshot()
				}
				_, err = svc.ShortestPath(context.Background(), net0.NodePoint(p[0]), net0.NodePoint(p[1]))
				for i, srv := range srvs {
					settled(t, srv)
					traces := srv.Traces("AF")
					if len(traces) == 0 || traces[len(traces)-1] != canonical {
						t.Errorf("pair %v: daemon %d did not record the canonical trace: %q", p, i, traces)
					}
					views = append(views, telemetry.Delta(before[i], srv.Telemetry().Snapshot()))
				}
				return views, err
			}
			// A warm-up settles the once-per-connection effects.
			if _, err := observe(fit); err != nil {
				t.Fatal(err)
			}
			fitViews, err := observe(fit)
			if err != nil {
				t.Fatal(err)
			}
			overViews, err := observe(over)
			if !errors.Is(err, ErrPlanOverflow) {
				t.Fatalf("overflowing pair %v: err = %v, want ErrPlanOverflow", over, err)
			}
			for i := range srvs {
				if fitViews[i] == "" {
					t.Fatal("a query moved no metrics — instrumentation is dead")
				}
				if overViews[i] != fitViews[i] {
					t.Errorf("daemon %d can tell the overflowing query from the fitting one:\n--- fits ---\n%s\n--- overflows ---\n%s",
						i, fitViews[i], overViews[i])
				}
				if got := len(srvs[i].Traces("AF")); got != 3 {
					t.Errorf("daemon %d recorded %d traces for 3 queries", i, got)
				}
			}
		})
	}
}
