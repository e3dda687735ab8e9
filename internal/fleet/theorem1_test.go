package fleet_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/client"
	"repro/internal/fleet"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/scheme/base"
	"repro/internal/scheme/ci"
	"repro/internal/wire"
)

// chiSquaredBits returns the chi-squared statistic of per-bit set counts
// against the fair-coin expectation over trials samples (the idiom shared
// with internal/pir's selector-uniformity tests).
func chiSquaredBits(counts []int, trials int) float64 {
	expect := float64(trials) / 2
	variance := float64(trials) / 4
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expect
		chi2 += d * d / variance
	}
	return chi2
}

// chi2Threshold is ≈10 standard deviations above the degrees of freedom:
// a sound implementation fails with negligible probability.
func chi2Threshold(dof int) float64 { return float64(dof) + 10*math.Sqrt(2*float64(dof)) }

// TestTheorem1TwoServer is the fleet's defining invariant, Theorem 1
// lifted to a real two-process deployment:
//
//  1. Against two loopback -replica-role daemons, a scheme query's
//     replica-recorded traces are byte-identical across differing
//     (src, dst) pairs, identical between the two replicas, and identical
//     to what a single non-replica XORPIR daemon records — the fan-out
//     changes who sees the trace, never what the trace says.
//  2. Answers match the single-daemon deployment exactly.
//  3. Each replica's received selector shares are per-bit uniform
//     (chi-squared), and shares from different rounds are pairwise
//     independent; the only structure lives in the same-round PAIR
//     (A xor B = e_target), which no single replica ever holds.
func TestTheorem1TwoServer(t *testing.T) {
	ctx := context.Background()

	// Part 1+2: scheme-level queries over the CI database.
	g := gen.GeneratePreset(gen.Oldenburg, 0.08)
	db, err := ci.Build(g, base.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, addrA := startDaemon(t, "CI", db, true, true, nil)
	_, addrB := startDaemon(t, "CI", db, true, true, nil)
	_, addrRef := startDaemon(t, "CI", db, false, true, nil) // single-daemon XORPIR reference
	f := dialFleet(t, []string{addrA, addrB}, fleet.Options{})
	ref, err := client.Dial(addrRef, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	// A replica-role daemon must refuse plain page fetches outright.
	if rc, err := client.Dial(addrA, client.Options{}); err == nil {
		defer rc.Close()
		rq := rc.StartQuery()
		if _, err := rq.ReadPages(ctx, db.Files[0].Name(), []int{0}); err == nil || !client.IsServerReject(err) {
			t.Fatalf("replica answered a plain Fetch: err = %v", err)
		}
		rq.Cancel(wire.CancelAbandon)
	} else {
		t.Fatal(err)
	}

	pairs := [][2]graph.NodeID{{0, 5}, {3, 9}, {12, 1}, {7, 7}}
	var traces []string
	for _, p := range pairs {
		qs := f.StartQuery()
		if err := qs.Err(); err != nil {
			t.Fatal(err)
		}
		res, err := ci.Query(ctx, qs, g.Point(p[0]), g.Point(p[1]))
		if err != nil {
			t.Fatalf("fleet query %v: %v", p, err)
		}
		trace, err := qs.End(ctx)
		if err != nil {
			t.Fatal(err)
		}

		rqs := ref.StartQuery()
		want, err := ci.Query(ctx, rqs, g.Point(p[0]), g.Point(p[1]))
		if err != nil {
			t.Fatalf("reference query %v: %v", p, err)
		}
		rtrace, err := rqs.End(ctx)
		if err != nil {
			t.Fatal(err)
		}

		if res.Cost != want.Cost || len(res.Path) != len(want.Path) {
			t.Fatalf("query %v: fleet cost %v (%d nodes), single-daemon %v (%d nodes)",
				p, res.Cost, len(res.Path), want.Cost, len(want.Path))
		}
		for i := range res.Path {
			if res.Path[i] != want.Path[i] {
				t.Fatalf("query %v: paths diverge at %d", p, i)
			}
		}
		if trace != rtrace {
			t.Fatalf("query %v: replica trace differs from single-daemon trace:\nfleet:\n%ssingle:\n%s",
				p, trace, rtrace)
		}
		traces = append(traces, trace)
	}
	for i, tr := range traces[1:] {
		if tr != traces[0] {
			t.Fatalf("trace of query %v differs from query %v — src/dst leaked into the adversary view",
				pairs[i+1], pairs[0])
		}
	}

	// Part 3: share uniformity over a raw single-file database, with the
	// replica stores' share logs captured.
	const n, ps, rounds = 64, 32, 256
	pages := rawPages(n, ps, 9)
	raw := rawDB(pages, ps)
	capA, capB := &capture{}, &capture{}
	_, rawA := startDaemon(t, "RAW", raw, true, true, capA)
	_, rawB := startDaemon(t, "RAW", raw, true, true, capB)
	rf := dialFleet(t, []string{rawA, rawB}, fleet.Options{})

	var rawTraces []string
	for i := 0; i < rounds; i++ {
		got, trace := readOne(t, rf, i%n)
		if !equalBytes(got, pages[i%n]) {
			t.Fatalf("round %d: reconstructed page %d wrong", i, i%n)
		}
		rawTraces = append(rawTraces, trace)
	}
	for i, tr := range rawTraces {
		if tr != rawTraces[0] {
			t.Fatalf("raw trace %d differs from trace 0", i)
		}
	}

	if len(capA.stores) != 1 || len(capB.stores) != 1 {
		t.Fatalf("captured %d/%d stores, want 1/1", len(capA.stores), len(capB.stores))
	}
	logA, logB := capA.stores[0].shares(), capB.stores[0].shares()
	if len(logA) != rounds || len(logB) != rounds {
		t.Fatalf("share logs hold %d/%d selectors, want %d", len(logA), len(logB), rounds)
	}

	bit := func(sel []byte, p int) int { return int(sel[p/8]>>(p%8)) & 1 }
	for name, log := range map[string][][]byte{"A": logA, "B": logB} {
		// (a) Every replica's marginal view is per-bit uniform.
		counts := make([]int, n)
		for _, sel := range log {
			for p := 0; p < n; p++ {
				counts[p] += bit(sel, p)
			}
		}
		if chi2 := chiSquaredBits(counts, rounds); chi2 > chi2Threshold(n) {
			t.Errorf("replica %s marginal selector bits: chi2 = %.1f > %.1f — shares are not uniform",
				name, chi2, chi2Threshold(n))
		}
		// (b) Shares from different rounds are pairwise independent: the
		// XOR of consecutive rounds' shares is itself uniform.
		xcounts := make([]int, n)
		for i := 1; i < len(log); i++ {
			for p := 0; p < n; p++ {
				xcounts[p] += bit(log[i], p) ^ bit(log[i-1], p)
			}
		}
		if chi2 := chiSquaredBits(xcounts, rounds-1); chi2 > chi2Threshold(n) {
			t.Errorf("replica %s cross-round share XOR: chi2 = %.1f > %.1f — rounds are correlated",
				name, chi2, chi2Threshold(n))
		}
	}

	// (c) The same-round PAIR reconstructs e_target exactly — the structure
	// exists only across the non-colluding servers, never at one of them.
	for i := 0; i < rounds; i++ {
		weight, at := 0, -1
		for p := 0; p < n; p++ {
			if bit(logA[i], p)^bit(logB[i], p) == 1 {
				weight++
				at = p
			}
		}
		if weight != 1 || at != i%n {
			t.Fatalf("round %d: A xor B has weight %d at bit %d, want e_%d", i, weight, at, i%n)
		}
	}
}
