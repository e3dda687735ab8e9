package lbs

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/pagefile"
	"repro/internal/pir"
	"repro/internal/telemetry"
)

// newScanServer hosts one testPages-page file on an XORPIR store wrapped in
// a gatedXOR (gated only when gate is true, with room for two passes to
// announce themselves) with telemetry enabled.
func newScanServer(t *testing.T, gate bool, opts ...ServerOption) (*Server, *gatedXOR, *telemetry.Registry) {
	t.Helper()
	const pageSize = 32
	f := pagefile.NewFile("F", pageSize)
	for i := 0; i < testPages; i++ {
		f.MustAppendPage(bytes.Repeat([]byte{byte(i + 1)}, pageSize))
	}
	db := &Database{Scheme: "TEST", Header: []byte("h"), Files: []pagefile.Reader{f}}
	var gx *gatedXOR
	factory := func(r pagefile.Reader) (pir.Store, error) {
		x, err := pir.NewXORPIR(r)
		if err != nil {
			return nil, err
		}
		gx = &gatedXOR{XORPIR: x}
		if gate {
			gx.entered = make(chan struct{}, 2)
			gx.release = make(chan struct{})
		}
		return gx, nil
	}
	reg := telemetry.NewRegistry()
	srv, err := NewServer(db, costmodel.Default(), factory,
		append(opts, WithTelemetry(reg, "T"))...)
	if err != nil {
		t.Fatal(err)
	}
	return srv, gx, reg
}

// TestSchedulerRejectsHostilePages: on a scan store, an out-of-range or
// negative page index is rejected before a pool slot is scheduled — no pass
// runs over the file, no series moves — and valid work still flows after.
func TestSchedulerRejectsHostilePages(t *testing.T) {
	srv, gx, reg := newScanServer(t, false)
	before := reg.Snapshot()
	if _, err := srv.ReadPages(context.Background(), "F", []int{testPages}); err == nil {
		t.Fatal("out-of-range page accepted")
	}
	if _, err := srv.ReadPages(context.Background(), "F", []int{-1}); err == nil {
		t.Fatal("negative page accepted")
	}
	if d := telemetry.Delta(before, reg.Snapshot()); d != "" {
		t.Errorf("rejected fetches moved metrics:\n%s", d)
	}
	if scanned, scans := gx.ScanStats(); scanned != 0 || scans != 0 {
		t.Errorf("rejected fetches reached the store: %d pages scanned in %d passes", scanned, scans)
	}

	got, err := srv.ReadPages(context.Background(), "F", []int{0, testPages - 1})
	if err != nil {
		t.Fatal(err)
	}
	checkPage(t, got, []int{0, testPages - 1})
	if n := len(gx.snapshotPasses()); n != 1 {
		t.Errorf("valid two-page fetch ran %d passes, want 1", n)
	}
}

// chiSquaredBits mirrors the pir package's helper: the chi-squared statistic
// of per-bit set counts against the fair-coin expectation.
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

func selected(sel []byte, bit int) bool { return sel[bit/8]&(1<<(bit%8)) != 0 }

// TestSchedulerCoScheduledSelectorsUniformAndIndependent extends the
// selector privacy property across connections: when fetches from two
// DIFFERENT goroutines are scheduled on one scan store at once — two passes
// in flight, each holding a pool slot — each query's server-A selector
// vector must stay marginally uniform per bit, and the two co-scheduled
// vectors must be mutually independent (their XOR is uniform too), exactly
// as if the queries had run alone. Checked with chi-squared statistics
// against ≈10-sigma thresholds.
func TestSchedulerCoScheduledSelectorsUniformAndIndependent(t *testing.T) {
	const trials = 256
	srv, gx, _ := newScanServer(t, true, WithWorkers(2))

	perBit := make([]int, testPages)  // all co-scheduled vectors
	pairXOR := make([]int, testPages) // XOR of the two vectors per trial
	results := make(chan error, 2)
	fetch := func(page int) {
		_, err := srv.ReadPages(context.Background(), "F", []int{page})
		results <- err
	}

	for trial := 0; trial < trials; trial++ {
		go fetch(trial % testPages)
		go fetch((trial + 23) % testPages)
		<-gx.entered // both passes hold a slot at the gate
		<-gx.entered
		// Release them one at a time, so each pass's recorded selectors
		// are its own.
		for i := 0; i < 2; i++ {
			gx.release <- struct{}{}
			if err := <-results; err != nil {
				t.Fatal(err)
			}
		}

		gx.mu.Lock()
		sels := gx.selsA
		gx.passes, gx.selsA = gx.passes[:0], nil
		gx.mu.Unlock()
		if len(sels) != 2 || len(sels[0]) != 1 || len(sels[1]) != 1 {
			t.Fatalf("trial %d: want two one-query passes, got %d passes", trial, len(sels))
		}
		a, b := sels[0][0], sels[1][0]
		for bit := 0; bit < testPages; bit++ {
			for _, sel := range [][]byte{a, b} {
				if selected(sel, bit) {
					perBit[bit]++
				}
			}
			if selected(a, bit) != selected(b, bit) {
				pairXOR[bit]++
			}
		}
	}

	threshold := float64(testPages) + 10*math.Sqrt(2*float64(testPages))
	if chi2 := chiSquaredBits(perBit, 2*trials); chi2 > threshold {
		t.Errorf("co-scheduled selector bits not uniform (chi2 %.1f > %.1f)", chi2, threshold)
	}
	if chi2 := chiSquaredBits(pairXOR, trials); chi2 > threshold {
		t.Errorf("co-scheduled queries correlated across connections (pair XOR chi2 %.1f > %.1f)", chi2, threshold)
	}
}

// TestSchedulerMetricsEndpointIndependent: a scan store's observable
// accounting — pool gauges and waits, fetch routes, kernel routes, pages
// scanned and passes — must move identically for same-shape workloads
// whatever pages (endpoints) the queries actually asked for. Two serial
// single-page fetches with different targets must produce byte-identical
// registry deltas.
func TestSchedulerMetricsEndpointIndependent(t *testing.T) {
	srv, _, reg := newScanServer(t, false)

	// Warm up pools so both measured runs start from identical state.
	if _, err := srv.ReadPages(context.Background(), "F", []int{9}); err != nil {
		t.Fatal(err)
	}
	var deltas []string
	for _, page := range []int{3, 61} {
		before := reg.Snapshot()
		if _, err := srv.ReadPages(context.Background(), "F", []int{page}); err != nil {
			t.Fatal(err)
		}
		deltas = append(deltas, telemetry.Delta(before, reg.Snapshot()))
	}
	if deltas[0] == "" {
		t.Error("a scan-store fetch moved no series — the invariant would hold vacuously")
	}
	if deltas[0] != deltas[1] {
		t.Errorf("scan-store metrics depend on the fetched page:\npage 3:\n%s\npage 61:\n%s", deltas[0], deltas[1])
	}
}
