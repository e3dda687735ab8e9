package lbs

import (
	"bytes"
	"context"
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

// TestScanStoreRejectsHostilePages: on a scan store, an out-of-range or
// negative page index is rejected before a pool slot is taken — no pass
// runs over the file, no series moves — and valid work still flows after.
func TestScanStoreRejectsHostilePages(t *testing.T) {
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

// TestScanStoreMetricsEndpointIndependent: a scan store's observable
// accounting — pool gauges and waits, pages scanned and passes — must move
// identically for same-shape workloads whatever pages (endpoints) the
// queries actually asked for. Two serial single-page fetches with different
// targets must produce byte-identical registry deltas.
func TestScanStoreMetricsEndpointIndependent(t *testing.T) {
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
