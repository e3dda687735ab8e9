package fleet_test

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/costmodel"
	"repro/internal/fleet"
	"repro/internal/lbs"
	"repro/internal/pagefile"
	"repro/internal/pir"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/wire"
)

// failingShares answers selector shares like the XOR-PIR store it embeds,
// but refuses every batch of exactly three shares.
type failingShares struct{ *pir.XORPIR }

func (x failingShares) AnswerShares(ctx context.Context, sels [][]byte, dst [][]byte) error {
	if len(sels) == 3 {
		return errors.New("injected share failure")
	}
	return x.XORPIR.AnswerShares(ctx, sels, dst)
}

// TestFleetBatchRefusalEndsTheQuery: one replica refuses one frame in the
// middle of a pipelined batch, the other answers every frame. The refusal
// ends the query on that replica, so the fleet query returns it, and a
// further read on the query returns it again: a daemon's rejection, which
// leaves the replica's breaker closed. The next query succeeds.
func TestFleetBatchRefusalEndsTheQuery(t *testing.T) {
	pages := rawPages(16, 64, 5)
	db := rawDB(pages, 64)
	// The batch below is one round of four quotas.
	db.Plan = plan.Plan{Rounds: []plan.Round{{Fetches: []plan.Fetch{{File: "pages", Count: 1}, {File: "pages", Count: 3}, {File: "pages", Count: 1}, {File: "pages", Count: 1}}}}}
	srvA := server.New(server.Options{ReplicaRole: true, Stores: func(r pagefile.Reader) (pir.Store, error) {
		x, err := pir.NewXORPIR(r)
		return failingShares{x}, err
	}})
	if err := srvA.Host("RAW", db, costmodel.Default()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srvA.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srvA.Shutdown(ctx)
	})
	_, addrB := startDaemon(t, "RAW", db, true, true, nil)
	f := dialFleet(t, []string{ln.Addr().String(), addrB}, fleet.Options{})
	ctx := context.Background()

	q := f.StartQuery()
	if err := q.Err(); err != nil {
		t.Fatal(err)
	}
	batch := []lbs.Frame{{NewRound: true}, {File: "pages", Pages: []int{0}}, {File: "pages", Pages: []int{1, 2, 3}},
		{File: "pages", Pages: []int{4}}, {File: "pages", Pages: []int{5}}}
	_, err = q.ReadFrames(ctx, batch)
	if !client.IsServerReject(err) || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("batch with a refused frame: err = %v, want the replica's rejection", err)
	}
	if _, again := q.ReadPages(ctx, "pages", []int{6}); !client.IsServerReject(again) || again.Error() != err.Error() {
		t.Fatalf("read after the refused batch: err = %v, want the replica's refusal again", again)
	}
	q.Cancel(wire.CancelAbandon)
	for _, r := range f.Status().Replicas {
		if !r.Up || r.Trips != 0 {
			t.Errorf("replica %s: up %v after %d trips, want up with none", r.Addr, r.Up, r.Trips)
		}
	}

	page, _ := readOne(t, f, 7)
	if !equalBytes(page, pages[7]) {
		t.Error("next query read the wrong page")
	}
}
