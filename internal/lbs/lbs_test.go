package lbs

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/pagefile"
	"repro/internal/pir"
	"repro/internal/plan"
)

func sampleDB(t *testing.T) *Database {
	t.Helper()
	fa := pagefile.NewFile("Fa", 64)
	fb := pagefile.NewFile("Fb", 64)
	for i := 0; i < 4; i++ {
		fa.MustAppendPage([]byte{byte(i)})
	}
	fb.MustAppendPage([]byte("hello"))
	return &Database{
		Scheme: "TEST",
		Header: []byte("header-bytes"),
		Files:  []pagefile.Reader{fa, fb},
		Plan: plan.Plan{Rounds: []plan.Round{
			{Fetches: []plan.Fetch{{File: "Fa", Count: 2}}},
			{Fetches: []plan.Fetch{{File: "Fb", Count: 1}}},
		}},
	}
}

func TestDatabaseAccessors(t *testing.T) {
	db := sampleDB(t)
	if db.File("Fa") == nil || db.File("Fb") == nil {
		t.Fatal("files missing")
	}
	if db.File("Fc") != nil {
		t.Error("phantom file")
	}
	if db.TotalBytes() != int64(len(db.Header))+5*64 {
		t.Errorf("TotalBytes = %d", db.TotalBytes())
	}
}

func TestDuplicateFileNamesRejected(t *testing.T) {
	fa1 := pagefile.NewFile("Fa", 64)
	fa1.MustAppendPage([]byte{1})
	fa2 := pagefile.NewFile("Fa", 64)
	fa2.MustAppendPage([]byte{2})
	db := &Database{Scheme: "TEST", Files: []pagefile.Reader{fa1, fa2}}
	if _, err := NewServer(db, costmodel.Default(), nil); err == nil {
		t.Error("database with duplicate file names hosted")
	}
	// The ambiguous name resolves to nothing rather than to either file.
	if db.File("Fa") != nil {
		t.Error("ambiguous name resolved")
	}
}

func TestFileIndexLookups(t *testing.T) {
	// Many files: the map-backed lookup must find each by name.
	var files []pagefile.Reader
	for _, name := range []string{"Fl", "Fc", "Fd", "Fp", "Fs"} {
		f := pagefile.NewFile(name, 32)
		f.MustAppendPage([]byte(name))
		files = append(files, f)
	}
	db := &Database{Scheme: "TEST", Files: files}
	for _, name := range []string{"Fl", "Fc", "Fd", "Fp", "Fs"} {
		if f := db.File(name); f == nil || f.Name() != name {
			t.Errorf("File(%q) = %v", name, f)
		}
	}
	if db.File("Fx") != nil {
		t.Error("phantom file resolved")
	}
}

func TestServerRejectsOversizedFiles(t *testing.T) {
	db := sampleDB(t)
	model := costmodel.Default()
	model.SCPMemory = 1 // PIR supports almost nothing
	if _, err := NewServer(db, model, nil); err == nil {
		t.Error("oversized file accepted by PIR-limited server")
	}
}

// TestFetchErrors: the in-process backend refuses an unknown file and an
// out-of-range page.
func TestFetchErrors(t *testing.T) {
	db := sampleDB(t)
	srv, err := NewServer(db, costmodel.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.FileInfo("nope"); err == nil {
		t.Error("unknown file described")
	}
	if _, err := srv.ReadPages(context.Background(), "nope", []int{0}); err == nil {
		t.Error("unknown file fetched")
	}
	if _, err := srv.ReadPages(context.Background(), "Fa", []int{99}); err == nil {
		t.Error("out-of-range page fetched")
	}
}

// TestCanonicalTraceText pins the transcript format every view of a query
// shares: the client's record, the daemon's, and a plan's rendering.
func TestCanonicalTraceText(t *testing.T) {
	want := "round 1:\n  fetch Fa\n  fetch Fa\nround 2:\n  fetch Fb\n"
	if got := CanonicalTrace(sampleDB(t).Plan); got != want {
		t.Errorf("CanonicalTrace = %q, want %q", got, want)
	}
	var tr Transcript
	tr.Round(1)
	tr.Fetch("Fa", 1)
	tr.Fetch("Fa", 1)
	tr.Round(2)
	tr.Fetch("Fb", 1)
	if tr.String() != want {
		t.Errorf("frame by frame: %q, want %q", tr.String(), want)
	}
}

// TestParallelReadPages drives the worker pool from concurrent connections:
// every batch comes back whole and in order, on plain and XOR-PIR stores,
// for every worker count.
func TestParallelReadPages(t *testing.T) {
	const pagesN = 40
	f := pagefile.NewFile("Fbig", 64)
	want := make([][]byte, pagesN)
	for i := 0; i < pagesN; i++ {
		want[i] = bytes.Repeat([]byte{byte(i + 1)}, 8)
		f.MustAppendPage(want[i])
	}
	db := &Database{Scheme: "TEST", Header: []byte("h"), Files: []pagefile.Reader{f}}

	factories := map[string]StoreFactory{
		"plain":  nil,
		"xorpir": XORStores,
	}
	for fname, factory := range factories {
		for _, workers := range []int{1, 3, 8} {
			srv, err := NewServer(db, costmodel.Default(), factory, WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			if w := srv.pool.size(); w != workers {
				t.Fatalf("%s/w=%d: pool size %d", fname, workers, w)
			}
			batch := make([]int, pagesN)
			for i := range batch {
				batch[i] = (i * 7) % pagesN
			}
			var wg sync.WaitGroup
			for c := 0; c < 4; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got, err := srv.ReadPages(context.Background(), "Fbig", batch)
					if err != nil {
						t.Errorf("%s/w=%d: %v", fname, workers, err)
						return
					}
					for i, p := range batch {
						if !bytes.Equal(got[i][:8], want[p]) {
							t.Errorf("%s/w=%d: slot %d wrong content", fname, workers, i)
							return
						}
					}
				}()
			}
			wg.Wait()
			if b, q := srv.pool.stats(); b != 0 || q != 0 {
				t.Errorf("%s/w=%d: gauges busy=%d queued=%d after drain", fname, workers, b, q)
			}
			if _, err := srv.ReadPages(context.Background(), "Fbig", []int{pagesN}); err == nil {
				t.Errorf("%s/w=%d: out-of-range batch accepted", fname, workers)
			}
		}
	}
}

// blockingStore parks every read until released, so tests can fill the
// worker pool deterministically.
type blockingStore struct {
	inner   *pir.Plain
	release chan struct{}
}

func (b *blockingStore) NumPages() int { return b.inner.NumPages() }
func (b *blockingStore) PageSize() int { return b.inner.PageSize() }
func (b *blockingStore) ReadBatchInto(ctx context.Context, pages []int, dst [][]byte) error {
	select {
	case <-b.release:
	case <-ctx.Done():
		return ctx.Err()
	}
	return b.inner.ReadBatchInto(ctx, pages, dst)
}

// TestReadPagesCancelledWhileQueued: with the single pool slot held by a
// parked read — a plain page read, or a pass over a scan store — a second
// read waits in the queue; cancelling its context frees it with ctx.Err()
// and the pool gauges return to idle — no worker is left owned by a query
// nobody wants.
func TestReadPagesCancelledWhileQueued(t *testing.T) {
	for _, tc := range []struct {
		name  string
		store func(f pagefile.Reader, release chan struct{}) (pir.Store, error)
	}{
		{"plain", func(f pagefile.Reader, release chan struct{}) (pir.Store, error) {
			return &blockingStore{inner: pir.NewPlain(f), release: release}, nil
		}},
		{"xorpir", func(f pagefile.Reader, release chan struct{}) (pir.Store, error) {
			x, err := pir.NewXORPIR(f)
			return &gatedXOR{XORPIR: x, entered: make(chan struct{}, 1), release: release}, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := sampleDB(t)
			release := make(chan struct{})
			srv, err := NewServer(db, costmodel.Default(), func(f pagefile.Reader) (pir.Store, error) {
				return tc.store(f, release)
			}, WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}

			holder := make(chan error, 1)
			go func() {
				_, err := srv.ReadPages(context.Background(), "Fa", []int{0})
				holder <- err
			}()
			// Wait until the slot is held.
			deadline := time.Now().Add(5 * time.Second)
			for {
				if busy, _ := srv.pool.stats(); busy == 1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("pool slot never taken")
				}
				time.Sleep(time.Millisecond)
			}

			ctx, cancel := context.WithCancel(context.Background())
			queued := make(chan error, 1)
			go func() {
				_, err := srv.ReadPages(ctx, "Fa", []int{1})
				queued <- err
			}()
			for {
				if _, q := srv.pool.stats(); q == 1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("second read never queued")
				}
				time.Sleep(time.Millisecond)
			}

			cancel()
			if err := <-queued; !errors.Is(err, context.Canceled) {
				t.Fatalf("queued read: err = %v, want context.Canceled", err)
			}
			close(release)
			if err := <-holder; err != nil {
				t.Fatalf("holding read: %v", err)
			}
			if busy, q := srv.pool.stats(); busy != 0 || q != 0 {
				t.Errorf("gauges busy=%d queued=%d after cancel+drain", busy, q)
			}
		})
	}
}
