package server

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/lbs"
	"repro/internal/pagefile"
	"repro/internal/wire"
)

// TestSteadyStateFetchZeroAllocs pins the zero-allocation property of the
// fetch-serving hot path: once a query's scratch and the server's lists
// are warm, serving one batched Fetch — read the request frame into a
// buffer from the frame list, decode it in place, read the pages through
// the worker pool into a page buffer from the page list, write the
// MsgPages reply from it and give both buffers back — allocates nothing.
func TestSteadyStateFetchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	const numPages, pageSize, k = 64, 256, 16
	rng := rand.New(rand.NewSource(1))
	pages := make([][]byte, numPages)
	for i := range pages {
		pages[i] = make([]byte, pageSize)
		rng.Read(pages[i])
	}
	db := &lbs.Database{
		Scheme: "T",
		Header: []byte{1},
		Files:  []pagefile.Reader{pagefile.SlicePages("F", pageSize, pages)},
	}
	lsrv, err := lbs.NewServer(db, costmodel.Default(), nil, lbs.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	h := &hosted{name: "T", srv: lsrv, limit: 1}
	s := New(Options{})

	req := wire.Fetch{File: "F"}
	for i := 0; i < k; i++ {
		req.Pages = append(req.Pages, uint32(i*3%numPages))
	}
	var framed bytes.Buffer
	if err := wire.WriteFrame(&framed, wire.MsgFetch, 7, req.Encode()); err != nil {
		t.Fatal(err)
	}

	// The working set a live session holds: a query's fetch scratch and
	// the connection's buffered response writer.
	var sc fetchScratch
	br := bytes.NewReader(nil)
	fr := wire.NewFrameReader(br)
	bw := bufio.NewWriterSize(io.Discard, 64<<10)
	fw := wire.NewFrameWriter(bw)
	ctx := context.Background()

	serve := func() {
		br.Reset(framed.Bytes())
		_, qid, payload, err := fr.ReadFrameInto(wire.DefaultMaxFrame, s.frames.Get)
		if err != nil {
			t.Fatal(err)
		}
		_, resp, err := s.answerFetch(ctx, h, wire.MsgFetch, payload, &sc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.WritePages(qid, resp); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		sc.release(&s.pages)
		s.putFrame(payload)
	}
	serve() // warm the buffers
	if allocs := testing.AllocsPerRun(200, serve); allocs != 0 {
		t.Fatalf("steady-state fetch path allocates %.1f objects per serve; want 0", allocs)
	}
}

// TestAnswerFetchMatchesReadPages checks the scratch serving path returns
// exactly what the allocating path returns, across reuse of one scratch for
// requests of different files, sizes and batch shapes.
func TestAnswerFetchMatchesReadPages(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	mkfile := func(name string, n, ps int) pagefile.Reader {
		pages := make([][]byte, n)
		for i := range pages {
			pages[i] = make([]byte, ps)
			rng.Read(pages[i])
		}
		return pagefile.SlicePages(name, ps, pages)
	}
	db := &lbs.Database{
		Scheme: "T",
		Header: []byte{1},
		Files:  []pagefile.Reader{mkfile("A", 32, 64), mkfile("B", 7, 13)},
	}
	lsrv, err := lbs.NewServer(db, costmodel.Default(), nil, lbs.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	h := &hosted{name: "T", srv: lsrv, limit: 1}
	s := New(Options{})
	sc := &fetchScratch{}
	defer sc.release(&s.pages)

	cases := []wire.Fetch{
		{File: "A", Pages: []uint32{0, 31, 5, 5, 17}},
		{File: "B", Pages: []uint32{6, 0, 3}},
		{File: "A", Pages: []uint32{2}},
		{File: "B", Pages: []uint32{1, 1, 1, 1, 1, 1, 1, 1, 1}},
	}
	for _, req := range cases {
		file, pages, err := s.answerFetch(context.Background(), h, wire.MsgFetch, req.Encode(), sc)
		if err != nil {
			t.Fatalf("%s%v: %v", req.File, req.Pages, err)
		}
		if file != req.File {
			t.Fatalf("%s%v: answered for file %q", req.File, req.Pages, file)
		}
		resp := wire.Pages{Pages: pages}
		idx := make([]int, len(req.Pages))
		for i, p := range req.Pages {
			idx[i] = int(p)
		}
		want, err := lsrv.ReadPages(context.Background(), req.File, idx)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Pages) != len(want) {
			t.Fatalf("%s%v: %d pages, want %d", req.File, req.Pages, len(resp.Pages), len(want))
		}
		for i := range want {
			if !bytes.Equal(resp.Pages[i], want[i]) {
				t.Fatalf("%s[%d]: content mismatch", req.File, req.Pages[i])
			}
		}
		sc.release(&s.pages) // as the query does once the reply is written
	}
	// Hostile index: the error must name the page, not crash the scratch.
	hostile := wire.Fetch{File: "B", Pages: []uint32{7}}
	if _, _, err := s.answerFetch(context.Background(), h, wire.MsgFetch, hostile.Encode(), sc); err == nil || !strings.Contains(err.Error(), "page 7 out of range") {
		t.Fatalf("out-of-range page: err = %v, want one naming page 7", err)
	}
}
