package fleet

import (
	"context"
	crand "crypto/rand"
	"crypto/subtle"
	"fmt"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/costmodel"
	"repro/internal/lbs"
	"repro/internal/pir"
)

// Query is one fan-out query session. It implements lbs.Backend and
// lbs.Service exactly like a single daemon's query session, so scheme
// protocol code runs over a fleet unchanged. Every protocol step drives
// both replica sessions symmetrically — each replica records the same
// canonical Theorem 1 trace it would record alone, and each page read
// becomes one uniform selector share per replica, XORed back together only
// client-side.
type Query struct {
	f    *Fleet
	subs [2]sub // on two distinct replicas
	err  error  // start-time failure (fewer than two replicas up); surfaced by every call
}

// sub is one replica's half of a query.
type sub struct {
	rep *replica
	q   *client.Query
}

// StartQuery opens a fan-out query session on two distinct up replicas.
// With fewer than two up, the session starts nowhere and its every call
// reports a down replica: there is no single-server fallback.
func (f *Fleet) StartQuery() *Query {
	subs, err := f.pick()
	if err != nil {
		return &Query{f: f, err: err}
	}
	f.m.queriesPaired.Inc()
	return &Query{f: f, subs: subs}
}

// Connect opens an lbs connection over this query, governed by ctx.
func (q *Query) Connect(ctx context.Context) *lbs.Conn { return lbs.NewConn(ctx, q) }

// Model implements lbs.Backend: queries simulate with the paper's Table 2
// defaults.
func (q *Query) Model() costmodel.Params { return costmodel.Default() }

// FileInfo implements lbs.Backend from the dial-time file table (validated
// identical on every replica).
func (q *Query) FileInfo(name string) (lbs.FileInfo, error) { return q.f.ref.FileInfo(name) }

// both runs one step against the two subs concurrently, passing each its
// slot, and returns each sub's error, classified (transport errors trip
// that replica's breaker).
func (q *Query) both(step func(i int, s *sub) error) (ea, eb error) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		eb = q.f.reportError(q.subs[1].rep, step(1, &q.subs[1]))
	}()
	ea = q.f.reportError(q.subs[0].rep, step(0, &q.subs[0]))
	wg.Wait()
	return ea, eb
}

// firstErr prefers a's error so deterministic steps surface deterministic
// failures.
func firstErr(ea, eb error) error {
	if ea != nil {
		return ea
	}
	return eb
}

// HeaderBytes implements lbs.Backend with the header every replica's
// handshake carried, checked identical when the replica was dialed: no
// frame goes out.
func (q *Query) HeaderBytes(context.Context) ([]byte, error) {
	if q.err != nil {
		return nil, q.err
	}
	return q.f.ref.Header(), nil
}

// NextRound implements lbs.Backend, announcing the round boundary to both
// replicas so each trace stays canonical.
func (q *Query) NextRound(ctx context.Context) error {
	if q.err != nil {
		return q.err
	}
	return firstErr(q.both(func(_ int, s *sub) error { return s.q.NextRound(ctx) }))
}

// xorInto XORs b into a page-wise, validating sizes.
func xorInto(a, b [][]byte, pageSize int) error {
	for i := range a {
		if len(a[i]) != pageSize || len(b[i]) != pageSize {
			return fmt.Errorf("fleet: share answer %d is %d/%d bytes, want %d", i, len(a[i]), len(b[i]), pageSize)
		}
		subtle.XORBytes(a[i], a[i], b[i])
	}
	return nil
}

// ReadPages implements lbs.Backend as a one-frame ReadFrames.
func (q *Query) ReadPages(ctx context.Context, file string, pages []int) ([][]byte, error) {
	out, err := q.ReadFrames(ctx, []lbs.Frame{{File: file, Pages: pages}})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// ReadFrames implements lbs.RoundReader. Each page splits into two selector
// shares (pir.SplitShares); each replica gets the whole batch — round
// announcements, one FetchShare per quota holding one share per page, and
// the end marker — pipelined on its connection, both in parallel, and the
// answers are XORed locally frame by frame. Each replica sees one uniform
// bitvector per page and performs one scan per quota. A batch that carried
// the end marker completes the query on both replicas; End then compares
// the two traces their QueryDone frames brought back. The pages are the
// first replica's reply buffers with the second's answers XORed into them,
// and, like a client.Query's, stay valid until End or Cancel settles both
// replica queries.
func (q *Query) ReadFrames(ctx context.Context, frames []lbs.Frame) ([][][]byte, error) {
	if q.err != nil {
		return nil, q.err
	}
	var shares [2][]client.ShareFrame
	infos := make([]lbs.FileInfo, len(frames))
	for i, f := range frames {
		if f.NewRound || f.End || len(f.Pages) == 0 {
			for j := range shares {
				shares[j] = append(shares[j], client.ShareFrame{NewRound: f.NewRound, End: f.End})
			}
			continue
		}
		fi, err := q.FileInfo(f.File)
		if err != nil {
			return nil, err
		}
		infos[i] = fi
		// Each page becomes one selector share per replica, cut from one
		// buffer.
		k, nb := len(f.Pages), (fi.NumPages+7)/8
		buf := make([]byte, 2*k*nb)
		sels := [2][][]byte{make([][]byte, k), make([][]byte, k)}
		for p := range k {
			sels[0][p] = buf[p*nb : (p+1)*nb : (p+1)*nb]
			sels[1][p] = buf[(k+p)*nb : (k+p+1)*nb : (k+p+1)*nb]
		}
		if err := pir.SplitShares(crand.Reader, fi.NumPages, f.Pages, sels[0], sels[1]); err != nil {
			return nil, fmt.Errorf("fleet: %s: %w", f.File, err)
		}
		for j := range shares {
			shares[j] = append(shares[j], client.ShareFrame{File: f.File, Sels: sels[j]})
		}
	}
	var answers [2][][][]byte
	start := time.Now()
	ea, eb := q.both(func(i int, s *sub) (err error) {
		answers[i], err = s.q.ReadShareFrames(ctx, shares[i])
		return err
	})
	q.f.m.fanout.Observe(time.Since(start).Nanoseconds())
	if err := firstErr(ea, eb); err != nil {
		return nil, err
	}
	for i, f := range frames {
		if f.NewRound || f.End || len(f.Pages) == 0 {
			continue
		}
		if err := xorInto(answers[0][i], answers[1][i], infos[i].PageSize); err != nil {
			return nil, err
		}
	}
	return answers[0], nil
}

// End completes the query on both replicas and returns the recorded
// adversary-visible trace. The two traces must be byte-identical — the
// replicas executed the same canonical plan, so any divergence means a
// replica misrecorded its own observation.
func (q *Query) End(ctx context.Context) (string, error) {
	if q.err != nil {
		return "", q.err
	}
	var traces [2]string
	ea, eb := q.both(func(i int, s *sub) (err error) {
		traces[i], err = s.q.End(ctx)
		return err
	})
	if err := firstErr(ea, eb); err != nil {
		return "", err
	}
	if traces[0] != traces[1] {
		return "", fmt.Errorf("fleet: replicas %s and %s recorded diverging traces for one query",
			q.subs[0].rep.addr, q.subs[1].rep.addr)
	}
	return traces[0], nil
}

// Cancel abandons the query on both replicas with the given wire cancel
// reason. Replicas that record partial traces (context or deadline
// cancellations) each keep their prefix of the canonical trace. A query
// that never started is a no-op.
func (q *Query) Cancel(reason uint8) {
	if q.err != nil {
		return
	}
	for _, s := range q.subs {
		s.q.Cancel(reason)
	}
}

// Err returns the start-time failure of a query that could not start on
// two replicas (every later call returns it too).
func (q *Query) Err() error { return q.err }

var (
	_ lbs.Backend     = (*Query)(nil)
	_ lbs.RoundReader = (*Query)(nil)
	_ lbs.Service     = (*Query)(nil)
	_ error           = (*ReplicaDownError)(nil)
)
