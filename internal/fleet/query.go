package fleet

import (
	"context"
	crand "crypto/rand"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/costmodel"
	"repro/internal/lbs"
)

// Query is one fan-out query session. It implements lbs.Backend and
// lbs.Service exactly like a single daemon's query session, so scheme
// protocol code runs over a fleet unchanged. In a paired query every
// protocol step drives BOTH replica sessions symmetrically — each replica
// records the same canonical Theorem 1 trace it would record alone, and
// each page read becomes one uniform selector share per replica, XORed
// back together only client-side.
type Query struct {
	f    *Fleet
	subs []*sub // paired: exactly 2; degraded: exactly 1 (both shares on it)
	err  error  // start-time failure (no replicas); surfaced by every call
}

// sub is one replica's half of a query.
type sub struct {
	rep *replica
	q   *client.Query
}

// StartQuery opens a fan-out query session, choosing replicas by current
// health: two up replicas give a paired query; exactly one gives a degraded
// query (unless Options.DisableDegraded); zero replicas give a session
// whose every call reports the down replica.
func (f *Fleet) StartQuery() *Query {
	q := &Query{f: f}
	picked := f.pick()
	switch len(picked) {
	case 0:
		q.err = f.downError()
	case 1:
		if f.opts.DisableDegraded {
			q.err = fmt.Errorf("fleet: only replica %s is up and degraded mode is disabled: %w",
				picked[0].addr, f.downError())
			return q
		}
		f.m.degraded.Inc()
		f.opts.Logf("fleet: DEGRADED query: both shares to %s — single-server XOR PIR, privacy rests on trusting that one server", picked[0].addr)
		q.subs = []*sub{{rep: picked[0], q: picked[0].c.StartQuery()}}
	default:
		f.m.queriesPaired.Inc()
		q.subs = []*sub{
			{rep: picked[0], q: picked[0].c.StartQuery()},
			{rep: picked[1], q: picked[1].c.StartQuery()},
		}
	}
	return q
}

// degraded reports whether both shares of this query go to one replica.
func (q *Query) degraded() bool { return len(q.subs) == 1 }

// Connect opens an lbs connection over this query, governed by ctx.
func (q *Query) Connect(ctx context.Context) *lbs.Conn { return lbs.NewConn(ctx, q) }

// Model implements lbs.Backend with the fleet-wide cost model.
func (q *Query) Model() costmodel.Params { return q.f.model }

// FileInfo implements lbs.Backend from the dial-time file table (already
// validated identical on every replica).
func (q *Query) FileInfo(name string) (lbs.FileInfo, error) {
	fi, ok := q.f.files[name]
	if !ok {
		return lbs.FileInfo{}, fmt.Errorf("fleet: no such file %q", name)
	}
	return fi, nil
}

// both runs one step against two subs concurrently and returns each sub's
// error, classified (transport errors trip that replica's breaker).
func (q *Query) both(step func(s *sub) error) (ea, eb error) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		eb = q.f.reportError(q.subs[1].rep, step(q.subs[1]))
	}()
	ea = q.f.reportError(q.subs[0].rep, step(q.subs[0]))
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

// HeaderBytes implements lbs.Backend. Paired queries fetch the header from
// both replicas and require the bytes identical — a silent mismatch would
// mean the replicas serve diverged databases and every share XOR after it
// would be garbage.
func (q *Query) HeaderBytes(ctx context.Context) ([]byte, error) {
	if q.err != nil {
		return nil, q.err
	}
	if q.degraded() {
		h, err := q.subs[0].q.HeaderBytes(ctx)
		return h, q.f.reportError(q.subs[0].rep, err)
	}
	headers := make([][]byte, 2)
	ea, eb := q.both(func(s *sub) error {
		h, err := s.q.HeaderBytes(ctx)
		if err == nil {
			if s == q.subs[0] {
				headers[0] = h
			} else {
				headers[1] = h
			}
		}
		return err
	})
	if err := firstErr(ea, eb); err != nil {
		return nil, err
	}
	if !headersMatch(headers[0], headers[1]) {
		return nil, fmt.Errorf("fleet: replicas %s and %s serve different headers (%d vs %d bytes) — diverged databases",
			q.subs[0].rep.addr, q.subs[1].rep.addr, len(headers[0]), len(headers[1]))
	}
	return headers[0], nil
}

// NextRound implements lbs.Backend, announcing the round boundary to every
// participating replica so each trace stays canonical.
func (q *Query) NextRound(ctx context.Context) error {
	if q.err != nil {
		return q.err
	}
	if q.degraded() {
		return q.f.reportError(q.subs[0].rep, q.subs[0].q.NextRound(ctx))
	}
	return firstErr(q.both(func(s *sub) error { return s.q.NextRound(ctx) }))
}

// splitShares draws the two-server XOR PIR shares for a page batch:
// selsA[i] is uniform from crypto/rand (trailing bits masked so both
// replica views match the store's own drawing discipline bit for bit),
// selsB[i] = selsA[i] xor e_pages[i]. Each share alone is marginally
// uniform and independent of the page index.
func splitShares(fi lbs.FileInfo, pages []int) (selsA, selsB [][]byte, err error) {
	nb := (fi.NumPages + 7) / 8
	buf := make([]byte, 2*len(pages)*nb)
	if _, err := io.ReadFull(crand.Reader, buf[:len(pages)*nb]); err != nil {
		return nil, nil, fmt.Errorf("fleet: drawing selector shares: %w", err)
	}
	mask := byte(0xFF)
	if rem := fi.NumPages % 8; rem != 0 {
		mask = byte(1<<rem) - 1
	}
	selsA = make([][]byte, len(pages))
	selsB = make([][]byte, len(pages))
	for i, p := range pages {
		if p < 0 || p >= fi.NumPages {
			return nil, nil, fmt.Errorf("fleet: page %d out of range of %q (%d pages)", p, fi.Name, fi.NumPages)
		}
		a := buf[i*nb : (i+1)*nb : (i+1)*nb]
		b := buf[(len(pages)+i)*nb : (len(pages)+i+1)*nb : (len(pages)+i+1)*nb]
		a[nb-1] &= mask
		copy(b, a)
		b[p/8] ^= 1 << (p % 8)
		selsA[i], selsB[i] = a, b
	}
	return selsA, selsB, nil
}

// xorInto XORs b into a page-wise, validating sizes.
func xorInto(a, b [][]byte, pageSize int) error {
	for i := range a {
		if len(a[i]) != pageSize || len(b[i]) != pageSize {
			return fmt.Errorf("fleet: share answer %d is %d/%d bytes, want %d", i, len(a[i]), len(b[i]), pageSize)
		}
		for j := range a[i] {
			a[i][j] ^= b[i][j]
		}
	}
	return nil
}

// ReadPages implements lbs.Backend. Paired queries split each page into
// two selector shares, fan them out to both replicas in parallel, and XOR
// the answers locally; each replica sees one uniform bitvector per page
// and performs one scan. Degraded queries send BOTH shares to the lone
// survivor in one deterministic batch (selsA then selsB) — the answer is
// still correct, but that replica now holds the same view as a
// single-server XOR PIR store.
func (q *Query) ReadPages(ctx context.Context, file string, pages []int) ([][]byte, error) {
	if q.err != nil {
		return nil, q.err
	}
	if len(pages) == 0 {
		return nil, nil
	}
	fi, err := q.FileInfo(file)
	if err != nil {
		return nil, err
	}
	selsA, selsB, err := splitShares(fi, pages)
	if err != nil {
		return nil, err
	}
	if q.degraded() {
		all := make([][]byte, 0, 2*len(pages))
		all = append(append(all, selsA...), selsB...)
		res, rerr := q.subs[0].q.ReadShares(ctx, file, all)
		if rerr != nil {
			return nil, q.f.reportError(q.subs[0].rep, rerr)
		}
		out := res[:len(pages)]
		if err := xorInto(out, res[len(pages):], fi.PageSize); err != nil {
			return nil, err
		}
		return out, nil
	}
	answers := make([][][]byte, 2)
	start := time.Now()
	ea, eb := q.both(func(s *sub) error {
		sels := selsA
		slot := 0
		if s == q.subs[1] {
			sels, slot = selsB, 1
		}
		res, err := s.q.ReadShares(ctx, file, sels)
		if err == nil {
			answers[slot] = res
		}
		return err
	})
	q.f.m.fanout.Observe(time.Since(start).Nanoseconds())
	if err := firstErr(ea, eb); err != nil {
		return nil, err
	}
	if err := xorInto(answers[0], answers[1], fi.PageSize); err != nil {
		return nil, err
	}
	return answers[0], nil
}

// End completes the query on every participating replica and returns the
// recorded adversary-visible trace. Paired queries require both replicas'
// traces byte-identical — they executed the same canonical plan, so any
// divergence means a replica misrecorded its own observation.
func (q *Query) End(ctx context.Context) (string, error) {
	if q.err != nil {
		return "", q.err
	}
	if q.degraded() {
		tr, err := q.subs[0].q.End(ctx)
		return tr, q.f.reportError(q.subs[0].rep, err)
	}
	traces := make([]string, 2)
	ea, eb := q.both(func(s *sub) error {
		slot := 0
		if s == q.subs[1] {
			slot = 1
		}
		tr, err := s.q.End(ctx)
		if err == nil {
			traces[slot] = tr
		}
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

// Cancel abandons the query on every participating replica with the given
// wire cancel reason. Replicas that record partial traces (context or
// deadline cancellations) each keep their prefix of the canonical trace.
func (q *Query) Cancel(reason uint8) {
	for _, s := range q.subs {
		s.q.Cancel(reason)
	}
}

// Err returns the start-time failure of a query that could not select any
// replica (every later call returns it too).
func (q *Query) Err() error { return q.err }

var (
	_ lbs.Backend = (*Query)(nil)
	_ lbs.Service = (*Query)(nil)
	_ error       = (*ReplicaDownError)(nil)
)
