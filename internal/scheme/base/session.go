package base

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/kdtree"
	"repro/internal/lbs"
	"repro/internal/plan"
)

// ErrPlanOverflow reports a query whose wants exceed the public plan: a
// retrieval past its round's quota, or a round past the plan's last. LM and
// AF derive their plans from a sampled workload, so a rare endpoint pair
// overflows; the exact schemes overflow only on a corrupt index. The service
// cannot tell: the session sends nothing of the excess and completes the
// canonical plan with padding before it returns the error.
var ErrPlanOverflow = errors.New("plan budget exhausted: the query needs more retrievals than the public plan allows")

// Session is one query, and the one object that walks the public plan for
// it (§3.1: every query follows the same plan, "padding its requests with
// dummy page retrievals"). A scheme says what it needs — NextRound, one
// Fetch per record, Finish — and the session owns everything that follows
// from the plan: the round cursor, the per-(round, file) quotas, the
// padding, and every piece of per-query bookkeeping: the error latch, the
// Table 2 charges, the client-compute clock, the per-file fetch counts and
// the adversary-visible transcript. What reaches the service is therefore a
// function of the plan alone, whatever a scheme asks for: each Fetch is one
// frame (a look-up page, an index window, a region cluster), padding goes
// out in frames of Hdr.ClusterPages pages (the shape of a region fetch), in
// plan file order, and a want the plan has no room for is never sent.
//
// Cancellation is honored at round boundaries only: the context is checked
// before each round is announced, so a query cancelled mid-round finishes
// the round it is in and stops before the next one. The service therefore
// observes either k complete rounds or a round whose in-flight fetch it
// refused itself — in both cases a prefix of the one full-query transcript,
// so a cancelled query leaks nothing beyond its (data-independent) abort
// time (Theorem 1 is preserved).
type Session struct {
	// Hdr is the decoded header file: the plan and the scheme parameters.
	Hdr *Header

	ctx     context.Context
	backend lbs.Backend
	model   costmodel.Params

	round int // plan round in progress; -1 until the first NextRound
	entry int // cursor into that round's Fetches: the entries before it are full
	used  int // pages of Fetches[entry] retrieved so far

	err   error     // first backend or context error; every later call returns it
	stats lbs.Stats // the Table 2 charges and per-file fetch counts so far
	trace lbs.Transcript

	// Client compute is the query's wall clock since the header arrived,
	// less the time spent inside the backend (whose cost the stats simulate).
	start  time.Time
	inside time.Duration

	cg  *ClientGraph // the query's graph, once Graph borrowed it
	idx []int        // FetchRegion's page numbers, reused
	pad []int        // padding's page numbers: all zero, never written, reused
}

// Open connects, downloads the header file straight from the LBS (no PIR —
// it is identical for every client, §5.3), charging one round trip and its
// transfer, and checks that the service hosts one of the named schemes.
func Open(ctx context.Context, svc lbs.Service, schemes ...string) (*Session, error) {
	conn := svc.Connect(ctx)
	if err := conn.Ctx.Err(); err != nil {
		return nil, err
	}
	raw, err := conn.Backend.HeaderBytes(conn.Ctx)
	if err != nil {
		return nil, err
	}
	hdr, err := DecodeHeader(raw)
	if err != nil {
		return nil, err
	}
	if !slices.Contains(schemes, hdr.Scheme) {
		return nil, fmt.Errorf("%s: server hosts %q", strings.ToLower(schemes[0]), hdr.Scheme)
	}
	s := &Session{Hdr: hdr, ctx: conn.Ctx, backend: conn.Backend, model: conn.Backend.Model(), round: -1}
	s.stats.HeaderBytes = len(raw)
	s.stats.Comm = s.model.RTT + s.model.Transfer(len(raw))
	s.stats.Fetches = map[string]int{}
	s.trace.Header()
	s.start = time.Now()
	return s, nil
}

// NextRound pads what the round in progress left unused and begins the
// plan's next round. This is where a cancelled context stops the query.
func (s *Session) NextRound() error {
	if s.round+1 >= len(s.Hdr.Plan.Rounds) {
		return s.overflow("no round follows round %d", s.round+1)
	}
	if err := s.padTo(len(s.fetches())); err != nil {
		return err
	}
	return s.beginRound()
}

// Fetch retrieves pages of file as one frame, charged to the current round's
// quota for that file. Quotas of files the plan lists earlier in the round
// are padded first, so the transcript keeps the plan's file order.
func (s *Session) Fetch(file string, pages []int) ([][]byte, error) {
	fs := s.fetches()
	i, used := s.entry, s.used
	for i < len(fs) && fs[i].File != file {
		i, used = i+1, 0
	}
	if i == len(fs) || used+len(pages) > fs[i].Count {
		return nil, s.overflow("round %d has no room for %d more %s pages", s.round+1, len(pages), file)
	}
	if err := s.padTo(i); err != nil {
		return nil, err
	}
	return s.read(file, pages)
}

// Graph returns the query's client graph: borrowed from a pool on first
// use, returned there by Finish.
func (s *Session) Graph() *ClientGraph {
	if s.cg == nil {
		s.cg = borrowClientGraph(s.Hdr.Directed)
	}
	return s.cg
}

// FetchRegion retrieves region r's cluster from file as one frame, decodes
// its records straight into the query's graph (layout per the header) and
// returns their ids, in page order: the candidates Nearest snaps an endpoint
// among.
func (s *Session) FetchRegion(file string, r kdtree.RegionID) ([]graph.NodeID, error) {
	idx, err := s.Hdr.regionPages(r, s.idx)
	if err != nil {
		return nil, err
	}
	s.idx = idx
	pages, err := s.Fetch(file, idx)
	if err != nil {
		return nil, err
	}
	return s.Graph().addRegion(s.Hdr, pages)
}

// Finish returns the query's graph to the pool, pads the rest of the plan,
// books the client time and returns the query's result; path is dropped when
// cost says t was unreachable.
func (s *Session) Finish(cost float64, path []graph.NodeID, sNode, tNode graph.NodeID) (*Result, error) {
	if s.cg != nil {
		s.cg.release()
		s.cg = nil
	}
	if err := s.complete(); err != nil {
		return nil, err
	}
	s.stats.Client = time.Since(s.start) - s.inside
	s.stats.Rounds = s.round + 1
	// The privacy tests run every query through this check: same rounds,
	// same files in the same order, same per-file counts as the plan.
	trace := s.trace.String()
	if want := lbs.CanonicalTrace(s.Hdr.Plan); trace != want {
		return nil, fmt.Errorf("%s: transcript deviates from the plan\ngot:\n%swant:\n%s", strings.ToLower(s.Hdr.Scheme), trace, want)
	}
	res := &Result{
		Cost:          cost,
		SnappedSource: sNode,
		SnappedDest:   tNode,
		Stats:         s.stats,
		Trace:         trace,
	}
	if !math.IsInf(cost, 1) {
		res.Path = path
	}
	return res, nil
}

// overflow ends a query the plan cannot serve like any other: the excess is
// not sent, the rest of the plan is.
func (s *Session) overflow(format string, args ...any) error {
	if err := s.complete(); err != nil {
		return err
	}
	return fmt.Errorf("%s: %w (%s)", strings.ToLower(s.Hdr.Scheme), ErrPlanOverflow, fmt.Sprintf(format, args...))
}

// complete pads the round in progress and every round after it.
func (s *Session) complete() error {
	for {
		if err := s.padTo(len(s.fetches())); err != nil {
			return err
		}
		if s.round+1 >= len(s.Hdr.Plan.Rounds) {
			return nil
		}
		if err := s.beginRound(); err != nil {
			return err
		}
	}
}

// padTo fills the round's quotas before entry i with padding retrievals and
// moves the cursor there. Which pages padding asks for is arbitrary — the PIR
// layer hides them — so it asks for page 0, every frame from the one zeroed
// slice (a backend reads the page list, never writes it).
func (s *Session) padTo(i int) error {
	for fs := s.fetches(); s.entry < i; s.entry, s.used = s.entry+1, 0 {
		for f := fs[s.entry]; s.used < f.Count; {
			frame := min(max(s.Hdr.ClusterPages, 1), f.Count-s.used)
			if cap(s.pad) < frame {
				s.pad = make([]int, frame)
			}
			if _, err := s.read(f.File, s.pad[:frame]); err != nil {
				return err
			}
		}
	}
	return nil
}

// fetches is the quota list of the round in progress.
func (s *Session) fetches() []plan.Fetch {
	if s.round < 0 {
		return nil
	}
	return s.Hdr.Plan.Rounds[s.round].Fetches
}

// beginRound moves the cursor to the plan's next round and announces it to
// the service, charging one round trip. This is the round boundary where
// cancellation takes effect: a dead context stops the query before the
// round is announced, so the service-visible transcript ends after a
// complete round.
func (s *Session) beginRound() error {
	s.round, s.entry, s.used = s.round+1, 0, 0
	if s.err != nil {
		return s.err
	}
	if err := s.ctx.Err(); err != nil {
		return s.fail(err)
	}
	t0 := time.Now()
	err := s.backend.NextRound(s.ctx)
	s.inside += time.Since(t0)
	if err != nil {
		return s.fail(err)
	}
	s.stats.Comm += s.model.RTT
	s.trace.Round(s.round + 1)
	return nil
}

// read sends one frame — the service sees how many pages of file it holds,
// never which — and charges it to the entry under the cursor: per page one
// PIR retrieval against the file's length and one page transfer.
func (s *Session) read(file string, pages []int) ([][]byte, error) {
	s.used += len(pages)
	if s.err != nil {
		return nil, s.err
	}
	t0 := time.Now()
	info, err := s.backend.FileInfo(file)
	var data [][]byte
	if err == nil {
		data, err = s.backend.ReadPages(s.ctx, file, pages)
	}
	s.inside += time.Since(t0)
	if err == nil && len(data) != len(pages) {
		err = fmt.Errorf("%s: fetch %s: got %d pages, want %d", strings.ToLower(s.Hdr.Scheme), file, len(data), len(pages))
	}
	if err != nil {
		return nil, s.fail(err)
	}
	if n := len(pages); n > 0 {
		s.stats.PIR += time.Duration(n) * s.model.PIRFetch(info.NumPages)
		s.stats.Comm += time.Duration(n) * s.model.Transfer(info.PageSize)
		s.stats.Fetches[file] += n
		s.trace.Fetch(file, n)
	}
	return data, nil
}

// fail latches the query's first error.
func (s *Session) fail(err error) error {
	s.err = err
	return err
}
