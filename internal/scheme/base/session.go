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
// dummy page retrievals"). A scheme says what it needs — NextRound, Fetch,
// FetchRegions, Finish — and the session owns everything that follows from
// the plan: the round cursor, the per-(round, file) quotas, the padding, and
// every piece of per-query bookkeeping: the error latch, the Table 2
// charges, the client-compute clock, the per-file fetch counts and the
// adversary-visible transcript. What reaches the service is therefore a
// function of the plan alone, whatever a scheme asks for: each want is one
// frame (a look-up page, an index window, a region cluster), padding goes
// out in frames of Hdr.ClusterPages pages (the shape of a region fetch), in
// plan file order, and a want the plan has no room for is never sent.
//
// A dependent frame waits; a round's declared frames and its padding go out
// together. The session queues round announcements, padding and wants, and
// sends the queue as one batch (lbs.ReadFrames) only when a scheme needs a
// reply: Fetch waits for the one frame it asks for, FetchRegions for a
// round's region clusters and the padding that closes their file's quota,
// and Finish sends the padded rest of the plan, every later round included,
// as one batch. The frames, their order and the charges are those of
// sending one frame at a time; only the waits between them are gone.
//
// Cancellation is honored at round boundaries and before each batch: the
// context is checked before a round is announced and before anything is
// sent, so a query cancelled mid-round stops before its next batch. The
// service therefore observes either complete rounds or a round whose
// in-flight batch it refused itself — in both cases a prefix of the one
// full-query transcript, so a cancelled query leaks nothing beyond its
// (data-independent) abort time (Theorem 1 is preserved).
type Session struct {
	// Hdr is the decoded header file: the plan and the scheme parameters.
	Hdr *Header

	ctx     context.Context
	backend lbs.Backend
	model   costmodel.Params

	round int // plan round in progress; -1 until the first NextRound
	entry int // cursor into that round's Fetches: the entries before it are full
	used  int // pages of Fetches[entry] declared so far
	sent  int // rounds announced to the service

	err   error     // first backend or context error; every later call returns it
	stats lbs.Stats // the Table 2 charges and per-file fetch counts so far
	trace lbs.Transcript

	// Client compute is the query's wall clock since the header arrived,
	// less the time spent inside the backend (whose cost the stats simulate).
	start  time.Time
	inside time.Duration

	cg    *ClientGraph // the query's graph, once Graph borrowed it
	queue []lbs.Frame  // frames declared and not yet sent, in plan order
	idx   []int        // page numbers of the queued region frames
	pad   []int        // padding's page numbers: all zero, never written, reused

	// observe, when a test asked for it through the context, is told each
	// time the session hands fetched pages to a decoder ("decode") and the
	// query's graph starts a search ("search").
	observe func(string)
}

// observeKey is the context key under which a test hands Open an observer.
type observeKey struct{}

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
	s.observe, _ = conn.Ctx.Value(observeKey{}).(func(string))
	s.stats.HeaderBytes = len(raw)
	s.stats.Comm = s.model.RTT + s.model.Transfer(len(raw))
	s.stats.Fetches = map[string]int{}
	s.trace.Header()
	s.start = time.Now()
	return s, nil
}

// NextRound pads what the round in progress left unused and begins the
// plan's next round; both go out with the next batch. This is where a
// cancelled context stops the query.
func (s *Session) NextRound() error {
	if s.round+1 >= len(s.Hdr.Plan.Rounds) {
		return s.overflow("no round follows round %d", s.round+1)
	}
	s.padTo(len(s.fetches()))
	return s.beginRound()
}

// Fetch retrieves pages of file as one frame, charged to the current round's
// quota for that file, and waits for it: everything queued before it goes
// out in the same batch. Quotas of files the plan lists earlier in the round
// are padded first, so the transcript keeps the plan's file order.
func (s *Session) Fetch(file string, pages []int) ([][]byte, error) {
	at, err := s.want(file, pages)
	if err != nil {
		return nil, err
	}
	data, err := s.send()
	if err != nil || at < 0 {
		return nil, err
	}
	s.decoding()
	return data[at], nil
}

// Graph returns the query's client graph: borrowed from a pool on first
// use, returned there by Finish.
func (s *Session) Graph() *ClientGraph {
	if s.cg == nil {
		s.cg = borrowClientGraph(s.Hdr.Directed)
		s.cg.observe = s.observe
	}
	return s.cg
}

// FetchRegions retrieves one round's region clusters as one batch: the lead
// frames first (wants the round holds in front of the clusters, such as an
// index window), then one frame per region of file, then the padding that
// closes file's quota for the round. Only once all of it is sent does it
// decode anything: it returns the lead frames' pages, and per region the ids
// of its records, in page order — the candidates Nearest snaps an endpoint
// among — decoded straight into the query's graph (layout per the header).
func (s *Session) FetchRegions(file string, regions []kdtree.RegionID, lead ...lbs.Frame) ([][][]byte, [][]graph.NodeID, error) {
	at := make([]int, len(lead)+len(regions))
	var err error
	for i, f := range lead {
		if at[i], err = s.want(f.File, f.Pages); err != nil {
			return nil, nil, err
		}
	}
	for i, r := range regions {
		n := len(s.idx)
		s.idx = slices.Grow(s.idx, s.Hdr.ClusterPages)
		pages, err := s.Hdr.regionPages(r, s.idx[n:n])
		if err != nil {
			return nil, nil, err
		}
		s.idx = s.idx[:n+len(pages)]
		if at[len(lead)+i], err = s.want(file, pages); err != nil {
			return nil, nil, err
		}
	}
	if len(regions) > 0 {
		s.padTo(s.entry + 1)
	}
	data, err := s.send()
	if err != nil {
		return nil, nil, err
	}
	s.decoding()
	pages := make([][][]byte, len(at)) // nil for a want of no pages
	for i, j := range at {
		if j >= 0 {
			pages[i] = data[j]
		}
	}
	nodes := make([][]graph.NodeID, len(regions))
	for i, cluster := range pages[len(lead):] {
		if nodes[i], err = s.Graph().addRegion(s.Hdr, cluster); err != nil {
			return nil, nil, err
		}
	}
	return pages[:len(lead)], nodes, nil
}

// Finish returns the query's graph to the pool, sends the padded rest of the
// plan, books the client time and returns the query's result; path is
// dropped when cost says t was unreachable.
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

// complete pads the round in progress and every round after it, and sends
// all of it, with whatever was queued before, as one batch.
func (s *Session) complete() error {
	for {
		s.padTo(len(s.fetches()))
		if s.round+1 >= len(s.Hdr.Plan.Rounds) {
			break
		}
		if err := s.beginRound(); err != nil {
			return err
		}
	}
	_, err := s.send()
	return err
}

// want queues pages of file as one frame of the round in progress, padding
// the quotas the plan lists before file's first, and returns the frame's
// place in the queue (-1 for no pages: nothing to send). A want the round
// has no room for is not queued: the query overflows.
func (s *Session) want(file string, pages []int) (int, error) {
	fs := s.fetches()
	i, used := s.entry, s.used
	for i < len(fs) && fs[i].File != file {
		i, used = i+1, 0
	}
	if i == len(fs) || used+len(pages) > fs[i].Count {
		return -1, s.overflow("round %d has no room for %d more %s pages", s.round+1, len(pages), file)
	}
	s.padTo(i)
	if len(pages) == 0 {
		return -1, nil
	}
	s.used += len(pages)
	s.queue = append(s.queue, lbs.Frame{File: file, Pages: pages})
	return len(s.queue) - 1, nil
}

// padTo fills the round's quotas before entry i with padding frames and
// moves the cursor there. Which pages padding asks for is arbitrary — the
// PIR layer hides them — so it asks for page 0, every frame from the one
// zeroed slice (a backend reads the page list, never writes it).
func (s *Session) padTo(i int) {
	for fs := s.fetches(); s.entry < i; s.entry, s.used = s.entry+1, 0 {
		for f := fs[s.entry]; s.used < f.Count; {
			n := min(max(s.Hdr.ClusterPages, 1), f.Count-s.used)
			if cap(s.pad) < n {
				s.pad = make([]int, n)
			}
			s.queue = append(s.queue, lbs.Frame{File: f.File, Pages: s.pad[:n]})
			s.used += n
		}
	}
}

// fetches is the quota list of the round in progress.
func (s *Session) fetches() []plan.Fetch {
	if s.round < 0 {
		return nil
	}
	return s.Hdr.Plan.Rounds[s.round].Fetches
}

// beginRound moves the cursor to the plan's next round and queues its
// announcement. This is the round boundary where cancellation takes effect:
// a dead context stops the query before the round is announced, so the
// service-visible transcript ends after a complete round.
func (s *Session) beginRound() error {
	s.round, s.entry, s.used = s.round+1, 0, 0
	if s.err != nil {
		return s.err
	}
	if err := s.ctx.Err(); err != nil {
		return s.fail(err)
	}
	s.queue = append(s.queue, lbs.Frame{NewRound: true})
	return nil
}

// send hands the queued frames to the service as one batch — the one path
// by which anything of the query reaches it — and charges them: one round
// trip per round announced, and per page one PIR retrieval against the
// file's length and one page transfer. The service sees how many pages of
// which file each frame holds, never which. It returns one entry per frame.
func (s *Session) send() ([][][]byte, error) {
	frames := s.queue
	s.queue, s.idx = s.queue[:0], s.idx[:0]
	if s.err != nil {
		return nil, s.err
	}
	if len(frames) == 0 {
		return nil, nil
	}
	if err := s.ctx.Err(); err != nil {
		return nil, s.fail(err)
	}
	t0 := time.Now()
	data, err := lbs.ReadFrames(s.ctx, s.backend, frames)
	s.inside += time.Since(t0)
	if err == nil && len(data) != len(frames) {
		err = fmt.Errorf("%s: batch of %d frames got %d replies", strings.ToLower(s.Hdr.Scheme), len(frames), len(data))
	}
	if err != nil {
		return nil, s.fail(err)
	}
	for i, f := range frames {
		if f.NewRound {
			s.sent++
			s.stats.Comm += s.model.RTT
			s.trace.Round(s.sent)
			continue
		}
		info, err := s.backend.FileInfo(f.File)
		if err == nil && len(data[i]) != len(f.Pages) {
			err = fmt.Errorf("%s: fetch %s: got %d pages, want %d", strings.ToLower(s.Hdr.Scheme), f.File, len(data[i]), len(f.Pages))
		}
		if err != nil {
			return nil, s.fail(err)
		}
		n := len(f.Pages)
		s.stats.PIR += time.Duration(n) * s.model.PIRFetch(info.NumPages)
		s.stats.Comm += time.Duration(n) * s.model.Transfer(info.PageSize)
		s.stats.Fetches[f.File] += n
		s.trace.Fetch(f.File, n)
	}
	return data, nil
}

// decoding tells a test's observer that fetched pages go to a decoder.
func (s *Session) decoding() {
	if s.observe != nil {
		s.observe("decode")
	}
}

// fail latches the query's first error.
func (s *Session) fail(err error) error {
	s.err = err
	return err
}
