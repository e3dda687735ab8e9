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

// ErrEntrySent reports a want for a (round, file) quota that has already
// gone out: a plan entry leaves in one frame, its wants and then its
// padding, so once a batch carried it nothing can be added to it. No scheme
// asks for an entry in two steps; like an overflow, the want is not sent and
// the session completes the canonical plan with padding first.
var ErrEntrySent = errors.New("plan entry already sent: a (round, file) quota goes out in one frame")

// Session is one query, and the one object that walks the public plan for
// it (§3.1: every query follows the same plan, "padding its requests with
// dummy page retrievals"). A scheme says what it needs — NextRound, Fetch,
// FetchRegions, Finish — and the session owns everything that follows from
// the plan: the round cursor, the per-(round, file) quotas, the padding, and
// every piece of per-query bookkeeping: the error latch, the Table 2
// charges, the client-compute clock, the per-file fetch counts and the
// adversary-visible transcript. What reaches the service is therefore a
// function of the plan alone, whatever a scheme asks for: each plan entry —
// one (round, file) quota — is one frame, holding the entry's wants (a
// look-up page, an index window, region clusters) in declaration order and
// then its padding, entries in plan order; a want the plan has no room for
// is never sent.
//
// A dependent frame waits; a round's declared wants and its padding go out
// together. The session queues round announcements and entry frames, and
// sends the queue as one batch (lbs.ReadFrames) only when a scheme needs a
// reply: Fetch waits for the entry it asks in, FetchRegions for a round's
// region clusters and the padding that closes their file's quota, and
// Finish sends the padded rest of the plan, every later round included, as
// one batch. An entry leaves in one batch: one that is part declared when a
// batch goes is padded to its quota and sent whole, and a later want for it
// fails with ErrEntrySent. The frames, their order and the charges are
// those of sending one frame at a time; only the waits between them are
// gone.
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

	round int  // plan round in progress; -1 until the first NextRound
	entry int  // cursor into that round's Fetches: the entries before it are full
	used  int  // pages of Fetches[entry] wanted so far
	open  bool // Fetches[entry] has the last frame of the queue
	shut  bool // Fetches[entry] went out whole with an earlier batch
	sent  int  // rounds announced to the service
	left  int  // plan frames not yet queued: round announcements and quotas
	ended bool // the end marker was queued

	err   error     // first backend or context error; every later call returns it
	stats lbs.Stats // the Table 2 charges and per-file fetch counts so far
	trace lbs.Transcript

	// Client compute is the query's wall clock since the header arrived,
	// less the time spent inside the backend (whose cost the stats simulate).
	start  time.Time
	inside time.Duration

	cg     *ClientGraph // the query's graph, once Graph borrowed it
	queue  []lbs.Frame  // frames declared and not yet sent, in plan order; Pages cut at send
	counts []int        // per queued frame, its page count
	pages  []int        // the queued frames' page numbers, back to back; padding asks for page 0
	wants  []wantSpan   // the queued wants, each a run of one frame's pages
	idx    []int        // one region's page numbers

	// observe, when a test asked for it through the context, is told each
	// time the session hands fetched pages to a decoder ("decode") and the
	// query's graph starts a search ("search").
	observe func(string)
}

// wantSpan is one want's pages inside its entry's frame: pages [from, from+n)
// of queued frame f.
type wantSpan struct{ f, from, n int }

// observeKey is the context key under which a test hands Open an observer.
type observeKey struct{}

// Open connects, downloads the header file straight from the LBS (no PIR —
// it is identical for every client, §5.3), charging one round trip and its
// transfer, and checks that the service hosts one of the named schemes.
func Open(ctx context.Context, svc lbs.Service, schemes ...Scheme) (*Session, error) {
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
		return nil, fmt.Errorf("%s: server hosts %q", strings.ToLower(string(schemes[0])), hdr.Scheme)
	}
	s := &Session{Hdr: hdr, ctx: conn.Ctx, backend: conn.Backend, model: conn.Backend.Model(), round: -1,
		left: hdr.Plan.Requests()}
	s.observe, _ = conn.Ctx.Value(observeKey{}).(func(string))
	s.stats.HeaderBytes = len(raw)
	s.stats.Comm = s.model.RTT + s.model.Transfer(len(raw))
	s.stats.Fetches = map[string]int{}
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

// Fetch retrieves pages of file, charged to the current round's quota for
// that file, and waits for them: everything queued before goes out in the
// same batch, and the quota's frame with it, padded to the quota. Quotas of
// files the plan lists earlier in the round are padded first, so the
// transcript keeps the plan's file order.
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
		s.cg = borrowClientGraph()
		s.cg.observe = s.observe
	}
	return s.cg
}

// FetchRegions retrieves one round's region clusters as one batch: the lead
// wants first (those the round holds in front of the clusters, such as an
// index window), then each region's pages in file's frame, then the padding
// that closes file's quota for the round. Only once all of it is sent does it
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
		if s.idx, err = s.Hdr.regionPages(r, s.idx); err != nil {
			return nil, nil, err
		}
		if at[len(lead)+i], err = s.want(file, s.idx); err != nil {
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
		return nil, fmt.Errorf("%s: transcript deviates from the plan\ngot:\n%swant:\n%s", strings.ToLower(string(s.Hdr.Scheme)), trace, want)
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
	return s.abort(ErrPlanOverflow, format, args...)
}

// abort ends a query with a want the session refuses to send: the rest of
// the plan goes out, then err, with the detail, is returned.
func (s *Session) abort(err error, format string, args ...any) error {
	if err := s.complete(); err != nil {
		return err
	}
	return fmt.Errorf("%s: %w (%s)", strings.ToLower(string(s.Hdr.Scheme)), err, fmt.Sprintf(format, args...))
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

// want queues pages of file into the frame of its quota in the round in
// progress, padding the quotas the plan lists before file's first, and
// returns the want's place among the queued wants (-1 for no pages: nothing
// to send). A want the round has no room for is not queued: the query
// overflows; nor is one for a quota an earlier batch already sent.
func (s *Session) want(file string, pages []int) (int, error) {
	fs := s.fetches()
	i, used := s.entry, s.used
	for i < len(fs) && fs[i].File != file {
		i, used = i+1, 0
	}
	if i == len(fs) || used+len(pages) > fs[i].Count {
		return -1, s.overflow("round %d has no room for %d more %s pages", s.round+1, len(pages), file)
	}
	if i == s.entry && s.shut && len(pages) > 0 {
		return -1, s.abort(ErrEntrySent, "round %d, %d more %s pages", s.round+1, len(pages), file)
	}
	s.padTo(i)
	if len(pages) == 0 {
		return -1, nil
	}
	s.openFrame()
	s.wants = append(s.wants, wantSpan{len(s.queue) - 1, s.counts[len(s.counts)-1], len(pages)})
	s.pages = append(s.pages, pages...)
	s.counts[len(s.counts)-1] += len(pages)
	s.used += len(pages)
	return len(s.wants) - 1, nil
}

// padTo closes the round's quotas before entry i — each padded to its count
// inside its frame — and moves the cursor there. Which pages padding asks
// for is arbitrary — the PIR layer hides them — so it asks for page 0.
func (s *Session) padTo(i int) {
	for fs := s.fetches(); s.entry < i; s.entry, s.used, s.open, s.shut = s.entry+1, 0, false, false {
		if !s.shut {
			s.pad(fs[s.entry].Count - s.used)
		}
	}
}

// pad appends n padding pages to the cursor entry's frame; used counts
// wants only.
func (s *Session) pad(n int) {
	if n <= 0 {
		return
	}
	s.openFrame()
	s.pages = append(s.pages, make([]int, n)...)
	s.counts[len(s.counts)-1] += n
}

// openFrame makes sure the cursor entry's frame ends the queue.
func (s *Session) openFrame() {
	if !s.open {
		s.queue = append(s.queue, lbs.Frame{File: s.fetches()[s.entry].File})
		s.counts = append(s.counts, 0)
		s.open = true
		s.left--
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
	s.round, s.entry, s.used, s.open, s.shut = s.round+1, 0, 0, false, false
	if s.err != nil {
		return s.err
	}
	if err := s.ctx.Err(); err != nil {
		return s.fail(err)
	}
	s.queue = append(s.queue, lbs.Frame{NewRound: true})
	s.counts = append(s.counts, 0)
	s.left--
	return nil
}

// send hands the queued frames to the service as one batch — the one path
// by which anything of the query reaches it — and charges them: one round
// trip per round announced, and per page one PIR retrieval against the
// file's length and one page transfer. The cursor entry, if it has a frame,
// is padded to its quota first and goes out whole. The batch that carries
// the plan's last frame ends with an end marker, so a remote service
// completes the query with it rather than with a round trip of its own; no
// charge is booked for it, since the Table 2 model already charges none for
// the end of a query. The service sees how many pages of which file each
// frame holds, never which. It returns each queued want's pages, in want
// order.
func (s *Session) send() ([][][]byte, error) {
	if s.open {
		s.pad(s.fetches()[s.entry].Count - s.used)
		s.open, s.shut = false, true
	}
	if s.left == 0 && !s.ended && len(s.queue) > 0 {
		s.queue = append(s.queue, lbs.Frame{End: true})
		s.counts = append(s.counts, 0)
		s.ended = true
	}
	frames, wants := s.queue, s.wants
	for i, at := 0, 0; i < len(frames); i++ {
		n := s.counts[i]
		if !frames[i].NewRound && !frames[i].End {
			frames[i].Pages = s.pages[at : at+n : at+n]
		}
		at += n
	}
	s.queue, s.counts, s.pages, s.wants = s.queue[:0], s.counts[:0], s.pages[:0], s.wants[:0]
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
		err = fmt.Errorf("%s: batch of %d frames got %d replies", strings.ToLower(string(s.Hdr.Scheme)), len(frames), len(data))
	}
	if err != nil {
		return nil, s.fail(err)
	}
	for i, f := range frames {
		if f.End {
			continue
		}
		if f.NewRound {
			s.sent++
			s.stats.Comm += s.model.RTT
			s.trace.Round(s.sent)
			continue
		}
		info, err := s.backend.FileInfo(f.File)
		if err == nil && len(data[i]) != len(f.Pages) {
			err = fmt.Errorf("%s: fetch %s: got %d pages, want %d", strings.ToLower(string(s.Hdr.Scheme)), f.File, len(data[i]), len(f.Pages))
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
	out := make([][][]byte, len(wants))
	for i, w := range wants {
		out[i] = data[w.f][w.from : w.from+w.n : w.from+w.n]
	}
	return out, nil
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
