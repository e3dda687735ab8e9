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

// Session is one query, and the one object that holds it to the public
// plan (§3.1: every query follows the same plan, "padding its requests
// with dummy page retrievals"). Open lays the plan out once as the frames a
// conforming query sends — per round its announcement and one read per
// (round, file) quota, each quota's pages zero slots, then the end marker —
// and the query is that schedule filled in: a scheme says what it needs —
// NextRound, Fetch, FetchRegions, Finish — and each want copies its pages
// into the next free slots of its quota, in declaration order. A slot no
// want fills asks for page 0, which is padding: the PIR layer hides which
// page a read asks for. The session also keeps every piece of per-query
// bookkeeping: the error latch, the Table 2 charges, the client-compute
// clock, the per-file fetch counts and the adversary-visible transcript.
// What reaches the service is therefore a function of the plan alone,
// whatever a scheme asks for; a want the plan has no room for is never
// sent.
//
// A dependent frame waits; everything before it goes out with it. The
// session sends the schedule from its first unsent frame up to the quota of
// the want a scheme waits on, as one batch (lbs.ReadFrames), only when a
// reply is needed: Fetch waits for the quota it asks in, FetchRegions for a
// round's region clusters, and Finish sends the rest of the schedule, every
// later round included, as one batch. A quota leaves in one batch, padding
// and all, so a later want for it fails with ErrEntrySent. The frames,
// their order and the charges are those of sending one frame at a time;
// only the waits between them are gone.
//
// Cancellation is honored at round boundaries and before each batch: the
// context is checked before a round begins and before anything is sent, so
// a query cancelled mid-round stops before its next batch. The service
// therefore observes either complete rounds or a round whose in-flight
// batch it refused itself — in both cases a prefix of the one full-query
// transcript, so a cancelled query leaks nothing beyond its
// (data-independent) abort time (Theorem 1 is preserved).
type Session struct {
	// Hdr is the decoded header file: the plan and the scheme parameters.
	Hdr *Header

	ctx     context.Context
	backend lbs.Backend
	model   costmodel.Params

	frames []lbs.Frame // the plan laid out: what a conforming query sends
	at     int         // the frame reached: a round's announcement or the quota last wanted; -1 before the first round
	used   int         // slots of frames[at] filled by wants
	next   int         // the first frame not yet sent
	round  int         // the plan round of frames[at]; -1 before the first
	sent   int         // rounds announced to the service

	err   error     // first backend or context error; every later call returns it
	stats lbs.Stats // the Table 2 charges and per-file fetch counts so far
	trace lbs.Transcript

	// Client compute is the query's wall clock since the header arrived,
	// less the time spent inside the backend (whose cost the stats simulate).
	start  time.Time
	inside time.Duration

	cg    *ClientGraph // the query's graph, once Graph borrowed it
	wants []wantSpan   // the wants not yet sent, each a run of one frame's slots
	idx   []int        // one region's page numbers

	// observe, when a test asked for it through the context, is told each
	// time the session hands fetched pages to a decoder ("decode") and the
	// query's graph starts a search ("search").
	observe func(string)
}

// wantSpan is one want's pages inside its quota's frame: slots
// [from, from+n) of frames[f].
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
	s := &Session{Hdr: hdr, ctx: conn.Ctx, backend: conn.Backend, model: conn.Backend.Model(),
		frames: layout(hdr.Plan), at: -1, round: -1}
	s.observe, _ = conn.Ctx.Value(observeKey{}).(func(string))
	s.stats.HeaderBytes = len(raw)
	s.stats.Comm = s.model.RTT + s.model.Transfer(len(raw))
	s.stats.Fetches = map[string]int{}
	s.start = time.Now()
	return s, nil
}

// layout returns the frames a conforming query sends for p: per round its
// announcement and then one read per quota, in plan order, its Count slots
// cut from one run of zeros; then the end marker.
func layout(p plan.Plan) []lbs.Frame {
	frames := make([]lbs.Frame, 0, p.Requests()+1)
	slots := make([]int, p.TotalPIRAccesses())
	for _, r := range p.Rounds {
		frames = append(frames, lbs.Frame{NewRound: true})
		for _, f := range r.Fetches {
			frames = append(frames, lbs.Frame{File: f.File, Pages: slots[:f.Count:f.Count]})
			slots = slots[f.Count:]
		}
	}
	return append(frames, lbs.Frame{End: true})
}

// NextRound begins the plan's next round, leaving what the round in
// progress did not fill as padding; both go out with the next batch. This
// is the round boundary where a cancelled context stops the query, before
// the round is announced, so the service-visible transcript ends after a
// complete round.
func (s *Session) NextRound() error {
	i := s.at + 1
	for i < len(s.frames) && !s.frames[i].NewRound {
		i++
	}
	if i == len(s.frames) {
		return s.overflow("no round follows round %d", s.round+1)
	}
	if s.err != nil {
		return s.err
	}
	if err := s.ctx.Err(); err != nil {
		return s.fail(err)
	}
	s.at, s.used, s.round = i, 0, s.round+1
	return nil
}

// Fetch retrieves pages of file, charged to the current round's quota for
// that file, and waits for them: the quota's frame goes out whole, padding
// and all, in one batch with every unsent frame before it — quotas of files
// the plan lists earlier in the round included, so the transcript keeps the
// plan's file order.
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
// index window), then each region's pages in file's frame, which goes out
// whole, padding and all. Only once all of it is sent does it
// decode anything: it returns the lead frames' pages, and per region the ids
// of its records, in page order — the candidates Nearest snaps an endpoint
// among — decoded straight into the query's graph (layout per the header).
// A region the header has no pages for ends the query as a refused want
// does, the rest of the plan sent, and its error is latched: every later
// call returns it.
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
			return nil, nil, s.fail(s.abort(err, "round %d", s.round+1))
		}
		if at[len(lead)+i], err = s.want(file, s.idx); err != nil {
			return nil, nil, err
		}
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

// Finish returns the query's graph to graphList, sends the rest of the
// schedule, books the client time and returns the query's result; path is
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

// complete moves the query to the end marker and sends the rest of the
// schedule, with whatever was wanted before, as one batch.
func (s *Session) complete() error {
	s.at, s.used, s.round = len(s.frames)-1, 0, len(s.Hdr.Plan.Rounds)-1
	_, err := s.send()
	return err
}

// want copies pages of file into the next free slots of its quota in the
// round in progress, passing over the quotas the plan lists before file's,
// and returns the want's place among the unsent wants (-1 for no pages:
// nothing to send). A want the round has no room for is not copied: the
// query overflows; nor is one for a quota an earlier batch already sent.
func (s *Session) want(file string, pages []int) (int, error) {
	i, used := s.at, s.used
	// The round's quotas are the frames with slots after its announcement.
	for i >= 0 && s.frames[i].File != file && i+1 < len(s.frames) && s.frames[i+1].Pages != nil {
		i, used = i+1, 0
	}
	if i < 0 || s.frames[i].File != file || used+len(pages) > len(s.frames[i].Pages) {
		return -1, s.overflow("round %d has no room for %d more %s pages", s.round+1, len(pages), file)
	}
	if i < s.next && len(pages) > 0 {
		return -1, s.abort(ErrEntrySent, "round %d, %d more %s pages", s.round+1, len(pages), file)
	}
	s.at, s.used = i, used
	if len(pages) == 0 {
		return -1, nil
	}
	copy(s.frames[i].Pages[used:], pages)
	s.wants = append(s.wants, wantSpan{i, used, len(pages)})
	s.used += len(pages)
	return len(s.wants) - 1, nil
}

// send hands the unsent frames up to the one reached, that frame whole, to
// the service as one batch — the one path by which anything of the query
// reaches it — and charges them: one round trip per round announced, and
// per page one PIR retrieval against the file's length and one page
// transfer. The batch that carries the plan's last quota ends with the end
// marker, so a remote service completes the query with it rather than with
// a round trip of its own; no charge is booked for it, since the Table 2
// model already charges none for the end of a query. The service sees how
// many pages of which file each frame holds, never which. It returns each
// unsent want's pages, in want order.
func (s *Session) send() ([][][]byte, error) {
	first, end := s.next, s.at+1
	if end == len(s.frames)-1 {
		end++ // only the end marker is left: it rides this batch
	}
	frames, wants := s.frames[first:end], s.wants
	s.next, s.wants = end, s.wants[:0]
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
		out[i] = data[w.f-first][w.from : w.from+w.n : w.from+w.n]
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
