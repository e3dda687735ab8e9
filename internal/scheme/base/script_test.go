package base

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/kdtree"
	"repro/internal/lbs"
)

// scriptFiles are the files a session script names, indexed by a script
// byte.
var scriptFiles = [...]string{FileLookup, FileIndex, FileData}

// scriptRun is what a session script did: the pages of the wants that
// returned no error, the wants of the first call that returned one, in
// declaration order (a prefix of them may have gone out before the want
// that failed), and how the query ended.
type scriptRun struct {
	wanted  []sentFrame
	failed  []sentFrame
	ops     []string
	aborted bool // a want was refused (ErrPlanOverflow, ErrEntrySent), or a region out of range
	done    bool // Finish returned a result
}

// runScript decodes script into session calls and makes them, one op per
// byte followed by the op's operands:
//
//	0: NextRound
//	1: Fetch of n = c/3%5 pages of file c%3, each page 1 + b%7
//	2: FetchRegions(Fd, c%3 regions, c/3%2 lead wants): a lead want of
//	   n = d/3%3 pages of file d%3, each 1 + b%7; each region b%3
//	3: Finish, which ends the script
//	4: cancel the query's context
//	5: FetchRegions(Fd, region 3 + c%2), a region the header has none of
//
// It fails the test on an error that is neither a refused want nor the
// query's first (latched) error, and on a reply whose pages are not the
// ones wanted. A region out of range is latched.
func runScript(t *testing.T, ses *Session, cancel func(), script []byte) scriptRun {
	t.Helper()
	take := func() int {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return int(b)
	}
	pages := func(n int) []int {
		p := make([]int, n)
		for i := range p {
			p[i] = 1 + take()%7
		}
		return p
	}
	var run scriptRun
	var latched error
	for len(script) > 0 && len(run.ops) < 32 && !run.done {
		var wants []sentFrame
		var err error
		switch take() % 6 {
		case 0:
			run.ops = append(run.ops, "NextRound")
			err = ses.NextRound()
		case 1:
			c := take()
			w := sentFrame{scriptFiles[c%3], pages(c / 3 % 5)}
			wants = []sentFrame{w}
			run.ops = append(run.ops, fmt.Sprintf("Fetch(%s, %v)", w.file, w.pages))
			var got [][]byte
			if got, err = ses.Fetch(w.file, w.pages); err == nil {
				checkReply(t, run.ops, w, got)
			}
		case 2:
			c := take()
			var lead []lbs.Frame
			if c/3%2 == 1 {
				d := take()
				lead = append(lead, lbs.Frame{File: scriptFiles[d%3], Pages: pages(d / 3 % 3)})
				wants = append(wants, sentFrame{lead[0].File, lead[0].Pages})
			}
			regions := make([]kdtree.RegionID, c%3)
			for i := range regions {
				regions[i] = kdtree.RegionID(take() % 3)
				idx, err := ses.Hdr.regionPages(regions[i], nil)
				mustDo(t, err)
				wants = append(wants, sentFrame{FileData, idx})
			}
			run.ops = append(run.ops, fmt.Sprintf("FetchRegions(Fd, %v, %v)", regions, lead))
			var got [][][]byte
			var nodes [][]graph.NodeID
			if got, nodes, err = ses.FetchRegions(FileData, regions, lead...); err == nil {
				if len(got) != len(lead) || len(nodes) != len(regions) {
					t.Fatalf("%v: %d lead replies and %d regions", run.ops, len(got), len(nodes))
				}
				for i, f := range lead {
					checkReply(t, run.ops, sentFrame{f.File, f.Pages}, got[i])
				}
			}
		case 3:
			run.ops = append(run.ops, "Finish")
			var res *Result
			if res, err = ses.Finish(1, nil, 0, 0); err == nil {
				run.done = true
				if res.Trace != lbs.CanonicalTrace(ses.Hdr.Plan) {
					t.Fatalf("%v: trace deviates from the plan:\n%s", run.ops, res.Trace)
				}
			}
		case 4:
			run.ops = append(run.ops, "cancel")
			cancel()
		case 5:
			r := kdtree.RegionID(3 + take()%2)
			run.ops = append(run.ops, fmt.Sprintf("FetchRegions(Fd, [%d])", r))
			if _, _, err = ses.FetchRegions(FileData, []kdtree.RegionID{r}); err == nil {
				t.Fatalf("%v: region %d of %d served", run.ops, r, len(ses.Hdr.RegionFirstPage))
			}
		}
		switch {
		case err == nil:
			run.wanted = append(run.wanted, wants...)
			continue
		case latched != nil:
			if err != latched {
				t.Fatalf("%v: after the latched %v, got %v", run.ops, latched, err)
			}
		case errors.Is(err, ErrPlanOverflow), errors.Is(err, ErrEntrySent):
			run.aborted = true
		case errors.Is(err, context.Canceled):
			latched = err
		case strings.Contains(err.Error(), "out of range"):
			latched, run.aborted = err, true
		default:
			t.Fatalf("%v: unexpected error %v", run.ops, err)
		}
		if run.failed == nil {
			run.failed = append([]sentFrame{}, wants...)
		}
	}
	return run
}

// checkReply fails the test unless got holds want's pages: the fixture's
// page i starts with byte i.
func checkReply(t *testing.T, ops []string, want sentFrame, got [][]byte) {
	t.Helper()
	if len(got) != len(want.pages) {
		t.Fatalf("%v: %d pages returned for %v", ops, len(got), want)
	}
	for i, p := range want.pages {
		if got[i][0] != byte(p) {
			t.Fatalf("%v: page %d of %v returned page %d", ops, i, want, got[i][0])
		}
	}
}

// wantedPages is, per file, the nonzero pages of wants back to back: what
// a service sees of them once padding (page 0) is dropped.
func wantedPages(frames []sentFrame) map[string][]int {
	out := map[string][]int{}
	for _, f := range frames {
		for _, p := range f.pages {
			if p != 0 {
				out[f.file] = append(out[f.file], p)
			}
		}
	}
	return out
}

// FuzzSessionScript runs a script of session calls — NextRound, Fetch,
// FetchRegions, Finish and a cancel — over the frame-by-frame service and
// the batched one, on the three-round fixture. Whatever a scheme asks, both
// services see the same frames; read as (round, file, count) they are a
// prefix of the plan's, and the whole plan once Finish returns or a want is
// refused or a region is out of range; no page of a refused want reaches the
// service; and every error is a refusal (ErrPlanOverflow, ErrEntrySent) or
// the query's first error, returned again by every later call.
func FuzzSessionScript(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 1, 3, 0, 2, 4, 3},             // a look-up, then the rest padded
		{0, 0, 1, 8, 5, 6, 3},             // TestSessionPadsInPlanOrder
		{0, 0, 2, 1, 0, 1, 5, 4},          // a region quota, then a want for it
		{0, 0, 1, 8, 5, 6, 1, 8, 4, 4},    // a quota reopened
		{0, 0, 2, 5, 4, 1, 0, 2, 0, 0, 3}, // lead window and regions
		{0, 0, 1, 14, 1, 1, 1, 1},         // over quota
		{1, 3, 1},                         // before the first round
		{0, 1, 3, 3, 4, 0, 3},             // cancelled at a round boundary
		{0, 0, 0, 0},                      // a round past the last
		{0, 2, 1, 0},                      // regions of a file the round lacks
		{0, 0, 5, 0, 1, 8, 5, 3},          // a region out of range, then a want
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		var runs [2]scriptRun
		var logs [2]*frameLog
		var hdr *Header
		for i := range runs {
			_, log := openSession(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var svc lbs.Service = log
			if i == 1 {
				svc = batchedLog{log}
			}
			ses, err := Open(ctx, svc, "CI")
			mustDo(t, err)
			runs[i], logs[i], hdr = runScript(t, ses, cancel, script), log, ses.Hdr
		}
		run, log := runs[0], logs[0]
		if !slices.EqualFunc(log.frames, logs[1].frames, sameFrame) || !slices.Equal(log.rounds, logs[1].rounds) || log.round != logs[1].round {
			t.Fatalf("%v: frame by frame sent %v in rounds %v of %d, batched %v in rounds %v of %d",
				run.ops, log.frames, log.rounds, log.round, logs[1].frames, logs[1].rounds, logs[1].round)
		}

		type shape struct {
			round int
			file  string
			count int
		}
		var plan, got []shape
		for ri, r := range hdr.Plan.Rounds {
			for _, q := range r.Fetches {
				plan = append(plan, shape{ri + 1, q.File, q.Count})
			}
		}
		for i, fr := range log.frames {
			got = append(got, shape{log.rounds[i], fr.file, len(fr.pages)})
		}
		if len(got) > len(plan) || !slices.Equal(got, plan[:len(got)]) {
			t.Fatalf("%v: sent %v, not a prefix of the plan's %v", run.ops, got, plan)
		}
		// No round is announced past the one whose frame is next.
		nextRound := len(hdr.Plan.Rounds)
		if len(got) < len(plan) {
			nextRound = plan[len(got)].round
		}
		if log.round > nextRound {
			t.Fatalf("%v: %d rounds announced with frames %v", run.ops, log.round, got)
		}
		if (run.done || run.aborted) && (len(got) != len(plan) || log.round != len(hdr.Plan.Rounds)) {
			t.Fatalf("%v: query over after %d of %d frames and %d rounds", run.ops, len(got), len(plan), log.round)
		}

		// What the service saw of the wants is those that returned no
		// error, and at most a prefix of the first call that returned one,
		// up to the want that failed.
		sent, ok := wantedPages(log.frames), false
		for k := 0; !ok && (k == 0 || k < len(run.failed)); k++ {
			ok = maps.EqualFunc(sent, wantedPages(append(slices.Clip(run.wanted), run.failed[:k]...)), slices.Equal[[]int])
		}
		if !ok {
			t.Fatalf("%v: the service saw pages %v; the wants that returned no error were %v, the call that failed wanted %v",
				run.ops, sent, run.wanted, run.failed)
		}
	})
}
