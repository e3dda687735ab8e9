package base

import (
	"context"
	"errors"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/kdtree"
	"repro/internal/lbs"
	"repro/internal/pagefile"
	"repro/internal/plan"
)

// sentFrame is one ReadPages call the service received.
type sentFrame struct {
	file  string
	pages []int
}

// frameLog is an in-process service that logs the frames it is sent and
// the rounds announced before each.
type frameLog struct {
	*lbs.Server
	frames []sentFrame
	rounds []int // per logged frame, the rounds announced before it
	round  int   // rounds announced
}

func (f *frameLog) Connect(ctx context.Context) *lbs.Conn { return lbs.NewConn(ctx, f) }

func (f *frameLog) NextRound(ctx context.Context) error {
	f.round++
	return f.Server.NextRound(ctx)
}

func (f *frameLog) ReadPages(ctx context.Context, file string, pages []int) ([][]byte, error) {
	f.frames = append(f.frames, sentFrame{file, slices.Clone(pages)})
	f.rounds = append(f.rounds, f.round)
	return f.Server.ReadPages(ctx, file, pages)
}

// batchedLog gives a frameLog the batch face (lbs.RoundReader): the session
// hands it whole batches, which it logs frame by frame through the log's
// own NextRound and ReadPages.
type batchedLog struct{ *frameLog }

func (b batchedLog) Connect(ctx context.Context) *lbs.Conn { return lbs.NewConn(ctx, b) }

func (b batchedLog) ReadFrames(ctx context.Context, frames []lbs.Frame) ([][][]byte, error) {
	return lbs.ReadFrames(ctx, b.frameLog, frames)
}

// openSession serves a three-file database under a three-round plan —
// Fl:1 | Fi:2 Fd:4 | Fd:2, regions two pages wide — and opens a session.
func openSession(t *testing.T) (*Session, *frameLog) {
	t.Helper()
	hdr := sampleHeader()
	hdr.ClusterPages = 2
	hdr.Plan = plan.Plan{Rounds: []plan.Round{
		{Fetches: []plan.Fetch{{File: FileLookup, Count: 1}}},
		{Fetches: []plan.Fetch{{File: FileIndex, Count: 2}, {File: FileData, Count: 4}}},
		{Fetches: []plan.Fetch{{File: FileData, Count: 2}}},
	}}
	var files []pagefile.Reader
	for _, name := range []string{FileLookup, FileIndex, FileData} {
		f := pagefile.NewFile(name, 64)
		for i := 0; i < 8; i++ {
			f.MustAppendPage([]byte{byte(i)})
		}
		files = append(files, f)
	}
	srv, err := lbs.NewServer(hdr.Database(files...), costmodel.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	svc := &frameLog{Server: srv}
	ses, err := Open(context.Background(), svc, "CI")
	if err != nil {
		t.Fatal(err)
	}
	return ses, svc
}

func mustDo(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsForeignScheme(t *testing.T) {
	_, svc := openSession(t)
	if _, err := Open(context.Background(), svc, "PI", "PI*"); err == nil || !strings.Contains(err.Error(), `hosts "CI"`) {
		t.Fatalf("err = %v, want a scheme mismatch", err)
	}
}

// TestSessionPadsInPlanOrder: a round left half-used is padded before the
// next begins, quotas of files the plan lists earlier are padded before a
// later file is fetched, and every quota goes out as one frame, its wants
// first and its padding after — with the next want, as nothing waits on
// padding.
func TestSessionPadsInPlanOrder(t *testing.T) {
	ses, svc := openSession(t)
	mustDo(t, ses.NextRound())
	mustDo(t, ses.NextRound()) // round 1 untouched: its look-up page is padded
	if len(svc.frames) != 0 {
		t.Fatalf("after skipping round 1: sent %v before any reply was needed", svc.frames)
	}
	// Fetching Fd first pads the Fi quota the plan lists before it.
	pages, err := ses.Fetch(FileData, []int{6, 7})
	mustDo(t, err)
	if len(pages) != 2 || pages[0][0] != 6 || pages[1][0] != 7 {
		t.Fatalf("fetch returned the wrong pages: %v", pages)
	}
	res, err := ses.Finish(1, nil, 0, 0)
	mustDo(t, err)
	want := []sentFrame{
		{FileLookup, []int{0}},
		{FileIndex, []int{0, 0}}, {FileData, []int{6, 7, 0, 0}},
		{FileData, []int{0, 0}},
	}
	if !slices.EqualFunc(svc.frames, want, sameFrame) {
		t.Errorf("sent %v\nwant %v", svc.frames, want)
	}
	if res.Trace != lbs.CanonicalTrace(ses.Hdr.Plan) {
		t.Errorf("trace deviates from the plan:\n%s", res.Trace)
	}
	if res.Stats.Rounds != 3 || res.Stats.Fetches[FileData] != 6 {
		t.Errorf("stats = %+v", res.Stats)
	}
}

func sameFrame(a, b sentFrame) bool { return a.file == b.file && slices.Equal(a.pages, b.pages) }

// TestSessionOverflowSendsNothingAndCompletesThePlan: a want the plan has no
// room for — over the round's quota, for a file the round does not list, or
// a round past the last — is not sent; the service sees the canonical plan.
func TestSessionOverflowSendsNothingAndCompletesThePlan(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*Session) error
	}{
		{"over quota", func(s *Session) error {
			mustDo(t, s.NextRound())
			_, err := s.Fetch(FileLookup, []int{3})
			mustDo(t, err)
			_, err = s.Fetch(FileLookup, []int{5})
			return err
		}},
		{"frame larger than what is left", func(s *Session) error {
			mustDo(t, s.NextRound())
			mustDo(t, s.NextRound())
			_, err := s.Fetch(FileData, []int{4, 4, 4})
			mustDo(t, err)
			_, err = s.Fetch(FileData, []int{5, 5})
			return err
		}},
		{"file not in the round", func(s *Session) error {
			mustDo(t, s.NextRound())
			_, err := s.Fetch(FileData, []int{5})
			return err
		}},
		{"before the first round", func(s *Session) error {
			_, err := s.Fetch(FileLookup, []int{5})
			return err
		}},
		{"round past the last", func(s *Session) error {
			for i := 0; i < 3; i++ {
				mustDo(t, s.NextRound())
			}
			return s.NextRound()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ses, svc := openSession(t)
			err := tc.run(ses)
			if !errors.Is(err, ErrPlanOverflow) {
				t.Fatalf("err = %v, want ErrPlanOverflow", err)
			}
			// privspbench screens overflowing pairs by these two words.
			if !strings.Contains(err.Error(), "budget") || !strings.Contains(err.Error(), "exhausted") {
				t.Errorf("error text %q lost the words the benchmark screens by", err)
			}
			for _, f := range svc.frames {
				if slices.Contains(f.pages, 5) {
					t.Errorf("the overflowing want was sent: %v", f)
				}
			}
			if got, want := ses.trace.String(), lbs.CanonicalTrace(ses.Hdr.Plan); got != want {
				t.Errorf("transcript after overflow:\n%swant:\n%s", got, want)
			}
		})
	}
}

// TestSessionRefusesToReopenASentEntry: a quota goes out in one frame, so a
// scheme that fetches half of one, waits, and asks for the rest gets
// ErrEntrySent; nothing of the second half is sent, and the service still
// sees the canonical plan, the first half's quota padded inside its frame.
func TestSessionRefusesToReopenASentEntry(t *testing.T) {
	ses, svc := openSession(t)
	mustDo(t, ses.NextRound())
	mustDo(t, ses.NextRound())
	pages, err := ses.Fetch(FileData, []int{6, 7})
	mustDo(t, err)
	if len(pages) != 2 || pages[0][0] != 6 || pages[1][0] != 7 {
		t.Fatalf("first half returned the wrong pages: %v", pages)
	}
	_, err = ses.Fetch(FileData, []int{5, 5})
	if !errors.Is(err, ErrEntrySent) || errors.Is(err, ErrPlanOverflow) {
		t.Fatalf("err = %v, want ErrEntrySent", err)
	}
	want := []sentFrame{
		{FileLookup, []int{0}},
		{FileIndex, []int{0, 0}}, {FileData, []int{6, 7, 0, 0}},
		{FileData, []int{0, 0}},
	}
	if !slices.EqualFunc(svc.frames, want, sameFrame) {
		t.Errorf("sent %v\nwant %v", svc.frames, want)
	}
	if got, want := ses.trace.String(), lbs.CanonicalTrace(ses.Hdr.Plan); got != want {
		t.Errorf("transcript after the refused want:\n%swant:\n%s", got, want)
	}
}

// TestSessionRefusesToReopenARegionQuota: FetchRegions sends its file's
// quota whole, padding included, so a later want for that quota is refused
// with ErrEntrySent — the quota had room, so it is no overflow — and
// nothing of it is sent.
func TestSessionRefusesToReopenARegionQuota(t *testing.T) {
	ses, svc := openSession(t)
	mustDo(t, ses.NextRound())
	mustDo(t, ses.NextRound())
	_, _, err := ses.FetchRegions(FileData, []kdtree.RegionID{0})
	mustDo(t, err)
	_, err = ses.Fetch(FileData, []int{5})
	if !errors.Is(err, ErrEntrySent) || errors.Is(err, ErrPlanOverflow) {
		t.Fatalf("err = %v, want ErrEntrySent", err)
	}
	want := []sentFrame{
		{FileLookup, []int{0}},
		{FileIndex, []int{0, 0}}, {FileData, []int{0, 1, 0, 0}},
		{FileData, []int{0, 0}},
	}
	if !slices.EqualFunc(svc.frames, want, sameFrame) {
		t.Errorf("sent %v\nwant %v", svc.frames, want)
	}
	if got, want := ses.trace.String(), lbs.CanonicalTrace(ses.Hdr.Plan); got != want {
		t.Errorf("transcript after the refused want:\n%swant:\n%s", got, want)
	}
}

// TestSessionLatchesARegionOutOfRange: a region the header has no pages for
// ends the query the way a refused want does — nothing of the call is
// sent, the rest of the plan is — and, the header being corrupt, latches
// its error: the next want returns it again and sends nothing.
func TestSessionLatchesARegionOutOfRange(t *testing.T) {
	ses, svc := openSession(t)
	mustDo(t, ses.NextRound())
	mustDo(t, ses.NextRound())
	_, _, err := ses.FetchRegions(FileData, []kdtree.RegionID{3})
	if err == nil || !strings.Contains(err.Error(), "region 3 out of range") {
		t.Fatalf("err = %v, want region 3 out of range", err)
	}
	want := []sentFrame{
		{FileLookup, []int{0}},
		{FileIndex, []int{0, 0}}, {FileData, []int{0, 0, 0, 0}},
		{FileData, []int{0, 0}},
	}
	if !slices.EqualFunc(svc.frames, want, sameFrame) || svc.round != len(ses.Hdr.Plan.Rounds) {
		t.Errorf("sent %v in %d rounds\nwant %v in %d", svc.frames, svc.round, want, len(ses.Hdr.Plan.Rounds))
	}
	if _, ferr := ses.Fetch(FileData, []int{5}); ferr != err {
		t.Errorf("Fetch after the region error: %v, want %v again", ferr, err)
	}
	if len(svc.frames) != len(want) {
		t.Errorf("Fetch after the region error sent %v", svc.frames[len(want):])
	}
}

// TestSessionStopsAtCancelledRoundBoundary: a context that dies mid-query
// stops the session at the next round boundary — no padding of later
// rounds — so the service holds a strict prefix of the canonical trace.
func TestSessionStopsAtCancelledRoundBoundary(t *testing.T) {
	_, svc := openSession(t)
	ctx, cancel := context.WithCancel(context.Background())
	ses, err := Open(ctx, svc, "CI")
	mustDo(t, err)
	mustDo(t, ses.NextRound())
	_, err = ses.Fetch(FileLookup, []int{3})
	mustDo(t, err)
	cancel()
	if err := ses.NextRound(); !errors.Is(err, context.Canceled) {
		t.Fatalf("NextRound on a dead context: %v", err)
	}
	if _, err := ses.Finish(1, nil, 0, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Finish after cancellation: %v", err)
	}
	got, full := ses.trace.String(), lbs.CanonicalTrace(ses.Hdr.Plan)
	if want := "round 1:\n  fetch Fl\n"; got != want || !strings.HasPrefix(full, got) {
		t.Errorf("cancelled transcript %q, want the one-round prefix %q", got, want)
	}
}

// TestSessionAccountingAndTrace: every page retrieved — wanted or padding —
// is charged one PIR fetch against its file's length and one page transfer,
// the header one round trip and its transfer, each round one round trip;
// the transcript names files but never page numbers.
func TestSessionAccountingAndTrace(t *testing.T) {
	ses, svc := openSession(t)
	mustDo(t, ses.NextRound())
	_, err := ses.Fetch(FileLookup, []int{7})
	mustDo(t, err)
	mustDo(t, ses.NextRound())
	_, err = ses.Fetch(FileData, []int{7, 6, 5, 7})
	mustDo(t, err)
	res, err := ses.Finish(1, nil, 0, 0)
	mustDo(t, err)

	m := svc.Model()
	pages := ses.Hdr.Plan.TotalPIRAccesses() // 9, in 8-page files of 64-byte pages
	hdrBytes := len(ses.Hdr.Encode())
	st := res.Stats
	if st.Rounds != 3 || st.HeaderBytes != hdrBytes {
		t.Errorf("Rounds = %d, HeaderBytes = %d", st.Rounds, st.HeaderBytes)
	}
	if want := map[string]int{FileLookup: 1, FileIndex: 2, FileData: 6}; !maps.Equal(st.Fetches, want) {
		t.Errorf("Fetches = %v, want %v", st.Fetches, want)
	}
	if want := time.Duration(pages) * m.PIRFetch(8); st.PIR != want {
		t.Errorf("PIR = %v, want %v", st.PIR, want)
	}
	if want := 4*m.RTT + m.Transfer(hdrBytes) + time.Duration(pages)*m.Transfer(64); st.Comm != want {
		t.Errorf("Comm = %v, want %v", st.Comm, want)
	}
	if st.Client < 0 || st.Server != 0 {
		t.Errorf("Client = %v, Server = %v", st.Client, st.Server)
	}
	if st.Response() != st.PIR+st.Comm+st.Client+st.Server {
		t.Error("Response mismatch")
	}
	if strings.ContainsAny(res.Trace, "567") {
		t.Errorf("transcript leaks page numbers:\n%s", res.Trace)
	}
}

// TestFinishRejectsDeviatingTranscript: Finish holds the transcript to the
// plan, so a query whose record deviates — here one retrieval more than the
// plan has — returns no result.
func TestFinishRejectsDeviatingTranscript(t *testing.T) {
	ses, _ := openSession(t)
	mustDo(t, ses.NextRound())
	ses.trace.Fetch(FileLookup, 1)
	if _, err := ses.Finish(1, nil, 0, 0); err == nil || !strings.Contains(err.Error(), "deviates") {
		t.Fatalf("deviating transcript accepted: %v", err)
	}
}

// TestSessionLatchesBackendError: a fetch the backend refuses fails the
// query, and every later call returns the same error without reaching the
// service.
func TestSessionLatchesBackendError(t *testing.T) {
	ses, svc := openSession(t)
	mustDo(t, ses.NextRound())
	_, err := ses.Fetch(FileLookup, []int{99})
	if err == nil {
		t.Fatal("out-of-range page fetched")
	}
	sent := len(svc.frames)
	if err2 := ses.NextRound(); err2 != err {
		t.Errorf("NextRound after a failed fetch: %v, want %v", err2, err)
	}
	if _, err2 := ses.Finish(1, nil, 0, 0); err2 != err {
		t.Errorf("Finish after a failed fetch: %v, want %v", err2, err)
	}
	if len(svc.frames) != sent {
		t.Errorf("%d frames sent after the error", len(svc.frames)-sent)
	}
}

// TestFetchRegionsRefusesEmptyClusters: a header whose regions span no
// pages (ClusterPages 0 decodes from any hostile header) fails the region
// decode with an error; no reply is looked up for a frame never sent.
func TestFetchRegionsRefusesEmptyClusters(t *testing.T) {
	ses, _ := openSession(t)
	ses.Hdr.ClusterPages = 0
	for range 3 {
		mustDo(t, ses.NextRound())
	}
	if _, _, err := ses.FetchRegions(FileData, []kdtree.RegionID{0}); err == nil || !strings.Contains(err.Error(), "empty region cluster") {
		t.Fatalf("err = %v, want the empty-cluster error", err)
	}
}
