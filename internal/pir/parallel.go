package pir

import (
	"sync"
	"sync/atomic"
)

// This file parallelizes the full-file scan every XOR-PIR answer performs.
// The word-wide kernel of kernel.go already runs one scan at memory speed on
// one core; on a multi-core server that leaves most of the machine's memory
// bandwidth idle while a scan is the unit of serving capacity. The scan is a
// data-independent fold (XOR over a contiguous arena), so it partitions
// cleanly:
//
//   - The arena is cut into contiguous page-aligned chunks of minSegWords
//     that the workers claim from one atomic counter, so an arena pass
//     divides by how fast each core is actually running and not into fixed
//     halves: a worker that starts late, or whose core is taken away for a
//     moment, wins fewer chunks instead of holding the pass up. Chunk
//     boundaries fall on page-row boundaries — at least a full page apart —
//     so readers never contend, and every write goes to a worker-private
//     accumulator block, never a shared cache line.
//   - Each worker folds the chunks it wins into its own k per-query partial
//     accumulators (pooled with the task), through ONE bucket table of its
//     own for the whole pass when the row-XOR count model of kernel.go says
//     a table pays over a worker's share, and a final XOR pass combines the
//     partials. XOR is associative and commutative, so the parallel answer
//     is byte-identical to the serial one whoever folded what.
//   - A pass of width nw is nw slots: the submitting goroutine runs slot 0
//     and starts nw-1 goroutines for the rest, a sync.WaitGroup joins them,
//     and the partials are combined. No goroutine outlives the pass that
//     started it, so a store owns nothing but memory; and because the
//     submitter claims chunks from the same counter as its helpers, a pass on
//     a fully contended machine degrades to the serial kernel.
//
// Obliviousness is untouched: parallelism changes which core XORs which
// words, never which pages a scan touches (all of them, §2.2) or how
// selector randomness is drawn (per query, inside the store, exactly as in
// the serial path).

// minSegWords is the sizing floor of the scan width: a worker must have at
// least this many arena words (512 KiB) to pay for its share of the fan-out
// handshake, so a file below twice the floor scans serially.
const minSegWords = 1 << 16

// scanWidth is the number of workers a pass over an arena of words words and
// pages pages folds with: procs (GOMAXPROCS), shrunk so every worker gets at
// least minSegWords of arena, never more than the page count, never below 1.
// A store works it out once, at construction; nothing changes it afterwards.
func scanWidth(procs, words, pages int) int {
	return max(1, min(procs, words/minSegWords, pages))
}

// arenaScratch is the reusable working memory of one arena store: pooled
// scan tasks, and the bucket tables the kernel folds through.
type arenaScratch struct {
	tasks  sync.Pool // *arenaTask
	tables tableList
}

// tableList is a free list of bucket tables (kernel.go). A table is borrowed
// for one fold — a serial pass, or one worker's share of a parallel one — so
// whichever goroutine folds owns its table outright, and the list
// ends up holding as many tables as folds have ever run at once: the scan
// width. It is a channel rather than a sync.Pool because a table that is
// live across a collection raises the heap goal by twice its size; a Pool
// keeps a private copy per P and reallocates them all after every second
// collection, a free list keeps exactly the ones in use.
type tableList chan []uint64

// tableListCap only has to exceed the number of folds that can overlap on
// one store; an unused slot costs a slice header.
const tableListCap = 64

// borrow takes a table off the list, or nil — the kernel grows it on use.
func (l tableList) borrow() []uint64 {
	select {
	case t := <-l:
		return t
	default:
		return nil
	}
}

// giveBack returns a table the kernel has (possibly) grown.
func (l tableList) giveBack(t []uint64) {
	if t == nil {
		return // the direct loop ran: nothing was allocated
	}
	select {
	case l <- t:
	default:
	}
}

// newArenaScratch builds the per-store scratch. A task's helper body is a
// method value bound once here, because `go t.help()` on the pooled task
// starts a goroutine without allocating where `go t.runHelper()` would
// allocate a closure per helper.
func newArenaScratch() *arenaScratch {
	sc := &arenaScratch{tables: make(tableList, tableListCap)}
	sc.tasks.New = func() any {
		t := &arenaTask{scratch: sc}
		t.help = t.runHelper
		return t
	}
	return sc
}

// arenaTask is a parallel answerAll over a word arena. The pass is cut into
// chunks of `step` pages that the participants claim from one atomic counter
// (see the file header for why), and its nw slots are the participants: slot
// seg folds every chunk it wins into its own accumulator block, through ONE
// bucket table it borrows for the pass and reduces once at the end. Slot 0
// (the submitter) writes the caller's accumulators directly; slots 1..nw-1
// (the helpers) write pooled partials that the submitter combines afterwards.
type arenaTask struct {
	scratch *arenaScratch
	arena   *wordArena
	sels    [][]byte
	accs    [][]uint64
	k       int
	nw      int
	g       int // group size of the pass, from a slot's expected share
	step    int // pages per chunk
	nchunks int32
	next    atomic.Int32 // next unclaimed chunk

	help func()       // runHelper, bound once (see newArenaScratch)
	slot atomic.Int32 // last slot a helper took
	wg   sync.WaitGroup

	partbuf []uint64
	parts   [][]uint64
}

// chunkPages is the claiming granularity of an nw-wide pass over an arena:
// minSegWords of rows, the unit the sizing floor already uses — fine enough
// that a straggler costs the pass one chunk, coarse enough that a claim (one
// atomic add) is free. A pass wider than the floor allows (the tests force
// such widths on small files) still gets a chunk per worker.
func chunkPages(a *wordArena, nw int) int {
	return max(1, min(minSegWords/a.wpp, (a.numPages+nw-1)/nw))
}

// runSegment is one participant's share of the pass: it claims chunks until
// none remain. A slot that finds none left (its helper was scheduled after
// the others finished the pass) leaves zeroed partials behind.
func (t *arenaTask) runSegment(seg int) {
	accs := t.accs
	if seg > 0 {
		accs = t.parts[(seg-1)*t.k : seg*t.k]
		for _, row := range accs {
			clearWords(row)
		}
	}
	a := t.arena
	var table, tab []uint64
	for {
		c := t.next.Add(1) - 1
		if c >= t.nchunks {
			break
		}
		start := int(c) * t.step
		end := min(start+t.step, a.numPages)
		if t.g == 1 {
			a.foldDirect(t.sels, accs, start, end)
			continue
		}
		if tab == nil {
			table = t.scratch.tables.borrow()
			tab = a.bucketTable(&table, tableRows(t.k, t.g))
		}
		a.scatterRange(t.sels, tab, t.g, start, end)
	}
	if tab != nil {
		foldTable(tab, accs, t.g, a.wpp)
		t.scratch.tables.giveBack(table)
	}
}

// runHelper is the body of each goroutine a pass starts: take the next free
// slot, run it, report in.
func (t *arenaTask) runHelper() {
	t.runSegment(int(t.slot.Add(1)))
	t.wg.Done()
}

// answerAllParallel answers k selectors with nw workers in one chunked
// pass over the arena, leaving the combined answers in accs (caller-zeroed,
// like answerAll). Byte-identical to answerAll. Every goroutine it starts
// is done with the task before it returns, so the task is recycled right
// here, minus its references to the caller's selectors and accumulators.
func (sc *arenaScratch) answerAllParallel(a *wordArena, sels [][]byte, accs [][]uint64, nw int) {
	t := sc.tasks.Get().(*arenaTask)
	t.prepare(a, sels, accs, nw)
	t.wg.Add(nw - 1)
	for i := 1; i < nw; i++ {
		go t.help()
	}
	t.runSegment(0)
	t.wg.Wait()
	t.combine()
	t.arena, t.sels, t.accs = nil, nil, nil
	sc.tasks.Put(t)
}

// prepare points the task at one pass: the chunking, the group size every
// slot's table uses, and nw-1 blocks of zero-on-claim partial accumulators.
func (t *arenaTask) prepare(a *wordArena, sels [][]byte, accs [][]uint64, nw int) {
	k := len(sels)
	t.arena, t.sels, t.accs = a, sels, accs
	t.k, t.nw = k, nw
	t.g = groupBits(k, (a.numPages+nw-1)/nw, a.wpp, false)
	t.step = chunkPages(a, nw)
	t.nchunks = int32((a.numPages + t.step - 1) / t.step)
	t.next.Store(0)
	t.slot.Store(0)
	if need := (nw - 1) * k * a.wpp; cap(t.partbuf) < need {
		t.partbuf = make([]uint64, need)
	}
	t.partbuf = t.partbuf[:(nw-1)*k*a.wpp]
	t.parts = t.parts[:0]
	for off := 0; off < len(t.partbuf); off += a.wpp {
		t.parts = append(t.parts, t.partbuf[off:off+a.wpp])
	}
}

// combine folds every slot's partials into the caller's accumulators: one
// pass over (nw-1)*k*wpp words — noise against the numPages*wpp words each
// scan walks.
func (t *arenaTask) combine() {
	for w := 0; w < t.nw-1; w++ {
		for j := 0; j < t.k; j++ {
			xorWords(t.accs[j], t.parts[w*t.k+j])
		}
	}
}
