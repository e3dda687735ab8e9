package pir

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
//     accumulators (kept with the call's scan), through ONE bucket table of
//     its own for the whole pass when the row-XOR count model of kernel.go says
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

// chunkPages is the claiming granularity of an nw-wide pass over an arena:
// minSegWords of rows, the unit the sizing floor already uses — fine enough
// that a straggler costs the pass one chunk, coarse enough that a claim (one
// atomic add) is free. A pass wider than the floor allows (the tests force
// such widths on small files) still gets a chunk per worker.
func chunkPages(a *wordArena, nw int) int {
	return max(1, min(minSegWords/a.wpp, (a.numPages+nw-1)/nw))
}

// pass folds s.sels into s.accs (zeroed) in one pass over the arena, nw
// wide. At nw = 1 it is the serial kernel through table slot 0. Wider, it
// is nw slots: the submitter runs slot 0 and starts nw-1 helpers for the
// rest, and every helper is done with the scan before pass returns. Each
// slot folds through its own table, so the slots are sized here, before
// any helper starts.
func (s *scan) pass(nw int) {
	for len(s.tables) < nw {
		s.tables = append(s.tables, nil)
	}
	if nw == 1 {
		s.arena.answerAll(s.sels, s.accs, &s.tables[0])
		return
	}
	s.prepare(nw)
	s.wg.Add(nw - 1)
	for i := 1; i < nw; i++ {
		go s.help()
	}
	s.runSegment(0)
	s.wg.Wait()
	s.combine()
}

// prepare points the scan at one nw-wide pass: the chunking, the group size
// every slot's table uses, and nw-1 blocks of zero-on-claim partial
// accumulators.
func (s *scan) prepare(nw int) {
	a, k := s.arena, len(s.sels)
	s.nw = nw
	s.g = groupBits(k, (a.numPages+nw-1)/nw, a.wpp, false)
	s.step = chunkPages(a, nw)
	s.nchunks = int32((a.numPages + s.step - 1) / s.step)
	s.next.Store(0)
	s.slot.Store(0)
	if need := (nw - 1) * k * a.wpp; cap(s.partbuf) < need {
		s.partbuf = make([]uint64, need)
	}
	s.partbuf = s.partbuf[:(nw-1)*k*a.wpp]
	s.parts = sliceWordRows(s.parts[:0], s.partbuf, a.wpp)
}

// runSegment is one slot's share of the pass: it claims chunks until none
// remain, folding them into its accumulators — the caller's for slot 0,
// its block of partials otherwise — through its own table. A slot that
// finds none left (its helper was scheduled after the others finished the
// pass) leaves zeroed partials behind.
func (s *scan) runSegment(seg int) {
	k, accs := len(s.sels), s.accs
	if seg > 0 {
		accs = s.parts[(seg-1)*k : seg*k]
		for _, row := range accs {
			clearWords(row)
		}
	}
	a := s.arena
	var tab []uint64
	for {
		c := s.next.Add(1) - 1
		if c >= s.nchunks {
			break
		}
		start := int(c) * s.step
		end := min(start+s.step, a.numPages)
		if s.g == 1 {
			a.foldDirect(s.sels, accs, start, end)
			continue
		}
		if tab == nil {
			tab = a.bucketTable(&s.tables[seg], tableRows(k, s.g))
		}
		a.scatterRange(s.sels, tab, s.g, start, end)
	}
	if tab != nil {
		foldTable(tab, accs, s.g, a.wpp)
	}
}

// runHelper is the body of each goroutine a pass starts: take the next free
// slot, run it, report in.
func (s *scan) runHelper() {
	s.runSegment(int(s.slot.Add(1)))
	s.wg.Done()
}

// combine folds every slot's partials into the caller's accumulators: one
// pass over (nw-1)*k*wpp words — noise against the numPages*wpp words each
// scan walks.
func (s *scan) combine() {
	k := len(s.sels)
	for w := 0; w < s.nw-1; w++ {
		for j := 0; j < k; j++ {
			xorWords(s.accs[j], s.parts[w*k+j])
		}
	}
}
