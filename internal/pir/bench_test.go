package pir

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkXORAnswer compares the two XOR scan kernels answering one
// selector over the same file: the byte-at-a-time [][]byte baseline versus
// the word-wide contiguous-arena kernel. pages/s counts pages *scanned* per
// second — the server-side figure of merit, since a PIR answer touches the
// whole file by construction.
//
// The row-xor-4KB pair isolates the kernel's unit of work, one 4-KB row
// folded into another, and states what unrolling xorWords eight words per
// iteration bought over the one-word loop it replaced (kept below as
// xorWordsPlain): on the 2-core Xeon @ 2.10 GHz sandbox this pair read
// 214–224 ns against 162–180 ns per row (1.25–1.3×; both sides are called
// through a func value here, so neither is inlined), and in the kernel
// itself, BenchmarkScanParallel over 11 321 4-KB pages on one worker, the
// k=1 pass went from 3.0–3.8 ms to 1.9–2.0 ms and the k=8 pass from 6.8–8.3
// ms to 4.0–4.7 ms — above the 10 % the unroll had to earn to stay. The
// third member, "vector", is xorWords itself: the AVX2 body on a host that
// has it, the unrolled loop elsewhere.
func BenchmarkXORAnswer(b *testing.B) {
	const n, ps = 2048, 1024
	pages := makePages(n, ps, 7)
	arena, err := newWordArena(src(pages, ps))
	if err != nil {
		b.Fatal(err)
	}
	sel := make([]byte, (n+7)/8)
	rand.New(rand.NewSource(8)).Read(sel)

	b.Run("bytes", func(b *testing.B) {
		b.SetBytes(n * ps)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			xorAnswerBytes(pages, ps, sel)
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "pages/s")
	})
	b.Run("words", func(b *testing.B) {
		acc := make([]uint64, arena.wpp)
		b.SetBytes(n * ps)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clearWords(acc)
			arena.answerOne(sel, acc)
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "pages/s")
	})
	for _, fold := range []struct {
		name string
		xor  func(acc, src []uint64)
	}{{"plain", xorWordsPlain}, {"unrolled", xorWordsGo}, {"vector", xorWords}} {
		b.Run("row-xor-4KB/"+fold.name, func(b *testing.B) {
			const wpp, rows = 512, 256 // a 1 MiB table's worth of rows
			table := make([]uint64, rows*wpp)
			acc := make([]uint64, wpp)
			b.SetBytes(wpp * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := i % rows
				fold.xor(acc, table[r*wpp:(r+1)*wpp])
			}
		})
	}
}

// xorWordsPlain is the one-word-per-iteration fold xorWords replaced, kept
// as the baseline of BenchmarkXORAnswer's row-xor-4KB pair.
func xorWordsPlain(acc, src []uint64) {
	src = src[:len(acc)]
	for i := range acc {
		acc[i] ^= src[i]
	}
}

// BenchmarkXORPIRBatchRead compares answering a k-page round with k
// independent full-file scans (scan-per-query, the old readEach shape)
// against the native multi-query single-scan ReadBatch. pages/s counts
// *retrieved* pages per second: single-scan throughput should grow with k
// while scan-per-query stays flat, i.e. batch cost scales sublinearly in k
// (with the bucketed fold, roughly one row-XOR per page per group of 8).
func BenchmarkXORPIRBatchRead(b *testing.B) {
	// 32 MB of pages: sixteen times one core's 2 MiB L2, so every pass
	// streams the arena from beyond the core — from L3 on the 260 MB-L3
	// runner these figures come from, from DRAM on a desktop part. What is
	// measured is a pass over a file that does not fit next to the core, not
	// DRAM bandwidth.
	const n, ps = 32768, 1024
	pages := makePages(n, ps, 9)
	x, err := NewXORPIR(src(pages, ps))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, k := range []int{1, 4, 16, 64} {
		batch := make([]int, k)
		for i := range batch {
			batch[i] = (i * 31) % n
		}
		b.Run(fmt.Sprintf("scan-per-query/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, p := range batch {
					if _, err := Read(x, p); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(k)*float64(b.N)/b.Elapsed().Seconds(), "pages/s")
		})
		b.Run(fmt.Sprintf("single-scan/k=%d", k), func(b *testing.B) {
			dst := make([][]byte, k)
			for i := range dst {
				dst[i] = make([]byte, ps)
			}
			// Warm the store's listed scan so allocs/op reflects steady state even
			// at one iteration.
			if err := x.ReadBatchInto(ctx, batch, dst); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := x.ReadBatchInto(ctx, batch, dst); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(k)*float64(b.N)/b.Elapsed().Seconds(), "pages/s")
		})
	}
}

// BenchmarkScanParallel sweeps the segmented parallel kernel across worker
// widths and batch sizes over two arenas: 64 MiB of 1-KB pages (each worker
// streams its own segment, so the k=1 rows show how far the machine's memory
// bandwidth exceeds one core's) and the PI round's own shape, 11 321 4-KB
// pages, where k=8 is the Fi:8 fetch the end-to-end benchmark is made of.
// workers=1 is the serial kernel; pages/s counts pages scanned per second,
// the serving-capacity figure of merit, and row-xors/page is what the
// row-XOR count model (kernel.go) charges a pass per page it reads — k/2
// for the direct loop, about 1 + 3·2^g·workers/n once the bucketed fold
// engages — so a k=8 row can be read against the k=1 row beside it.
// Run with -cpu to pin the schedulable core count.
func BenchmarkScanParallel(b *testing.B) {
	for _, shape := range []struct{ n, ps int }{{65536, 1024}, {11321, 4096}} {
		n, ps := shape.n, shape.ps
		pages := makePages(n, ps, 11)
		arena, err := newWordArena(src(pages, ps))
		if err != nil {
			b.Fatal(err)
		}
		s := newScan(arena)
		var table []uint64
		rng := rand.New(rand.NewSource(12))
		for _, k := range []int{1, 8} {
			sels := make([][]byte, k)
			accs := make([][]uint64, k)
			for i := range sels {
				sels[i] = make([]byte, (n+7)/8)
				rng.Read(sels[i])
				accs[i] = make([]uint64, arena.wpp)
			}
			for _, w := range []int{1, 2, 4, 8} {
				b.Run(fmt.Sprintf("pages=%dx%d/k=%d/workers=%d", n, ps, k, w), func(b *testing.B) {
					b.SetBytes(int64(n * ps))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for _, acc := range accs {
							clearWords(acc)
						}
						if w == 1 {
							arena.answerAll(sels, accs, &table)
						} else {
							s.fold(sels, accs, w)
						}
					}
					b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "pages/s")
					seg := (n + w - 1) / w
					rowXORs := float64(w*passCost2(k, seg, passBits(k, n, arena.wpp, w))) / 2
					b.ReportMetric(rowXORs/float64(n), "row-xors/page")
				})
			}
		}
	}
}

func BenchmarkXORPIRRead(b *testing.B) {
	pages := makePages(256, 4096, 2)
	x, err := NewXORPIR(src(pages, 4096))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(x, i%256); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlainRead(b *testing.B) {
	pages := makePages(256, 4096, 4)
	p := NewPlain(src(pages, 4096))
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(p, i%256); err != nil {
			b.Fatal(err)
		}
	}
}
