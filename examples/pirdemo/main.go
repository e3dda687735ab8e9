// Pirdemo puts the two PIR stores behind the schemes (§2.2, §3.2) side by
// side on the same small file, and prints what the server observes under
// each: Plain, which the experiments serve while costmodel charges the
// paper's simulated SCP time, hands the server the page index; the
// two-server information-theoretic XOR PIR of Chor et al. hands each server a
// uniformly random subset of the file, whatever page is read.
//
// With -fleet the demo becomes three OS processes — the deployment the
// two-server model actually assumes. The parent spawns two copies of
// itself as -replica daemons (real privspd serving machinery in
// -replica-role: selector shares only, no page reconstruction possible),
// splits one page read into a uniform share and its single-bit-flipped
// complement, sends one share to each process over the real wire protocol,
// and XORs the two answers back into the page locally. Neither process
// alone learns the page index; the parent prints both shares, both
// answers, and each replica's recorded adversarial view to show it.
package main

import (
	"context"
	crand "crypto/rand"
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/pagefile"
	"repro/internal/pir"
)

func main() {
	replica := flag.Bool("replica", false, "run as a fleet replica child process: host the demo pages in -replica-role and serve until killed")
	fleetMode := flag.Bool("fleet", false, "two-process fleet demo: spawn two -replica children and reconstruct a page from their XOR PIR share answers")
	flag.Parse()
	switch {
	case *replica:
		if err := runReplica(); err != nil {
			log.Fatal(err)
		}
		return
	case *fleetMode:
		if err := runFleet(); err != nil {
			log.Fatal(err)
		}
		return
	}

	data := demoPages()

	fmt.Println("-- Plain (no privacy: what the paper's SCP hides, costmodel prices) --")
	demo("Plain", pir.NewPlain(pagefile.SlicePages("F", demoPageSize, data)))
	fmt.Printf("   server saw: page 1, then page %d — the request itself\n", demoPageCount-1)

	fmt.Println("\n-- two-server XOR PIR (information-theoretic) --")
	x, err := pir.NewXORPIR(pagefile.SlicePages("F", demoPageSize, data))
	if err != nil {
		log.Fatal(err)
	}
	demo("XORPIR", x)
	// What each server sees of one read: SplitShares draws the two subsets,
	// as ReadBatchInto does inside the store, and each server answers its
	// own subset with the XOR of its pages (AnswerShares).
	selA, selB := make([]byte, x.SelectorBytes()), make([]byte, x.SelectorBytes())
	if err := pir.SplitShares(crand.Reader, x.NumPages(), []int{demoTarget}, [][]byte{selA}, [][]byte{selB}); err != nil {
		log.Fatal(err)
	}
	answers := [][]byte{make([]byte, demoPageSize), make([]byte, demoPageSize)}
	if err := x.AnswerShares(context.Background(), [][]byte{selA, selB}, answers); err != nil {
		log.Fatal(err)
	}
	for i := range answers[0] {
		answers[0][i] ^= answers[1][i]
	}
	fmt.Printf("   reading page %d: server A sees subset %s\n", demoTarget, bits(selA))
	fmt.Printf("                    server B sees subset %s\n", bits(selB))
	fmt.Printf("   (each is a uniformly random subset of the %d pages; they differ in bit %d)\n", demoPageCount, demoTarget)
	fmt.Printf("   A's answer xor B's answer = %q\n", trim(answers[0]))
	fmt.Println("   (run with -fleet to split the two servers into two real processes)")

	// Batched reads take the query's context: the serving layer checks it
	// between page retrievals, so a cancelled query stops a long batch at a
	// read boundary instead of finishing work nobody wants.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	batch, err := pir.ReadBatch(ctx, x, []int{2, 5, 11})
	cancel()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   batched pir.ReadBatch(ctx, x, [2 5 11]) returned %d pages, first %q\n", len(batch), trim(batch[0]))
}

// demo reads two pages through the Store interface and times it.
func demo(name string, s pir.Store) {
	for _, idx := range []int{1, s.NumPages() - 1} {
		start := time.Now()
		page, err := pir.Read(s, idx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("   pir.Read(%s, %d) = %q in %v\n", name, idx, trim(page), time.Since(start))
	}
}

func trim(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}
