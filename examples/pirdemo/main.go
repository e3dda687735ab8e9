// Pirdemo exercises the three PIR building blocks behind the schemes (§2.2,
// §3.2) side by side on the same small file: the square-root ORAM standing
// in for the hardware-aided protocol of Williams & Sion, the two-server
// information-theoretic XOR PIR, and Kushilevitz–Ostrovsky computational
// PIR from quadratic residuosity. It also prints what the server actually
// observes for the ORAM, demonstrating access-pattern independence.
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

	fmt.Println("-- square-root ORAM (the SCP-style oblivious store) --")
	oram, err := pir.NewSqrtORAM(pagefile.SlicePages("F", demoPageSize, data), 1)
	if err != nil {
		log.Fatal(err)
	}
	demo("SqrtORAM", oram)
	touches := oram.Log().Touches
	fmt.Printf("   server saw %d physical touches; last five:", len(touches))
	for _, t := range touches[max(0, len(touches)-5):] {
		fmt.Printf(" %s[%d]", t.Area, t.Pos)
	}
	fmt.Println("\n   (positions are fresh-random whatever the logical pattern)")

	fmt.Println("\n-- two-server XOR PIR (information-theoretic) --")
	x, err := pir.NewXORPIR(pagefile.SlicePages("F", demoPageSize, data))
	if err != nil {
		log.Fatal(err)
	}
	demo("XORPIR", x)
	fmt.Printf("   each server saw a uniformly random subset of %d pages\n", demoPageCount)
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

	fmt.Println("\n-- Kushilevitz–Ostrovsky PIR (quadratic residuosity, math/big) --")
	small := make([][]byte, 4)
	for i := range small {
		small[i] = []byte(fmt.Sprintf("ko%02d", i))
	}
	ko, err := pir.NewKOPIR(pagefile.SlicePages("F", 4, small), 256)
	if err != nil {
		log.Fatal(err)
	}
	demo("KOPIR", ko)
	fmt.Println("   (bit-by-bit retrieval: cryptographically private, far too slow")
	fmt.Println("    for 4 KB pages — exactly why the paper uses hardware-aided PIR)")
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

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
