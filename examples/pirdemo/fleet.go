package main

import (
	"bufio"
	"bytes"
	"context"
	crand "crypto/rand"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/costmodel"
	"repro/internal/lbs"
	"repro/internal/pagefile"
	"repro/internal/pir"
	"repro/internal/plan"
	"repro/internal/server"
)

// The fleet demo's database: both replica processes build these pages
// independently and deterministically, standing in for two mirrors of one
// published dataset.
const (
	demoPageCount = 16
	demoPageSize  = 64
	demoFile      = "pages"
	demoTarget    = 11 // the page the fleet client privately retrieves
)

func demoPages() [][]byte {
	data := make([][]byte, demoPageCount)
	for i := range data {
		data[i] = make([]byte, demoPageSize)
		copy(data[i], fmt.Sprintf("secret page %02d", i))
	}
	return data
}

// runReplica is the child-process mode: host the demo pages on the real
// serving machinery in -replica-role — single-scan XOR PIR stores that
// answer selector shares and nothing else — print the chosen loopback
// address for the parent to read, and serve until the parent kills us.
func runReplica() error {
	db := &lbs.Database{
		Scheme: "RAW",
		Header: []byte("pirdemo fleet header\n"),
		Files:  []pagefile.Reader{pagefile.SlicePages(demoFile, demoPageSize, demoPages())},
		Plan:   plan.Plan{Rounds: []plan.Round{{Fetches: []plan.Fetch{{File: demoFile, Count: 1}}}}},
	}
	srv := server.New(server.Options{
		ReplicaRole: true,
		Stores:      lbs.XORStores,
	})
	if err := srv.Host("RAW", db, costmodel.Default()); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Printf("listening %s\n", ln.Addr())
	return srv.Serve(ln)
}

// spawnReplica starts one -replica child of this same binary and reads the
// address it announces.
func spawnReplica() (*exec.Cmd, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, "", err
	}
	cmd := exec.Command(exe, "-replica")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, "", fmt.Errorf("replica never announced its address: %v", err)
	}
	addr := strings.TrimPrefix(strings.TrimSpace(line), "listening ")
	return cmd, addr, nil
}

// bits renders a selector as its bit string, page 0 leftmost, so the two
// shares can be compared by eye.
func bits(sel []byte) string {
	var b strings.Builder
	for i := 0; i < demoPageCount; i++ {
		if sel[i/8]&(1<<(i%8)) != 0 {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// runFleet is the parent-process mode: the two-server XOR PIR deployment
// as two genuinely separate OS processes, with the share split and the
// reconstruction happening only here in the client.
func runFleet() error {
	fmt.Println("-- two-server XOR PIR across two real processes --")
	var cmds []*exec.Cmd
	defer func() {
		for _, cmd := range cmds {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()
	var addrs []string
	for i := 0; i < 2; i++ {
		cmd, addr, err := spawnReplica()
		if err != nil {
			return err
		}
		cmds = append(cmds, cmd)
		addrs = append(addrs, addr)
		fmt.Printf("   replica %c: pid %d at %s (replica-role: answers shares, cannot reconstruct)\n",
			'A'+i, cmd.Process.Pid, addr)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// selA is uniform noise; selB differs from it in exactly the target
	// bit. Each alone is independent of the target — only the pair, held
	// by no single server, determines what is read.
	selA, selB := make([]byte, (demoPageCount+7)/8), make([]byte, (demoPageCount+7)/8)
	if err := pir.SplitShares(crand.Reader, demoPageCount, []int{demoTarget}, [][]byte{selA}, [][]byte{selB}); err != nil {
		return err
	}
	fmt.Printf("\n   retrieving page %d privately:\n", demoTarget)
	fmt.Printf("   share to A: %s  (uniform random)\n", bits(selA))
	fmt.Printf("   share to B: %s  (same, bit %d flipped)\n", bits(selB), demoTarget)

	answers := make([][]byte, 2)
	traces := make([]string, 2)
	for i, sel := range [][]byte{selA, selB} {
		c, err := client.Dial(addrs[i], client.Options{})
		if err != nil {
			return fmt.Errorf("dialing replica %c: %v", 'A'+i, err)
		}
		defer c.Close()
		q := c.StartQuery()
		res, err := q.ReadShareFrames(ctx, []client.ShareFrame{{File: demoFile, Sels: [][]byte{sel}}})
		if err != nil {
			return fmt.Errorf("share fetch on replica %c: %v", 'A'+i, err)
		}
		answers[i] = bytes.Clone(res[0][0]) // End recycles the reply's buffer
		if traces[i], err = q.End(ctx); err != nil {
			return fmt.Errorf("ending query on replica %c: %v", 'A'+i, err)
		}
		fmt.Printf("   answer from %c: %x... (XOR of its selected pages)\n", 'A'+i, answers[i][:8])
	}

	// The reconstruction is local arithmetic: the selected-page XORs
	// differ by exactly the target page, so XORing the answers cancels
	// every page both servers folded in and leaves page demoTarget.
	page := make([]byte, demoPageSize)
	for j := range page {
		page[j] = answers[0][j] ^ answers[1][j]
	}
	fmt.Printf("   A xor B locally  = %q\n", trim(page))
	if want := fmt.Sprintf("secret page %02d", demoTarget); trim(page) != want {
		return fmt.Errorf("reconstruction produced %q, want %q", trim(page), want)
	}

	fmt.Println("\n   each replica's recorded adversarial view (identical, index-free):")
	for i, tr := range traces {
		fmt.Printf("   %c: %q\n", 'A'+i, tr)
	}
	if traces[0] != traces[1] {
		return fmt.Errorf("replica views diverged")
	}
	fmt.Println("\n   (privsp.DialFleet drives whole shortest-path queries through this")
	fmt.Println("    same split — see README \"Fleet deployment\")")
	return nil
}
