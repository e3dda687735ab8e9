package privsp

import (
	"fmt"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"
)

// databaseDigests pins the bytes Build writes for Oldenburg at scale 0.02,
// seed 1, under each scheme's default Config: the scheme, the rendered
// plan, the CRC32 of the encoded header and, per page file, its name, page
// count and CRC32. A change that must not alter built databases keeps
// every line; one that does alter them updates the table on purpose.
var databaseDigests = map[Scheme]string{
	CI:     "CI round 1: Fl:1 | round 2: Fi:1 | round 3: Fd:3 header=30acc756 Fl:1:ed8fa0bd Fi:1:b7e450f1 Fd:2:8404b57d",
	PI:     "PI round 1: Fl:1 | round 2: Fi:1 Fd:2 header=ee9fe13d Fl:1:ed8fa0bd Fi:1:11ade3d5 Fd:2:8404b57d",
	PIStar: "PI* round 1: Fl:1 | round 2: Fi:1 Fd:4 header=b60aa28d Fl:1:c71c0011 Fi:1:0a2e59f0 Fd:2:7231a5b9",
	HY:     "HY round 1: Fl:1 | round 2: Fc:1 | round 3: Fc:3 header=753d4612 Fl:1:ed8fa0bd Fc:3:f99b2af7",
	LM:     "LM round 1: Fd:2 | round 2: Fd:1 header=1f178927 Fd:3:547d3fd9",
	AF:     "AF round 1: Fd:2 | round 2: Fd:1 | round 3: Fd:1 | round 4: Fd:1 | round 5: Fd:1 | round 6: Fd:1 | round 7: Fd:1 header=bbbfa113 Fd:8:7064dba0",
}

// digest renders a database as one comparable line.
func digest(t *testing.T, d *Database) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s header=%08x", d.Scheme(), d.Plan(), crc32.ChecksumIEEE(d.db.Header))
	for _, f := range d.db.Files {
		h := crc32.NewIEEE()
		for i := 0; i < f.NumPages(); i++ {
			p, err := f.Page(i)
			if err != nil {
				t.Fatalf("%s page %d: %v", f.Name(), i, err)
			}
			h.Write(p)
		}
		fmt.Fprintf(&b, " %s:%d:%08x", f.Name(), f.NumPages(), h.Sum32())
	}
	return b.String()
}

// TestDatabaseDigests checks that every scheme builds the pinned database
// bytes, and that Save followed by Open serves the same bytes.
func TestDatabaseDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are pinned on amd64; other architectures may fuse float multiply-adds and build different bytes")
	}
	net := Generate(Oldenburg, 0.02, 1)
	for _, scheme := range []Scheme{CI, PI, PIStar, HY, LM, AF} {
		t.Run(string(scheme), func(t *testing.T) {
			built, err := Build(net, Config{Scheme: scheme})
			if err != nil {
				t.Fatal(err)
			}
			want := databaseDigests[scheme]
			if got := digest(t, built); got != want {
				t.Errorf("built digest\n got %s\nwant %s", got, want)
			}
			path := savePath(t, string(scheme))
			if err := built.Save(path); err != nil {
				t.Fatal(err)
			}
			opened, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer opened.Close()
			if got := digest(t, opened); got != want {
				t.Errorf("opened digest\n got %s\nwant %s", got, want)
			}
		})
	}
}
