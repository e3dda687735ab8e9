package privsp

import (
	"context"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/pagefile"
	"repro/internal/plan"
	"repro/internal/scheme/base"
)

// savePath returns a container path in a fresh temp dir ("PI*" contains a
// shell-hostile rune, so the file is named by index instead).
func savePath(t *testing.T, tag string) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "db-"+strings.ReplaceAll(tag, "*", "star")+".psdb")
}

// TestSaveOpenRoundTrip is the build-once / serve-many contract: for every
// strongly private scheme plus the baselines, a database that is saved and
// re-opened from its container answers every query with the identical
// Result — and, critically for Theorem 1, a byte-identical adversary-visible
// trace — as the freshly built in-memory deployment.
func TestSaveOpenRoundTrip(t *testing.T) {
	net := Generate(Oldenburg, 0.06, 1)
	queries := [][2]graph.NodeID{{0, 9}, {3, 40}, {7, 7}, {12, 2}}
	for _, scheme := range []Scheme{CI, PI, PIStar, HY, LM, AF} {
		t.Run(string(scheme), func(t *testing.T) {
			built, err := Build(net, Config{Scheme: scheme})
			if err != nil {
				t.Fatal(err)
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

			if opened.Scheme() != scheme {
				t.Fatalf("opened scheme %q, want %q", opened.Scheme(), scheme)
			}
			if opened.TotalBytes() != built.TotalBytes() {
				t.Errorf("TotalBytes: opened %d, built %d", opened.TotalBytes(), built.TotalBytes())
			}
			if opened.Plan() != built.Plan() {
				t.Errorf("plan: opened %q, built %q", opened.Plan(), built.Plan())
			}
			if opened.PlanPIRAccesses() != built.PlanPIRAccesses() {
				t.Errorf("plan accesses: opened %d, built %d", opened.PlanPIRAccesses(), built.PlanPIRAccesses())
			}

			memSrv, err := Serve(built)
			if err != nil {
				t.Fatal(err)
			}
			diskSrv, err := Serve(opened)
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range queries {
				mres, err := memSrv.ShortestPath(context.Background(), net.NodePoint(q[0]), net.NodePoint(q[1]))
				if err != nil {
					t.Fatalf("query %d in-memory: %v", qi, err)
				}
				dres, err := diskSrv.ShortestPath(context.Background(), net.NodePoint(q[0]), net.NodePoint(q[1]))
				if err != nil {
					t.Fatalf("query %d disk-backed: %v", qi, err)
				}
				if mres.Cost != dres.Cost && !(math.IsInf(mres.Cost, 1) && math.IsInf(dres.Cost, 1)) {
					t.Errorf("query %d: cost %v vs %v", qi, mres.Cost, dres.Cost)
				}
				if len(mres.Path) != len(dres.Path) {
					t.Errorf("query %d: path %d vs %d nodes", qi, len(mres.Path), len(dres.Path))
				} else {
					for i := range mres.Path {
						if mres.Path[i] != dres.Path[i] {
							t.Errorf("query %d: paths diverge at hop %d", qi, i)
							break
						}
					}
				}
				if mres.Trace != dres.Trace {
					t.Errorf("query %d: disk-backed trace differs from in-memory:\n%svs:\n%s", qi, dres.Trace, mres.Trace)
				}
			}
		})
	}
}

// TestDiskBackedRemoteServing covers the acceptance path of the persistent
// workflow: privsp build → Save → (privspd -db) Open → serve over TCP. The
// client Result and the daemon-observed trace must match the
// rebuild-at-startup deployment exactly.
func TestDiskBackedRemoteServing(t *testing.T) {
	net := Generate(Oldenburg, 0.06, 1)
	queries := [][2]graph.NodeID{{0, 9}, {3, 40}}
	for _, scheme := range []Scheme{CI, PI, HY, LM, AF} {
		t.Run(string(scheme), func(t *testing.T) {
			built, err := Build(net, Config{Scheme: scheme})
			if err != nil {
				t.Fatal(err)
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

			memSrv, err := Serve(built)
			if err != nil {
				t.Fatal(err)
			}
			addr := startDaemon(t, string(scheme), opened)
			remote, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer remote.Close()
			if remote.Scheme() != scheme {
				t.Fatalf("daemon hosts %q, want %q", remote.Scheme(), scheme)
			}

			var serverTrace string
			for qi, q := range queries {
				mres, err := memSrv.ShortestPath(context.Background(), net.NodePoint(q[0]), net.NodePoint(q[1]))
				if err != nil {
					t.Fatalf("query %d in-memory: %v", qi, err)
				}
				var tr string
				rres, err := remote.ShortestPath(context.Background(), net.NodePoint(q[0]), net.NodePoint(q[1]), WithServerTrace(&tr))
				if err != nil {
					t.Fatalf("query %d remote/disk: %v", qi, err)
				}
				if math.Abs(mres.Cost-rres.Cost) > 1e-9 && !(math.IsInf(mres.Cost, 1) && math.IsInf(rres.Cost, 1)) {
					t.Errorf("query %d: cost %v vs %v", qi, mres.Cost, rres.Cost)
				}
				if mres.Trace != rres.Trace {
					t.Errorf("query %d: client trace differs", qi)
				}
				if tr == "" {
					t.Fatalf("query %d: no server trace", qi)
				}
				if serverTrace == "" {
					serverTrace = tr
				} else if tr != serverTrace {
					t.Errorf("query %d: adversarial view changed across queries:\n%svs:\n%s", qi, tr, serverTrace)
				}
			}
		})
	}
}

// TestDiskBackedConcurrentQueries exercises the disk-backed serving path —
// the Files of one mapped container and the lbs worker pool — from many
// goroutines; run with -race this proves the container layer is safe for
// the concurrent daemon.
func TestDiskBackedConcurrentQueries(t *testing.T) {
	net := Generate(Oldenburg, 0.06, 1)
	built, err := Build(net, Config{Scheme: CI})
	if err != nil {
		t.Fatal(err)
	}
	path := savePath(t, "ci-conc")
	if err := built.Save(path); err != nil {
		t.Fatal(err)
	}
	opened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	srv, err := Serve(opened)
	if err != nil {
		t.Fatal(err)
	}

	queries := [][2]graph.NodeID{{0, 9}, {3, 40}, {7, 7}, {12, 2}}
	memSrv, err := Serve(built)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(queries))
	wantTrace := ""
	for i, q := range queries {
		res, err := memSrv.ShortestPath(context.Background(), net.NodePoint(q[0]), net.NodePoint(q[1]))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Cost
		wantTrace = res.Trace
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				q := queries[(g+i)%len(queries)]
				res, err := srv.ShortestPath(context.Background(), net.NodePoint(q[0]), net.NodePoint(q[1]))
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if res.Cost != want[(g+i)%len(queries)] {
					t.Errorf("goroutine %d query %d: cost %v", g, i, res.Cost)
					return
				}
				if res.Trace != wantTrace {
					t.Errorf("goroutine %d query %d: trace deviates", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestOpenOptions locks the public tuning surface: a database opened with
// the verify scan skipped still answers correctly.
func TestOpenOptions(t *testing.T) {
	net := Generate(Oldenburg, 0.05, 1)
	built, err := Build(net, Config{Scheme: CI})
	if err != nil {
		t.Fatal(err)
	}
	path := savePath(t, "ci-opts")
	if err := built.Save(path); err != nil {
		t.Fatal(err)
	}
	opened, err := Open(path, WithoutDataVerify())
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	srv, err := Serve(opened)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Serve(built)
	if err != nil {
		t.Fatal(err)
	}
	wres, err := want.ShortestPath(context.Background(), net.NodePoint(0), net.NodePoint(9))
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.ShortestPath(context.Background(), net.NodePoint(0), net.NodePoint(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != wres.Cost || res.Trace != wres.Trace {
		t.Errorf("tuned open diverges: cost %v vs %v", res.Cost, wres.Cost)
	}
}

// TestSaveOpenErrors covers the failure modes of the persistence API.
func TestSaveOpenErrors(t *testing.T) {
	net := Generate(Oldenburg, 0.05, 1)

	built, err := Build(net, Config{Scheme: CI})
	if err != nil {
		t.Fatal(err)
	}
	if built.Close() != nil {
		t.Error("Close on in-memory database errored")
	}

	if _, err := Open(filepath.Join(t.TempDir(), "missing.psdb")); err == nil {
		t.Error("missing container opened")
	}

	garbage := filepath.Join(t.TempDir(), "garbage.psdb")
	if err := os.WriteFile(garbage, []byte("not a container at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(garbage); err == nil {
		t.Error("garbage container opened")
	}

	// A well-formed container whose header does not decode fails Open,
	// naming the path, rather than failing every query later.
	badHeader := filepath.Join(t.TempDir(), "bad-header.psdb")
	if err := pagefile.WriteContainer(badHeader, pagefile.ContainerSpec{Header: []byte{2, 'C', 'I'}, Files: built.db.Files}); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(badHeader); err == nil || !strings.Contains(err.Error(), badHeader) {
		t.Errorf("undecodable header: Open = %v, want an error naming %s", err, badHeader)
	}

	// So does a header naming a scheme privsp does not serve.
	hdr, err := base.DecodeHeader(built.db.Header)
	if err != nil {
		t.Fatal(err)
	}
	hdr.Scheme = "OBF"
	obf := filepath.Join(t.TempDir(), "obf.psdb")
	if err := pagefile.WriteContainer(obf, pagefile.ContainerSpec{Header: hdr.Encode(), Files: built.db.Files}); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(obf); err == nil || !strings.Contains(err.Error(), `unsupported scheme "OBF"`) {
		t.Errorf("unsupported scheme: Open = %v", err)
	}
}

// writeV1Container writes db as a version 1 container: its meta block holds
// a scheme name before the header and an encoded plan after it, and the
// data region starts at the next 4096-byte boundary.
func writeV1Container(t *testing.T, path string, db *Database, pl plan.Plan) {
	t.Helper()
	planEnc := pagefile.NewEnc(64)
	pl.Encode(planEnc)
	scheme, header, files := db.db.Scheme, db.db.Header, db.db.Files
	metaLen := 1 + len(scheme) + 4 + len(header) + 4 + planEnc.Len() + 2
	for _, f := range files {
		metaLen += 1 + len(f.Name()) + 4 + 8 + 8 + 4
	}
	start := (4 + 2 + 4 + metaLen + 4 + 4095) / 4096 * 4096
	meta := pagefile.NewEnc(metaLen)
	meta.U8(uint8(len(scheme))).Raw([]byte(scheme))
	meta.U32(uint32(len(header))).Raw(header)
	meta.U32(uint32(planEnc.Len())).Raw(planEnc.Bytes())
	meta.U16(uint16(len(files)))
	data := pagefile.NewEnc(0)
	for _, f := range files {
		h := crc32.NewIEEE()
		off := start + data.Len()
		for i := 0; i < f.NumPages(); i++ {
			p, err := f.Page(i)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(p)
			data.Raw(p)
		}
		meta.U8(uint8(len(f.Name()))).Raw([]byte(f.Name()))
		meta.U32(uint32(f.PageSize())).U64(uint64(f.NumPages())).U64(uint64(off)).U32(h.Sum32())
	}
	out := pagefile.NewEnc(start + data.Len())
	out.Raw([]byte(pagefile.ContainerMagic)).U16(1).U32(uint32(metaLen))
	out.Raw(meta.Bytes()).U32(crc32.ChecksumIEEE(meta.Bytes()))
	out.Raw(make([]byte, start-out.Len())).Raw(data.Bytes())
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenVersion1Container: a version 1 container opens with the plan its
// header holds, even when its own plan section disagrees. The plan section
// here drops the header plan's last round, so a daemon that sized queries
// from it would refuse every conforming query's last round; served through
// the daemon, every CI answer must equal Dijkstra's.
func TestOpenVersion1Container(t *testing.T) {
	net := Generate(Oldenburg, 0.05, 1)
	built, err := Build(net, Config{Scheme: CI})
	if err != nil {
		t.Fatal(err)
	}
	short := plan.Plan{Rounds: built.db.Plan.Rounds[:len(built.db.Plan.Rounds)-1]}
	if short.Requests() >= built.db.Plan.Requests() {
		t.Fatalf("short plan has %d requests, header plan %d", short.Requests(), built.db.Plan.Requests())
	}
	path := savePath(t, "ci-v1")
	writeV1Container(t, path, built, short)
	opened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	if opened.Plan() != built.Plan() {
		t.Errorf("opened plan %q, want the header's %q", opened.Plan(), built.Plan())
	}

	remote, err := Dial(startDaemon(t, "CI", opened))
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	for _, q := range [][2]graph.NodeID{{0, 9}, {3, 40}, {7, 7}, {12, 2}} {
		res, err := remote.ShortestPath(context.Background(), net.NodePoint(q[0]), net.NodePoint(q[1]))
		if err != nil {
			t.Fatalf("query %v: %v", q, err)
		}
		if want := graph.DijkstraTo(net.G, q[0], q[1]).Dist[q[1]]; math.Abs(res.Cost-want) > 1e-9 {
			t.Errorf("query %v: cost %v, Dijkstra %v", q, res.Cost, want)
		}
	}
}
