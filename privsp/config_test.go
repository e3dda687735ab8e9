package privsp

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/lbs"
)

// TestBuildDefaults: a scheme's own Build handed Config{Scheme: s} makes
// byte for byte the database Build makes from a Config with every default
// written out, so a zero field means the default and a direct caller gets
// what privsp builds. At the default page size the network is cut into a
// few regions, too few for HY's threshold or LM's and AF's plan derivation
// to matter; the 256-byte pages of the second network make them matter.
func TestBuildDefaults(t *testing.T) {
	for _, c := range []struct {
		scale    float64
		pageSize int // 0 = the default, written out as 4096
	}{{0.03, 0}, {0.1, 256}} {
		net := Generate(Oldenburg, c.scale, 1)
		for _, s := range []Scheme{CI, PI, PIStar, HY, LM, AF} {
			t.Run(fmt.Sprintf("%s/%d", s, c.pageSize), func(t *testing.T) {
				zero, err := schemes[s].build(net.G, Config{Scheme: s, PageSize: c.pageSize})
				if err != nil {
					t.Fatal(err)
				}
				cluster := 1
				if s == PIStar {
					cluster = 2
				}
				written, err := Build(net, Config{
					Scheme: s, PageSize: cmp.Or(c.pageSize, 4096), ClusterPages: cluster, Threshold: 40,
					Landmarks: 5, Regions: 8, Seed: 1, DeriveQueries: 512, SafetyMargin: 1.25,
				})
				if err != nil {
					t.Fatal(err)
				}
				sameDatabase(t, zero, written.LBS())
			})
		}
	}
}

// sameDatabase fails unless a and b hold the same header, plan and files.
func sameDatabase(t *testing.T, a, b *lbs.Database) {
	t.Helper()
	if a.Scheme != b.Scheme || !bytes.Equal(a.Header, b.Header) {
		t.Fatalf("scheme or header differs: %s (%d bytes) vs %s (%d bytes)", a.Scheme, len(a.Header), b.Scheme, len(b.Header))
	}
	if a.Plan.String() != b.Plan.String() {
		t.Fatalf("plan %s vs %s", a.Plan, b.Plan)
	}
	if len(a.Files) != len(b.Files) {
		t.Fatalf("%d files vs %d", len(a.Files), len(b.Files))
	}
	for i, fa := range a.Files {
		fb := b.Files[i]
		if fa.Name() != fb.Name() || fa.NumPages() != fb.NumPages() || fa.PageSize() != fb.PageSize() {
			t.Fatalf("file %s: %d×%d B vs %s: %d×%d B", fa.Name(), fa.NumPages(), fa.PageSize(), fb.Name(), fb.NumPages(), fb.PageSize())
		}
		for p := 0; p < fa.NumPages(); p++ {
			pa, err := fa.Page(p)
			if err != nil {
				t.Fatal(err)
			}
			pb, err := fb.Page(p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pa, pb) {
				t.Fatalf("file %s page %d differs", fa.Name(), p)
			}
		}
	}
}

// TestBuildRejectsOutOfRangeTunables: a negative tunable, or a PI* cluster
// of one page, fails Build naming the field, where it used to build the
// default database.
func TestBuildRejectsOutOfRangeTunables(t *testing.T) {
	net := Generate(Oldenburg, 0.02, 1)
	for _, c := range []struct {
		field string
		cfg   Config
	}{
		{"PageSize", Config{Scheme: CI, PageSize: -512}},
		{"ClusterPages", Config{Scheme: PIStar, ClusterPages: 1}},
		{"ClusterPages", Config{Scheme: PIStar, ClusterPages: -2}},
		{"Threshold", Config{Scheme: HY, Threshold: -5}},
		{"Landmarks", Config{Scheme: LM, Landmarks: -2}},
		{"Regions", Config{Scheme: AF, Regions: -3}},
		{"DeriveQueries", Config{Scheme: LM, DeriveQueries: -1}},
		{"SafetyMargin", Config{Scheme: AF, SafetyMargin: -1}},
		{"SafetyMargin", Config{Scheme: AF, SafetyMargin: math.NaN()}},
	} {
		db, err := Build(net, c.cfg)
		if err == nil {
			t.Errorf("%+v built a database of %d bytes", c.cfg, db.TotalBytes())
			continue
		}
		if !strings.Contains(err.Error(), c.field) {
			t.Errorf("%+v: error %q does not name %s", c.cfg, err, c.field)
		}
	}
}
