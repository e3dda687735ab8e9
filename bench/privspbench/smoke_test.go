package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../../BENCHMARK.json from the metric catalogue")

const benchmarkJSON = "../../BENCHMARK.json"

// benchmarkFile is BENCHMARK.json: exactly these keys.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []fileWorkload `json:"workloads"`
	EndToEnd   []fileMetric   `json:"end_to_end"`
	PerLayer   []fileMetric   `json:"per_layer"`
}

type fileWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type fileMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end only
}

// catalogue renders the harness's own tables in BENCHMARK.json's shape.
func catalogue() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"go", "run", "./bench/privspbench"},
		Paths:      []string{"bench/privspbench"},
		RunSeconds: int(defaultSeconds),
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, fileWorkload{Name: w.Name, Why: w.Why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		f.EndToEnd = append(f.EndToEnd, fileMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &bound})
	}
	for _, d := range perLayer {
		f.PerLayer = append(f.PerLayer, fileMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return f
}

// TestBenchmarkJSON holds BENCHMARK.json and the metric catalogue the
// harness prints from in agreement, and both inside the file's limits.
func TestBenchmarkJSON(t *testing.T) {
	want := catalogue()
	if *update {
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(benchmarkJSON, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the catalogue in metrics.go/workload.go; run go test ./bench/privspbench -run TestBenchmarkJSON -update")
	}
	if len(b) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(b))
	}
	if n := len(want.PerLayer); n > 128 {
		t.Errorf("%d per-layer metrics, limit 128", n)
	}
	seen := map[string]bool{}
	name := func(kind, s string) {
		if seen[s] {
			t.Errorf("%s name %q used twice", kind, s)
		}
		seen[s] = true
		if len(s) == 0 || len(s) > 64 {
			t.Errorf("%s name %q: want 1 to 64 characters", kind, s)
		}
	}
	for _, w := range want.Workloads {
		name("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range want.EndToEnd {
		name("end-to-end", m.Name)
		if *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	for _, m := range want.PerLayer {
		name("per-layer", m.Name)
	}
	for _, m := range append(want.EndToEnd, want.PerLayer...) {
		if len(m.Unit) == 0 || len(m.Unit) > 16 {
			t.Errorf("%s: unit %q: want 1 to 16 characters", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, d := range perLayer {
		if d.Layer == "" || d.Moves == "" {
			t.Errorf("%s names no layer or no end-to-end metric it should move", d.Name)
		}
	}
}

// TestSmoke builds the harness and runs it with -smoke: every workload must
// report every end-to-end and per-layer name of the catalogue exactly once,
// with a finite value, answer every query correctly and leave a record
// whose claim is null.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the harness")
	}
	dir := t.TempDir()
	exe := filepath.Join(dir, "privspbench")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(exe, "-smoke", "-seed", "1", "-out", "record.json")
	cmd.Dir = dir // the harness writes under .bench_build/ of its working directory
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("privspbench -smoke: %v\n%s", err, stderr.String())
	}

	// section -> metric name -> times printed
	printed := map[string]map[string]int{}
	section := ""
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) >= 4 && fields[0] == "#" && fields[1] == "workload":
			section = fields[2] + " " + fields[3] // "<name> trace=<0|1>"
			if printed[section] != nil {
				t.Errorf("section %q printed twice", section)
			}
			printed[section] = map[string]int{}
		case len(fields) == 3 && section != "":
			v, err := strconv.ParseFloat(fields[2], 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %q is not a finite number", section, fields[0], fields[2])
			}
			printed[section][fields[0]]++
		}
	}
	for _, w := range workloads {
		for pass, defs := range [][]metricDef{endToEnd, perLayer} {
			got := printed[w.Name+" trace="+strconv.Itoa(pass)]
			if got == nil {
				t.Errorf("%s: no -trace %d section", w.Name, pass)
				continue
			}
			for _, d := range defs {
				if got[d.Name] != 1 {
					t.Errorf("%s -trace %d: %s printed %d times, want once", w.Name, pass, d.Name, got[d.Name])
				}
			}
			if len(got) != len(defs) {
				t.Errorf("%s -trace %d: %d metrics printed, catalogue has %d", w.Name, pass, len(got), len(defs))
			}
		}
	}

	b, err := os.ReadFile(filepath.Join(dir, "record.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(strings.TrimSpace(string(b)), "\"claim\": null\n}") {
		t.Error(`record does not end with "claim": null`)
	}
	var rec record
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Workloads) != len(workloads) {
		t.Fatalf("record has %d workloads, want %d", len(rec.Workloads), len(workloads))
	}
	valid := true
	for _, wr := range rec.Workloads {
		valid = valid && wr.Invalid == ""
		if !wr.Correct || wr.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d", wr.Name, wr.Correct, wr.Attempted)
		}
		if len(wr.EndToEnd) != len(endToEnd)+1 || len(wr.PerLayer) != len(perLayer) {
			t.Errorf("%s: record holds %d end-to-end and %d per-layer metrics", wr.Name, len(wr.EndToEnd), len(wr.PerLayer))
		}
	}
	if !valid {
		t.Log("the open-loop workload ran late on this machine: -compare would refuse the record")
		return
	}
	if err := compareRecords(new(bytes.Buffer), filepath.Join(dir, "record.json"), filepath.Join(dir, "record.json")); err != nil {
		t.Errorf("a record compared with itself: %v", err)
	}
}
