package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
)

// record is the JSON summary of one run of every workload.
type record struct {
	Benchmark string           `json:"benchmark"`
	Issue     int              `json:"issue"`
	Env       environment      `json:"env"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Smoke     bool             `json:"smoke"`
	Workloads []workloadRecord `json:"workloads"`
	// Claim stays null: the change that defines the benchmark claims no gain.
	Claim *string `json:"claim"`
}

// environment is what a number depends on besides the code.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GitHead    string `json:"git_head"`
}

type workloadRecord struct {
	Name      string                 `json:"name"`
	Why       string                 `json:"why"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"` // untraced window of the -trace 0 pass
	Failed    int                    `json:"failed"`
	Invalid   string                 `json:"invalid,omitempty"` // open loop: why the run does not count
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

func readEnvironment() environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		GitHead:    "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitHead = strings.TrimSpace(string(b))
	}
	return env
}

const invalidPrefix = "# INVALID open-loop run: "

// runChild re-executes the harness for one workload and pass, passing its
// output through and returning the result line.
func runChild(exe string, args []string) (*result, string, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &out)
	runErr := cmd.Run() // waits for the child to end
	var (
		last, invalid string
		sc            = bufio.NewScanner(&out)
	)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, invalidPrefix) {
			invalid = strings.TrimPrefix(line, invalidPrefix)
		} else if line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil || res.Metrics == nil {
		if runErr != nil {
			return nil, "", fmt.Errorf("child %v: %w", args, runErr)
		}
		return nil, "", fmt.Errorf("child %v printed no result line", args)
	}
	return &res, invalid, nil
}

// runAll runs every workload, each pass in its own child process, prints
// what they print and writes one JSON record.
func runAll(seed int64, seconds float64, smoke bool, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rec := record{Benchmark: "privspbench", Issue: 12, Env: readEnvironment(), Seed: seed, Seconds: seconds, Smoke: smoke}
	wrong := false
	for _, w := range workloads {
		wr := workloadRecord{Name: w.Name, Why: w.Why, Correct: true}
		for pass := 0; pass <= 1; pass++ {
			args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(pass)}
			if smoke {
				args = append(args, "-smoke")
			}
			res, invalid, err := runChild(exe, args)
			if err != nil {
				return err
			}
			wr.Correct = wr.Correct && res.Correct
			if pass == 1 {
				wr.PerLayer = res.Metrics
				continue
			}
			wr.Attempted, wr.Failed, wr.Invalid, wr.EndToEnd = res.Attempted, res.Failed, invalid, res.Metrics
			wr.EndToEnd[failShare.Name] = metricValue{Value: ratio(float64(res.Failed), float64(res.Attempted)), Unit: failShare.Unit}
		}
		wrong = wrong || !wr.Correct
		rec.Workloads = append(rec.Workloads, wr)
	}
	if out == "" {
		out = filepath.Join(outDir, fmt.Sprintf("record_seed%d.json", seed))
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("# record written to %s\n", out)
	if wrong {
		return errWrongAnswer
	}
	return nil
}

func readRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// worseBy is how much worse b reads than a, as a share of a (negative when
// b is better).
func worseBy(d metricDef, a, b float64) float64 {
	if a == b {
		return 0
	}
	diff := (b - a) / math.Abs(a)
	if d.Better == "higher" {
		diff = -diff
	}
	return diff
}

// compareRecords prints, per workload and end-to-end metric, both values,
// how much worse B is than A and the bound, and fails beyond a bound.
func compareRecords(w io.Writer, pathA, pathB string) error {
	a, err := readRecord(pathA)
	if err != nil {
		return err
	}
	b, err := readRecord(pathB)
	if err != nil {
		return err
	}
	byName := make(map[string]workloadRecord, len(b.Workloads))
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA\tB\tB worse by\tbound\t")
	var beyond []string
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			return fmt.Errorf("%s has no workload %s", pathB, wa.Name)
		}
		for _, wr := range []workloadRecord{wa, wb} {
			if wr.Invalid != "" {
				return fmt.Errorf("workload %s is an invalid open-loop run (%s): measure again", wr.Name, wr.Invalid)
			}
		}
		for _, d := range append(append([]metricDef(nil), endToEnd...), failShare) {
			va, vb := wa.EndToEnd[d.Name].Value, wb.EndToEnd[d.Name].Value
			diff := worseBy(d, va, vb)
			verdict := ""
			if diff > d.Bound {
				verdict = "BEYOND"
				beyond = append(beyond, wa.Name+"/"+d.Name)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%s\n",
				wa.Name, d.Name, d.Unit, va, vb, 100*diff, 100*d.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(beyond) > 0 {
		return errors.New("beyond the bound: " + strings.Join(beyond, ", "))
	}
	return nil
}
