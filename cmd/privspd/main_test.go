package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

// parseArgs parses args with the daemon's flag set.
func parseArgs(args ...string) (daemonConfig, error) {
	fs, cfg := newFlagSet(io.Discard)
	err := fs.Parse(args)
	return *cfg, err
}

// TestValidateFlagCombinations parses each command line with the daemon's
// own flag set, then validates it, as main does.
func TestValidateFlagCombinations(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring; "" = valid
	}{
		{
			name: "db path alone",
			args: []string{"-db", "ci.psdb"},
		},
		{
			name:    "no db",
			args:    []string{"-pir", "xorpir"},
			wantErr: "privsp build -out",
		},
		{
			name:    "default build path",
			args:    []string{"-preset", "Oldenburg", "-schemes", "CI"},
			wantErr: "flag provided but not defined: -preset",
		},
		{
			name:    "db conflicts with explicit build flags",
			args:    []string{"-db", "ci.psdb", "-schemes", "CI"},
			wantErr: "flag provided but not defined: -schemes",
		},
		{
			name: "db with serving flags is fine",
			args: []string{"-db", "ci.psdb,pi.psdb", "-listen", ":0", "-max-inflight", "8",
				"-admin", "localhost:0", "-drain", "2s"},
		},
		{
			name: "xorpir store with db path",
			args: []string{"-db", "ci.psdb", "-pir", "xorpir"},
		},
		{
			name:    "unknown pir store",
			args:    []string{"-db", "ci.psdb", "-pir", "oram"},
			wantErr: `unknown -pir store "oram"`,
		},
		{
			name:    "replica role requires xorpir",
			args:    []string{"-db", "ci.psdb", "-replica-role"},
			wantErr: "-replica-role answers XOR PIR selector shares and requires -pir xorpir",
		},
		{
			name:    "replica role rejects plain store",
			args:    []string{"-db", "ci.psdb", "-pir", "plain", "-replica-role"},
			wantErr: "requires -pir xorpir",
		},
		{
			name: "replica role with db path",
			args: []string{"-db", "ci.psdb", "-pir", "xorpir", "-replica-role"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := parseArgs(tc.args...)
			if err == nil {
				err = cfg.validate()
			}
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("%v: %v, want nil", tc.args, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("%v: %v, want error containing %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

// TestParseFlags: every flag lands in its config field, and -db splits
// into its container paths.
func TestParseFlags(t *testing.T) {
	cfg, err := parseArgs("-db", "ci.psdb, pi.psdb", "-listen", ":0", "-pir", "xorpir",
		"-replica-role", "-max-inflight", "8", "-admin", "localhost:0", "-drain", "2s")
	if err != nil {
		t.Fatal(err)
	}
	want := daemonConfig{Listen: ":0", DBFiles: []string{"ci.psdb", "pi.psdb"}, PIRStore: "xorpir",
		ReplicaRole: true, MaxInflight: 8, Admin: "localhost:0", Drain: 2 * time.Second}
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("parsed %+v\nwant   %+v", cfg, want)
	}
	def, err := parseArgs()
	if err != nil {
		t.Fatal(err)
	}
	if want := (daemonConfig{Listen: ":7465", PIRStore: "plain", Drain: 10 * time.Second}); !reflect.DeepEqual(def, want) {
		t.Fatalf("defaults %+v\nwant     %+v", def, want)
	}
}

// TestDaemonServesOnly: the daemon defines exactly its serving flags, and
// each flag of the build path privsp build owns fails to parse, as do
// -workers (the pool size follows GOMAXPROCS; -max-inflight is the one
// concurrency setting), -stats (counters leave through /metrics) and
// -chaos (tests inject faults in process, through internal/faultinject).
func TestDaemonServesOnly(t *testing.T) {
	fs, _ := newFlagSet(io.Discard)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	want := []string{"admin", "db", "drain", "listen", "max-inflight", "pir", "replica-role"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("flags %v, want %v", names, want)
	}
	for _, build := range []string{"preset", "scale", "seed", "nodes", "edges", "schemes", "page",
		"threshold", "cluster", "landmarks", "regions", "workers", "stats", "chaos"} {
		t.Run(build, func(t *testing.T) {
			_, err := parseArgs("-db", "ci.psdb", "-"+build, "1")
			if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -"+build) {
				t.Fatalf("-%s parsed with %v, want it undefined", build, err)
			}
		})
	}
}

func TestSplitList(t *testing.T) {
	if got := splitList("CI, PI ,,HY,"); len(got) != 3 || got[0] != "CI" || got[1] != "PI" || got[2] != "HY" {
		t.Errorf("splitList = %v", got)
	}
	if got := splitList(""); got != nil {
		t.Errorf("splitList(\"\") = %v", got)
	}
}
