package main

import (
	"strings"
	"testing"

	"repro/internal/wire"
)

// TestStatsLine: the serving-stats log line surfaces the full per-database
// accounting — completed, in-flight, cancelled and deadline-exceeded query
// counters plus the pool gauges — in one greppable line.
func TestStatsLine(t *testing.T) {
	st := wire.ServerStats{
		ActiveConns: 2,
		TotalConns:  9,
		Databases: []wire.DBStats{
			{Name: "CI", Scheme: "CI", Queries: 5, Pages: 70, InFlight: 1, Cancelled: 2, Deadline: 1,
				Workers: 8, BusyWorkers: 3, QueuedReads: 4},
			{Name: "HY", Scheme: "HY"},
		},
	}
	line := statsLine(st)
	for _, want := range []string{
		"conns 2 active / 9 total",
		"CI: 5 queries (1 in-flight, 2 cancelled, 1 deadline)",
		"70 pages",
		"pool 3/8 busy (4 queued)",
		"HY: 0 queries (0 in-flight, 0 cancelled, 0 deadline)",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("stats line %q\nmissing %q", line, want)
		}
	}
}

func TestValidateFlagCombinations(t *testing.T) {
	cases := []struct {
		name    string
		cfg     daemonConfig
		wantErr string // substring; "" = valid
	}{
		{
			name: "default build path",
			cfg:  daemonConfig{Preset: "Oldenburg", Schemes: []string{"CI"}},
		},
		{
			name: "all schemes",
			cfg:  daemonConfig{Preset: "Denmark", Schemes: []string{"CI", "PI", "PI*", "HY", "LM", "AF"}},
		},
		{
			name:    "nodes without edges",
			cfg:     daemonConfig{Preset: "Oldenburg", Schemes: []string{"CI"}, NodesFile: "x.nodes"},
			wantErr: "-nodes and -edges must be given together",
		},
		{
			name:    "edges without nodes",
			cfg:     daemonConfig{Preset: "Oldenburg", Schemes: []string{"CI"}, EdgesFile: "x.edges"},
			wantErr: "-nodes and -edges must be given together",
		},
		{
			name: "edge list overrides preset",
			cfg:  daemonConfig{Preset: "Nowhere", Schemes: []string{"CI"}, NodesFile: "x.nodes", EdgesFile: "x.edges"},
		},
		{
			name:    "unknown preset",
			cfg:     daemonConfig{Preset: "Atlantis", Schemes: []string{"CI"}},
			wantErr: `unknown preset "Atlantis"`,
		},
		{
			name:    "unknown scheme mid-list",
			cfg:     daemonConfig{Preset: "Oldenburg", Schemes: []string{"CI", "ZZ", "HY"}},
			wantErr: `unknown scheme "ZZ"`,
		},
		{
			name:    "OBF rejected",
			cfg:     daemonConfig{Preset: "Oldenburg", Schemes: []string{"OBF"}},
			wantErr: `unknown scheme "OBF"`,
		},
		{
			name:    "empty scheme list",
			cfg:     daemonConfig{Preset: "Oldenburg"},
			wantErr: "no schemes to host",
		},
		{
			name: "db path alone",
			cfg:  daemonConfig{DBFiles: []string{"ci.psdb"}, Preset: "Oldenburg", Schemes: []string{"CI"}},
		},
		{
			name: "db conflicts with explicit build flags",
			cfg: daemonConfig{DBFiles: []string{"ci.psdb"}, Preset: "Oldenburg", Schemes: []string{"CI"},
				Explicit: []string{"db", "preset", "schemes"}},
			wantErr: "mutually exclusive with -preset, -schemes",
		},
		{
			name: "db with serving flags is fine",
			cfg: daemonConfig{DBFiles: []string{"ci.psdb"},
				Explicit: []string{"db", "listen", "workers", "stats", "drain"}},
		},
		{
			name: "xorpir store accepted",
			cfg:  daemonConfig{Preset: "Oldenburg", Schemes: []string{"CI"}, PIRStore: "xorpir"},
		},
		{
			name: "chaos spec accepted",
			cfg: daemonConfig{Preset: "Oldenburg", Schemes: []string{"CI"},
				Chaos: "latency=2ms,tear=6,dialfail=5,eio=97,seed=42"},
		},
		{
			name:    "chaos spec rejected",
			cfg:     daemonConfig{Preset: "Oldenburg", Schemes: []string{"CI"}, Chaos: "latency=banana"},
			wantErr: "-chaos",
		},
		{
			name:    "chaos unknown fault rejected",
			cfg:     daemonConfig{Preset: "Oldenburg", Schemes: []string{"CI"}, Chaos: "frob=1"},
			wantErr: "unknown fault",
		},
		{
			name: "xorpir store with db path",
			cfg: daemonConfig{DBFiles: []string{"ci.psdb"}, PIRStore: "xorpir",
				Explicit: []string{"db", "pir"}},
		},
		{
			name:    "unknown pir store",
			cfg:     daemonConfig{Preset: "Oldenburg", Schemes: []string{"CI"}, PIRStore: "oram"},
			wantErr: `unknown -pir store "oram"`,
		},
		{
			name: "scan workers default",
			cfg:  daemonConfig{Preset: "Oldenburg", Schemes: []string{"CI"}, PIRStore: "xorpir"},
		},
		{
			name: "replica role with xorpir",
			cfg:  daemonConfig{Preset: "Oldenburg", Schemes: []string{"CI"}, PIRStore: "xorpir", ReplicaRole: true},
		},
		{
			name:    "replica role requires xorpir",
			cfg:     daemonConfig{Preset: "Oldenburg", Schemes: []string{"CI"}, ReplicaRole: true},
			wantErr: "-replica-role answers XOR PIR selector shares and requires -pir xorpir",
		},
		{
			name:    "replica role rejects plain store",
			cfg:     daemonConfig{Preset: "Oldenburg", Schemes: []string{"CI"}, PIRStore: "plain", ReplicaRole: true},
			wantErr: "requires -pir xorpir",
		},
		{
			name: "replica role with db path",
			cfg: daemonConfig{DBFiles: []string{"ci.psdb"}, PIRStore: "xorpir", ReplicaRole: true,
				Explicit: []string{"db", "pir", "replica-role"}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.cfg.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestValidateChaosWarning: an enabled chaos spec is legal but loudly
// flagged as development-only.
func TestValidateChaosWarning(t *testing.T) {
	warns, err := daemonConfig{Preset: "Oldenburg", Schemes: []string{"CI"},
		Chaos: "dialfail=5"}.validate()
	if err != nil {
		t.Fatalf("validate() = %v, want nil", err)
	}
	found := false
	for _, w := range warns {
		if strings.Contains(w, "development") {
			found = true
		}
	}
	if !found {
		t.Fatalf("chaos warnings = %q, want a development-only warning", warns)
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
