package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/privsp"
)

// writeEdgeList saves a network in the two-file format and returns the
// node and edge file paths.
func writeEdgeList(t *testing.T, net *privsp.Network) (string, string) {
	t.Helper()
	dir := t.TempDir()
	nodes, edges := filepath.Join(dir, "net.nodes"), filepath.Join(dir, "net.edges")
	nf, err := os.Create(nodes)
	if err != nil {
		t.Fatal(err)
	}
	defer nf.Close()
	ef, err := os.Create(edges)
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()
	if err := net.SaveNetwork(nf, ef); err != nil {
		t.Fatal(err)
	}
	return nodes, edges
}

func TestLoadNetwork(t *testing.T) {
	gen := privsp.Generate(privsp.Oldenburg, 0.02, 1)
	nodes, edges := writeEdgeList(t, gen)

	for _, tc := range []struct {
		name, preset, nodes, edges string
		wantErr                    string // substring; "" = loads
	}{
		{name: "preset", preset: "oldenburg"},
		{name: "nodes without edges", preset: "Oldenburg", nodes: nodes, wantErr: "-nodes and -edges must be given together"},
		{name: "edges without nodes", preset: "Oldenburg", edges: edges, wantErr: "-nodes and -edges must be given together"},
		{name: "edge list overrides preset", preset: "Nowhere", nodes: nodes, edges: edges},
		{name: "unknown preset", preset: "Atlantis", wantErr: `unknown preset "Atlantis"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, _, err := loadNetwork(tc.preset, 0.02, 1, tc.nodes, tc.edges)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("loadNetwork = %v, want error containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("loadNetwork = %v", err)
			}
			if net.NumNodes() != gen.NumNodes() || net.NumEdges() != gen.NumEdges() {
				t.Fatalf("loaded %d nodes, %d edges; want %d, %d",
					net.NumNodes(), net.NumEdges(), gen.NumNodes(), gen.NumEdges())
			}
		})
	}
}

func TestCheckNodes(t *testing.T) {
	net := privsp.Generate(privsp.Oldenburg, 0.02, 1)
	n := net.NumNodes()
	if err := checkNodes(net, 0, n-1); err != nil {
		t.Fatalf("checkNodes(0, %d) = %v, want nil", n-1, err)
	}
	for _, ids := range [][]int{{-1, 3}, {3, -1}, {n, 0}, {0, n}} {
		err := checkNodes(net, ids...)
		if err == nil || !strings.Contains(err.Error(), "node ids must be below") {
			t.Errorf("checkNodes(%v) = %v, want a refusal", ids, err)
		}
	}
}

func TestErrorLinePrefixesOnce(t *testing.T) {
	net := privsp.Generate(privsp.Oldenburg, 0.02, 1)
	_, buildErr := privsp.Build(net, privsp.Config{Scheme: "OBF"})
	if buildErr == nil {
		t.Fatal("Build accepted scheme OBF")
	}
	for _, tc := range []struct {
		err  error
		want string
	}{
		{buildErr, `privsp: unknown scheme "OBF"`},
		{errors.New("-out only applies to build"), "privsp: -out only applies to build"},
		{errors.New("ci: index record is not a region set"), "privsp: ci: index record is not a region set"},
	} {
		if got := errorLine(tc.err); got != tc.want {
			t.Errorf("errorLine(%q) = %q, want %q", tc.err, got, tc.want)
		}
	}
}
