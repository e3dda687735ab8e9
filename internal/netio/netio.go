// Package netio reads and writes road networks in the plain edge-list
// format the original datasets ship in (Brinkhoff generator / Digital Chart
// of the World exports): a node file of "id x y" lines and an edge file of
// "id from to weight" lines, whitespace separated. Lines starting with '#'
// and blank lines are ignored. It lets the library run on the paper's real
// datasets when available, while the synthetic generator covers offline use.
package netio

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/geom"
	"repro/internal/graph"
)

// ReadNetwork parses a node list and an edge list into an undirected
// network: each edge line is a road both ways. Node IDs in the files may be
// arbitrary; they are remapped to dense IDs in file order, and edges refer
// to the original IDs. A road listed more than once, in either direction,
// keeps its least weight. A coordinate that is NaN or infinite is refused:
// the partitions and the geometry built on it assume finite points.
func ReadNetwork(nodes, edges io.Reader) (*graph.Graph, error) {
	g := graph.NewUndirected()
	idMap := map[int64]graph.NodeID{}
	if err := eachLine(nodes, func(lineNo int, fields []string) error {
		if len(fields) < 3 {
			return fmt.Errorf("node line %d: want 'id x y', got %d fields", lineNo, len(fields))
		}
		id, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return fmt.Errorf("node line %d: id: %w", lineNo, err)
		}
		x, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return fmt.Errorf("node line %d: x: %w", lineNo, err)
		}
		y, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return fmt.Errorf("node line %d: y: %w", lineNo, err)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
			return fmt.Errorf("node line %d: coordinates (%v, %v) are not finite", lineNo, x, y)
		}
		if _, dup := idMap[id]; dup {
			return fmt.Errorf("node line %d: duplicate id %d", lineNo, id)
		}
		idMap[id] = g.AddNode(geom.Point{X: x, Y: y})
		return nil
	}); err != nil {
		return nil, err
	}
	if err := eachLine(edges, func(lineNo int, fields []string) error {
		// Formats in the wild: "edgeId from to weight" or "from to weight".
		if len(fields) < 3 {
			return fmt.Errorf("edge line %d: want at least 'from to weight'", lineNo)
		}
		off := 0
		if len(fields) >= 4 {
			off = 1 // leading edge id
		}
		from, err := strconv.ParseInt(fields[off], 10, 64)
		if err != nil {
			return fmt.Errorf("edge line %d: from: %w", lineNo, err)
		}
		to, err := strconv.ParseInt(fields[off+1], 10, 64)
		if err != nil {
			return fmt.Errorf("edge line %d: to: %w", lineNo, err)
		}
		w, err := strconv.ParseFloat(fields[off+2], 64)
		if err != nil {
			return fmt.Errorf("edge line %d: weight: %w", lineNo, err)
		}
		u, ok := idMap[from]
		if !ok {
			return fmt.Errorf("edge line %d: unknown node %d", lineNo, from)
		}
		v, ok := idMap[to]
		if !ok {
			return fmt.Errorf("edge line %d: unknown node %d", lineNo, to)
		}
		if err := g.AddEdge(u, v, w); err != nil {
			return fmt.Errorf("edge line %d: %w", lineNo, err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return g, nil
}

// WriteNetwork emits the network in the same two-file format, one edge line
// per road.
func WriteNetwork(g *graph.Graph, nodes, edges io.Writer) error {
	nw := bufio.NewWriter(nodes)
	fmt.Fprintln(nw, "# id x y")
	for i := 0; i < g.NumNodes(); i++ {
		p := g.Point(graph.NodeID(i))
		fmt.Fprintf(nw, "%d %.17g %.17g\n", i, p.X, p.Y)
	}
	if err := nw.Flush(); err != nil {
		return err
	}
	ew := bufio.NewWriter(edges)
	fmt.Fprintln(ew, "# id from to weight")
	id := 0
	var werr error
	emit := func(e graph.Edge) bool {
		if _, err := fmt.Fprintf(ew, "%d %d %d %.17g\n", id, e.From, e.To, e.W); err != nil {
			werr = err
			return false
		}
		id++
		return true
	}
	g.UndirectedEdges(emit)
	if werr != nil {
		return werr
	}
	return ew.Flush()
}

func eachLine(r io.Reader, fn func(lineNo int, fields []string) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := fn(lineNo, strings.Fields(line)); err != nil {
			return err
		}
	}
	return sc.Err()
}
