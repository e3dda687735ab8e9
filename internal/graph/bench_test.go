package graph

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func benchNetwork(n int) *Graph {
	rng := rand.New(rand.NewSource(1))
	g := NewUndirected()
	for i := 0; i < n; i++ {
		g.AddNode(geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100})
	}
	for i := 1; i < n; i++ {
		j := NodeID(rng.Intn(i))
		g.MustAddEdge(j, NodeID(i), g.Point(j).Dist(g.Point(NodeID(i)))+1e-9)
	}
	for i := 0; i < n/4; i++ {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if u != v {
			if _, ok := g.EdgeWeight(u, v); !ok {
				g.MustAddEdge(u, v, g.Point(u).Dist(g.Point(v))+1e-9)
			}
		}
	}
	return g
}

func BenchmarkDijkstraFull10k(b *testing.B) {
	g := benchNetwork(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dijkstra(g, NodeID(i%g.NumNodes()))
	}
}

func BenchmarkDijkstraPointToPoint10k(b *testing.B) {
	g := benchNetwork(10000)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DijkstraTo(g, NodeID(rng.Intn(g.NumNodes())), NodeID(rng.Intn(g.NumNodes())))
	}
}

func BenchmarkHeapPushPop(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const n = 4096
	prios := make([]float64, n)
	for i := range prios {
		prios[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := newNodeHeap(n)
		for j := 0; j < n; j++ {
			h.PushOrDecrease(NodeID(j), prios[j])
		}
		for h.Len() > 0 {
			h.Pop()
		}
	}
}
