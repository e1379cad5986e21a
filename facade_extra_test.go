package spanhop

// Additional facade coverage: constructors and variants not exercised
// by the main flow tests.

import (
	"testing"
)

func TestRMATGraphFacade(t *testing.T) {
	g := RMATGraph(8, 1000, 3)
	if g.NumVertices() != 256 {
		t.Fatalf("n = %d, want 256", g.NumVertices())
	}
	if g.NumEdges() < 800 {
		t.Fatalf("m = %d, too few", g.NumEdges())
	}
}

func TestGridGraphFacade(t *testing.T) {
	g := GridGraph(5, 8)
	if g.NumVertices() != 40 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	res := ShortestPaths(g, 0)
	if res.Dist[39] != 11 {
		t.Fatalf("corner distance %d, want 11", res.Dist[39])
	}
}

func TestWithMultiScaleWeightsFacade(t *testing.T) {
	g := WithMultiScaleWeights(GridGraph(6, 6), 10, 8, 5)
	if !g.Weighted() {
		t.Fatal("not weighted")
	}
	if g.WeightRatio() < 100 {
		t.Fatalf("ratio %v too small for multi-scale", g.WeightRatio())
	}
}

func TestConcurrentBFSFacade(t *testing.T) {
	g := GridGraph(25, 25)
	cost := NewCost()
	a := ConcurrentBFS(g, 0, cost)
	b := ParallelBFS(g, 0, nil)
	for v := range a.Dist {
		if a.Dist[v] != b.Dist[v] {
			t.Fatal("ConcurrentBFS disagrees with ParallelBFS")
		}
	}
	if cost.Depth() == 0 {
		t.Fatal("no depth recorded")
	}
}

func TestWeightedParallelBFSFacade(t *testing.T) {
	g := WithUniformWeights(GridGraph(10, 10), 7, 6)
	cost := NewCost()
	res := WeightedParallelBFSOn(g, 0, nil, cost)
	exact := ShortestPaths(g, 0)
	for v := range res.Dist {
		if res.Dist[v] != exact.Dist[v] {
			t.Fatal("Dial != Dijkstra via facade")
		}
	}
	// Depth of the weighted BFS equals the distance range swept.
	var maxD Dist
	for _, d := range exact.Dist {
		if d < InfDist && d > maxD {
			maxD = d
		}
	}
	if cost.Depth() < maxD {
		t.Fatalf("depth %d below max distance %d", cost.Depth(), maxD)
	}
}

func TestLimitedHopsetFacade(t *testing.T) {
	g := WithUniformWeights(GridGraph(12, 12), 4, 7)
	res := LimitedHopset(g, 0.6, 0.4, 8)
	if res.Size() == 0 {
		t.Fatal("empty limited hopset")
	}
	// Metric preservation through the facade path.
	aug := NewGraph(g.NumVertices(), append(append([]Edge{}, g.Edges()...), res.Edges...), true)
	a := ShortestPaths(g, 0)
	b := ShortestPaths(aug, 0)
	for v := range a.Dist {
		if a.Dist[v] != b.Dist[v] {
			t.Fatal("limited hopset changed the metric")
		}
	}
}

func TestDefaultParamConstructors(t *testing.T) {
	p := DefaultHopsetParams(9)
	if p.Seed != 9 || p.Epsilon <= 0 {
		t.Fatalf("bad default params %+v", p)
	}
	wp := DefaultScaledHopsetParams(10)
	if wp.Seed != 10 || wp.Eta <= 0 || wp.Zeta <= 0 {
		t.Fatalf("bad default scaled params %+v", wp)
	}
}

func TestGreedySpannerFacade(t *testing.T) {
	g := WithUniformWeights(RandomGraph(60, 300, 11), 9, 12)
	sp := GreedySpanner(g, 2)
	if sp.Size() == 0 || int64(sp.Size()) > g.NumEdges() {
		t.Fatalf("greedy size %d", sp.Size())
	}
}

func TestOracleOnUnweightedGraph(t *testing.T) {
	// Unweighted graphs flow through the direct (single-scale-ish)
	// path: ratio 1 is trivially poly-bounded.
	g := GridGraph(15, 15)
	o := hopsetOracle(g, 0.25, 13)
	if o.Decomposed() {
		t.Fatal("unweighted graph should not decompose")
	}
	d, err := o.Query(0, 224)
	if err != nil {
		t.Fatal(err)
	}
	exact := o.ExactDistance(0, 224)
	if d < exact || float64(d) > 1.6*float64(exact) {
		t.Fatalf("unweighted oracle %d vs exact %d", d, exact)
	}
}

func TestOracleEmptyGraph(t *testing.T) {
	g := NewGraph(3, nil, true)
	o := hopsetOracle(g, 0.5, 14)
	if o.HopsetSize() != 0 {
		t.Fatal("edgeless graph grew a hopset")
	}
	d, err := o.Query(0, 2)
	if err != nil || d != InfDist {
		t.Fatalf("edgeless query = %d, %v", d, err)
	}
}
