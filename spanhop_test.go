package spanhop

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/rng"
)

// TestESTClusterHugeWeight: the public clustering takes a graph with a
// 2^40-weight edge and returns what the reference priority search does.
func TestESTClusterHugeWeight(t *testing.T) {
	edges := []Edge{{U: 0, V: 1, W: 1 << 40}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 3}, {U: 3, V: 0, W: 1 << 33}}
	g := NewGraph(4, edges, true)
	for seed := uint64(1); seed <= 8; seed++ {
		got, want := ESTCluster(g, 0.5, seed), core.ClusterReference(g, 0.5, seed, core.Options{})
		for v := range want.Center {
			if got.Center[v] != want.Center[v] || got.Parent[v] != want.Parent[v] || got.DistToCenter[v] != want.DistToCenter[v] {
				t.Fatalf("seed %d vertex %d: center/parent/dist %d/%d/%d, reference %d/%d/%d", seed, v,
					got.Center[v], got.Parent[v], got.DistToCenter[v], want.Center[v], want.Parent[v], want.DistToCenter[v])
			}
		}
	}
}

func TestFacadeQuickstartFlow(t *testing.T) {
	g := RandomGraph(2000, 8000, 42)
	sp := UnweightedSpanner(g, 3, 1)
	if sp.Size() == 0 || int64(sp.Size()) >= g.NumEdges() {
		t.Fatalf("spanner size %d of %d edges", sp.Size(), g.NumEdges())
	}
	hs := BuildHopset(g, DefaultHopsetParams(2))
	if hs.Size() == 0 {
		t.Fatal("empty hopset")
	}
	res := ShortestPaths(g, 0)
	if !res.Reached(1999) {
		t.Fatal("connected graph unreachable")
	}
}

func TestFacadeCostVariants(t *testing.T) {
	g := RandomGraph(500, 2000, 7)
	c1 := NewCost()
	ESTClusterWithCost(g, 0.3, 1, c1)
	if c1.Work() == 0 {
		t.Fatal("clustering recorded no work")
	}
	c2 := NewCost()
	UnweightedSpannerWithCost(g, 3, 2, c2)
	if c2.Work() == 0 {
		t.Fatal("spanner recorded no work")
	}
	c3 := NewCost()
	BuildHopsetWithCost(g, DefaultHopsetParams(3), c3)
	if c3.Work() == 0 {
		t.Fatal("hopset recorded no work")
	}
	c4 := NewCost()
	wg := WithUniformWeights(g, 50, 4)
	BuildScaledHopsetWithCost(wg, DefaultScaledHopsetParams(5), c4)
	if c4.Work() == 0 {
		t.Fatal("scaled hopset recorded no work")
	}
}

func TestFacadeSearches(t *testing.T) {
	g := WithUniformWeights(GridGraph(10, 10), 5, 3)
	cost := NewCost()
	bfs := ParallelBFS(g, 0, cost)
	if bfs.Dist[99] != 18 {
		t.Fatalf("grid BFS corner dist %d, want 18", bfs.Dist[99])
	}
	dial := WeightedParallelBFS(g, 0, nil)
	dij := ShortestPaths(g, 0)
	for v := range dial.Dist {
		if dial.Dist[v] != dij.Dist[v] {
			t.Fatal("Dial != Dijkstra through facade")
		}
	}
	h := HopLimitedDistances(g, []Edge{{U: 0, V: 99, W: dij.Dist[99]}}, 0, 1)
	if h[99] != dij.Dist[99] {
		t.Fatalf("hop-limited with shortcut = %d", h[99])
	}
}

func TestFacadeBaselines(t *testing.T) {
	g := WithUniformWeights(RandomGraph(300, 1200, 9), 9, 10)
	if BaswanaSenSpanner(g, 2, 1).Size() == 0 {
		t.Fatal("empty Baswana-Sen spanner")
	}
	if GreedySpanner(g, 2).Size() == 0 {
		t.Fatal("empty greedy spanner")
	}
	if KS97Hopset(g, 2).Size() == 0 {
		t.Fatal("empty KS97 hopset")
	}
	if CohenStyleHopset(g, 2, 3).Size() == 0 {
		t.Fatal("empty Cohen-style hopset")
	}
	if LimitedHopset(WithUniformWeights(GridGraph(15, 15), 4, 1), 0.5, 0.4, 4).Size() == 0 {
		t.Fatal("empty limited hopset")
	}
}

func TestDistanceOracleDirect(t *testing.T) {
	// Single-scale weights: no decomposition needed.
	g := WithUniformWeights(RandomGraph(400, 1600, 11), 30, 12)
	o := hopsetOracle(g, 0.25, 13)
	if o.Decomposed() {
		t.Fatal("poly-bounded weights should not trigger decomposition")
	}
	if o.HopsetSize() == 0 {
		t.Fatal("oracle built no hopset")
	}
	r := rng.New(14)
	for i := 0; i < 15; i++ {
		s := r.Int31n(g.NumVertices())
		u := r.Int31n(g.NumVertices())
		exact := o.ExactDistance(s, u)
		got, err := o.Query(s, u)
		if err != nil {
			t.Fatal(err)
		}
		if got < exact {
			t.Fatalf("query(%d,%d) = %d below exact %d", s, u, got, exact)
		}
		if exact > 0 && float64(got) > 2.2*float64(exact) {
			t.Fatalf("query(%d,%d) = %d far above exact %d", s, u, got, exact)
		}
	}
}

func TestDistanceOracleDecomposed(t *testing.T) {
	// Weights spanning ~18 decades force the Appendix B decomposition
	// for eps = 0.25 at n = 150 ((n/eps)³ ≈ 2·10⁸).
	g := WithMultiScaleWeights(RandomGraph(150, 600, 15), 10, 18, 16)
	o := hopsetOracle(g, 0.25, 17)
	if !o.Decomposed() {
		t.Fatalf("ratio %.3g should trigger decomposition", g.WeightRatio())
	}
	r := rng.New(18)
	for i := 0; i < 15; i++ {
		s := r.Int31n(g.NumVertices())
		u := r.Int31n(g.NumVertices())
		exact := o.ExactDistance(s, u)
		got, err := o.Query(s, u)
		if err != nil {
			t.Fatal(err)
		}
		if exact == 0 {
			if got != 0 {
				t.Fatalf("query(%d,%d) = %d, want 0", s, u, got)
			}
			continue
		}
		ratio := float64(got) / float64(exact)
		// Decomposition may shave up to ε below; hopset may add above.
		if ratio < 1-0.25-1e-9 || ratio > 2.5 {
			t.Fatalf("query(%d,%d) = %d vs exact %d (ratio %.3f)", s, u, got, exact, ratio)
		}
	}
}

func TestDistanceOracleEdgeCases(t *testing.T) {
	g := NewGraph(4, []Edge{{U: 0, V: 1, W: 5}}, true)
	for _, hop := range []bool{false, true} {
		o := NewDistanceOracleOpts(g, 0.5, 1, OracleOptions{Hopset: hop})
		if d, err := o.Query(2, 2); err != nil || d != 0 {
			t.Fatalf("hopset=%v: self query = %d, %v", hop, d, err)
		}
		if d, err := o.Query(0, 3); err != nil || d != InfDist {
			t.Fatalf("hopset=%v: disconnected query = %d, %v", hop, d, err)
		}
		if _, err := o.Query(-1, 2); err == nil {
			t.Fatalf("hopset=%v: out-of-range query should error", hop)
		}
		if _, err := o.Query(0, 4); err == nil {
			t.Fatalf("hopset=%v: out-of-range query should error", hop)
		}
	}
}

func TestDistanceOraclePanicsOnBadEps(t *testing.T) {
	g := NewGraph(2, []Edge{{U: 0, V: 1, W: 1}}, true)
	for _, eps := range []float64{0, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("eps %v did not panic", eps)
				}
			}()
			NewDistanceOracle(g, eps, 1)
		}()
	}
}

// Property: oracle answers are always sound (never below exact minus
// the decomposition allowance, finite iff connected).
func TestDistanceOracleSoundnessProperty(t *testing.T) {
	f := func(seedRaw uint32, multiScale bool) bool {
		seed := uint64(seedRaw)
		r := rng.New(seed ^ 0xabc)
		n := V(r.Intn(80) + 20)
		m := int64(n) - 1 + int64(r.Intn(150))
		if max := int64(n) * int64(n-1) / 2; m > max {
			m = max
		}
		g := RandomGraph(n, m, seed)
		if multiScale {
			g = WithMultiScaleWeights(g, 10, 16, seed^1)
		} else {
			g = WithUniformWeights(g, 20, seed^1)
		}
		eps := 0.25
		o := hopsetOracle(g, eps, seed^2)
		for i := 0; i < 5; i++ {
			s := r.Int31n(n)
			u := r.Int31n(n)
			exact := o.ExactDistance(s, u)
			got, err := o.Query(s, u)
			if err != nil {
				return false
			}
			if exact == InfDist {
				if got != InfDist {
					return false
				}
				continue
			}
			if float64(got) < (1-eps)*float64(exact)-1e-9 {
				return false
			}
			if exact > 0 && float64(got) > 3*float64(exact) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
