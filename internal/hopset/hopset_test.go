package hopset

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/sssp"
)

// checkMetricPreserved asserts Definition 2.4 property 2 in aggregate:
// adding the hopset edges to g changes no shortest-path distance
// (every hopset edge is a real path, so it can only tie, never beat,
// the metric). Verified from a few sampled sources.
func checkMetricPreserved(t *testing.T, g *graph.Graph, edges []graph.Edge, seed uint64) {
	t.Helper()
	aug := g.Augment(edges)
	r := rng.New(seed)
	for trial := 0; trial < 4; trial++ {
		s := r.Int31n(g.NumVertices())
		base := sssp.Dijkstra(g, []graph.V{s}, sssp.Options{})
		plus := sssp.Dijkstra(aug, []graph.V{s}, sssp.Options{})
		for v := range base.Dist {
			if base.Dist[v] != plus.Dist[v] {
				t.Fatalf("hopset changed metric: dist(%d,%d) %d -> %d",
					s, v, base.Dist[v], plus.Dist[v])
			}
		}
	}
}

// hopsNeeded returns the smallest h (from the probe set) such that the
// h-hop distance in g ∪ extra is within factor (1+eps) of exact.
func hopsNeeded(g *graph.Graph, extra []graph.Edge, s, t graph.V, eps float64) int {
	exact := sssp.Dijkstra(g, []graph.V{s}, sssp.Options{}).Dist[t]
	if exact == graph.InfDist {
		return -1
	}
	bound := graph.Dist(math.Ceil(float64(exact) * (1 + eps)))
	for h := 1; h <= int(g.NumVertices()); h *= 2 {
		d := sssp.HopLimited(nil, g, extra, []graph.V{s}, h, nil)
		if d[t] <= bound {
			// Refine within (h/2, h].
			lo, hi := h/2+1, h
			for lo < hi {
				mid := (lo + hi) / 2
				if sssp.HopLimited(nil, g, extra, []graph.V{s}, mid, nil)[t] <= bound {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			return lo
		}
	}
	return int(g.NumVertices())
}

func TestBuildMetricPreserved(t *testing.T) {
	g := graph.RandomConnectedGNM(600, 2400, 1)
	res := Build(g, DefaultParams(2), nil)
	if res.Size() == 0 {
		t.Fatal("empty hopset on a 600-vertex graph")
	}
	checkMetricPreserved(t, g, res.Edges, 3)
}

func TestBuildMetricPreservedWeighted(t *testing.T) {
	g := graph.UniformWeights(graph.Grid2D(20, 20), 5, 4)
	res := Build(g, DefaultParams(5), nil)
	checkMetricPreserved(t, g, res.Edges, 6)
}

func TestBuildEdgeWeightsAreRealPaths(t *testing.T) {
	// Stronger per-edge check on a small graph: every hopset edge
	// weight is ≥ the true distance and ≤ the weight of some path,
	// i.e. finite and achievable; with exact distances from u it must
	// satisfy dist(u,v) ≤ w.
	g := graph.UniformWeights(graph.RandomConnectedGNM(120, 360, 7), 6, 8)
	res := Build(g, DefaultParams(9), nil)
	for _, e := range res.Edges {
		d := sssp.Dijkstra(g, []graph.V{e.U}, sssp.Options{}).Dist[e.V]
		if d == graph.InfDist {
			t.Fatalf("hopset edge (%d,%d) between disconnected vertices", e.U, e.V)
		}
		if e.W < d {
			t.Fatalf("hopset edge (%d,%d) weight %d below true distance %d",
				e.U, e.V, e.W, d)
		}
	}
}

func TestBuildSizeBounds(t *testing.T) {
	// Lemma 4.3: ≤ n star edges and ≤ (n/n_final)·ρ² clique edges.
	g := graph.RandomConnectedGNM(2000, 8000, 11)
	p := DefaultParams(12)
	res := Build(g, p, nil)
	n := int(g.NumVertices())
	if res.Stars > n {
		t.Fatalf("stars %d exceed n = %d", res.Stars, n)
	}
	rho := p.Rho(n)
	cliqueBound := float64(n) / float64(p.NFinal(n)) * rho * rho
	if float64(res.Cliques) > cliqueBound {
		t.Fatalf("cliques %d exceed Lemma 4.3 bound %.0f", res.Cliques, cliqueBound)
	}
	if res.Stars+res.Cliques != res.Size() {
		t.Fatalf("edge classification %d+%d != %d", res.Stars, res.Cliques, res.Size())
	}
}

func TestBuildReducesHops(t *testing.T) {
	// The defining benefit: on a high-diameter graph, far fewer hops
	// suffice for near-exact distances once the hopset is added.
	g := graph.Grid2D(40, 40)
	res := Build(g, DefaultParams(13), nil)
	r := rng.New(14)
	worse := 0
	const trials = 8
	for i := 0; i < trials; i++ {
		s := r.Int31n(g.NumVertices())
		u := r.Int31n(g.NumVertices())
		exact := sssp.Dijkstra(g, []graph.V{s}, sssp.Options{}).Dist[u]
		if exact < 20 {
			continue // short pairs carry no signal
		}
		hWith := hopsNeeded(g, res.Edges, s, u, 0.5)
		// Without the hopset, an unweighted graph needs exactly
		// `exact` hops.
		if float64(hWith) > 0.6*float64(exact) {
			worse++
		}
	}
	if worse > trials/2 {
		t.Fatalf("hopset failed to reduce hops on %d of %d long pairs", worse, trials)
	}
}

func TestBuildDeterministic(t *testing.T) {
	g := graph.RandomConnectedGNM(300, 1200, 15)
	a := Build(g, DefaultParams(16), nil)
	b := Build(g, DefaultParams(16), nil)
	if a.Size() != b.Size() {
		t.Fatalf("same seed produced different sizes %d vs %d", a.Size(), b.Size())
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("same seed produced different edges")
		}
	}
}

func TestBuildTinyGraphs(t *testing.T) {
	if got := Build(graph.FromEdges(0, nil, false), DefaultParams(1), nil).Size(); got != 0 {
		t.Fatalf("empty graph hopset size %d", got)
	}
	if got := Build(graph.Path(5), DefaultParams(1), nil).Size(); got != 0 {
		t.Fatalf("graph below n_final should produce no edges, got %d", got)
	}
}

func TestBuildCostAccounting(t *testing.T) {
	g := graph.RandomConnectedGNM(800, 3200, 17)
	cost := par.NewCost()
	Build(g, DefaultParams(18), cost)
	if cost.Work() == 0 || cost.Depth() == 0 {
		t.Fatal("no cost recorded")
	}
}

func TestParamsValidation(t *testing.T) {
	bad := []Params{
		{Epsilon: 0, Delta: 1.5, Gamma1: 0.1, Gamma2: 0.5},
		{Epsilon: 0.5, Delta: 1, Gamma1: 0.1, Gamma2: 0.5},
		{Epsilon: 0.5, Delta: 1.5, Gamma1: 0.5, Gamma2: 0.1},
		{Epsilon: 0.5, Delta: 1.5, Gamma1: 0.1, Gamma2: 1.2},
	}
	for i, p := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad params %d did not panic", i)
				}
			}()
			p.normalized()
		}()
	}
}

func TestParamsDerived(t *testing.T) {
	p := DefaultParams(1)
	n := 10000
	if p.Rho(n) <= 1 {
		t.Fatal("rho must exceed 1")
	}
	if p.BetaStep(n) <= 1 {
		t.Fatal("beta step must exceed 1")
	}
	if p.NFinal(n) < p.MinFinal {
		t.Fatal("NFinal below MinFinal")
	}
	if p.Beta0(n) <= 0 || p.Beta0(n) >= 1 {
		t.Fatalf("beta0 = %v", p.Beta0(n))
	}
	// Hop bound grows linearly in d.
	if p.ExpectedHops(n, 200) <= p.ExpectedHops(n, 100) {
		t.Fatal("hop bound not monotone in distance")
	}
	if p.MaxLevels(n) < 2 {
		t.Fatal("MaxLevels too small")
	}
	if p.ExpectedDistortion(n) <= 1 {
		t.Fatal("distortion envelope must exceed 1")
	}
}

func TestBuildScaledMetricAndQuery(t *testing.T) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(400, 1600, 19), 40, 20)
	cost := par.NewCost()
	s := BuildScaled(g, DefaultWeightedParams(21), cost)
	if len(s.Scales) == 0 {
		t.Fatal("no scales built")
	}
	checkMetricPreserved(t, g, s.Edges(), 22)

	r := rng.New(23)
	worstRatio := 1.0
	sumRatio, cnt := 0.0, 0
	for i := 0; i < 20; i++ {
		src := r.Int31n(g.NumVertices())
		dst := r.Int31n(g.NumVertices())
		if src == dst {
			continue
		}
		exact := s.ExactDistance(src, dst)
		q := s.Query(nil, src, dst, nil)
		if q.Dist < exact {
			t.Fatalf("query returned %d below exact %d", q.Dist, exact)
		}
		ratio := float64(q.Dist) / float64(exact)
		sumRatio += ratio
		cnt++
		if ratio > worstRatio {
			worstRatio = ratio
		}
	}
	if cnt == 0 {
		t.Fatal("no query samples")
	}
	if mean := sumRatio / float64(cnt); mean > 1.4 {
		t.Fatalf("mean query ratio %.3f too loose", mean)
	}
	if worstRatio > 2.0 {
		t.Fatalf("worst query ratio %.3f exceeds envelope", worstRatio)
	}
}

func TestQueryIdenticalEndpoints(t *testing.T) {
	g := graph.Path(20)
	s := BuildScaled(g, DefaultWeightedParams(1), nil)
	if q := s.Query(nil, 5, 5, nil); q.Dist != 0 {
		t.Fatalf("self query dist %d", q.Dist)
	}
}

func TestQueryDisconnected(t *testing.T) {
	g := graph.FromEdges(10, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}}, false)
	s := BuildScaled(g, DefaultWeightedParams(2), nil)
	q := s.Query(nil, 0, 3, nil)
	if q.Dist != graph.InfDist {
		t.Fatalf("disconnected query dist %d, want InfDist", q.Dist)
	}
	if !q.Fallback {
		t.Fatal("disconnected query must use the fallback")
	}
}

func TestQueryDepthBeatsPlainSearchOnGrid(t *testing.T) {
	// Corollary 5.4's point: when the weighted diameter is large,
	// the hopset query needs far fewer levels than plain weighted
	// parallel BFS (whose level count equals the distance). Heavy
	// weights put the instance in that regime; γ2 = 0.7 gives coarse
	// top-level clusters so the shortcut paths have few hops.
	g := graph.UniformWeights(graph.Grid2D(40, 40), 1000, 24)
	wp := DefaultWeightedParams(25)
	wp.Gamma2 = 0.7
	s := BuildScaled(g, wp, nil)
	r := rng.New(26)
	wins, valid := 0, 0
	for i := 0; i < 10; i++ {
		src := r.Int31n(g.NumVertices())
		dst := r.Int31n(g.NumVertices())
		exact := s.ExactDistance(src, dst)
		if exact < 5000 {
			continue
		}
		q := s.Query(nil, src, dst, nil)
		if q.Fallback {
			continue
		}
		valid++
		// Plain Dial would need `exact` levels.
		if q.Levels < exact {
			wins++
		}
	}
	if valid == 0 {
		t.Skip("no long pairs sampled")
	}
	if wins*2 < valid {
		t.Fatalf("query depth beat plain search on only %d of %d long pairs", wins, valid)
	}
}

func TestKS97(t *testing.T) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(300, 1200, 27), 9, 28)
	res := KS97(g, 29, nil)
	if res.Size() == 0 {
		t.Fatal("KS97 produced no edges")
	}
	// Every KS97 edge is an exact hub-pair distance.
	for i, e := range res.Edges {
		if i > 20 {
			break // spot check
		}
		d := sssp.Dijkstra(g, []graph.V{e.U}, sssp.Options{}).Dist[e.V]
		if d != e.W {
			t.Fatalf("KS97 edge (%d,%d) weight %d != exact %d", e.U, e.V, e.W, d)
		}
	}
	checkMetricPreserved(t, g, res.Edges, 30)
	// Size ≈ C(√n, 2) ≤ n.
	n := int(g.NumVertices())
	if res.Size() > n {
		t.Fatalf("KS97 size %d exceeds n = %d", res.Size(), n)
	}
}

func TestKS97ReducesHopsOnPath(t *testing.T) {
	g := graph.Path(400)
	res := KS97(g, 31, nil)
	h := hopsNeeded(g, res.Edges, 0, 399, 0.1)
	// With ~20 hubs on a 400-path, expected gap ~20; allow 4x.
	if h > 160 {
		t.Fatalf("KS97 hop count %d on 400-path; want ≲ 4√n", h)
	}
}

func TestCohenStyle(t *testing.T) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(400, 1600, 32), 7, 33)
	res := CohenStyle(g, 2, 34, nil)
	if res.Size() == 0 {
		t.Fatal("CohenStyle produced no edges")
	}
	checkMetricPreserved(t, g, res.Edges, 35)
}

func TestCohenStyleReducesHopsOnPath(t *testing.T) {
	g := graph.Path(500)
	res := CohenStyle(g, 2, 36, nil)
	h := hopsNeeded(g, res.Edges, 0, 499, 0.2)
	if h >= 250 {
		t.Fatalf("CohenStyle did not reduce hops: %d of 499", h)
	}
}

func TestLimited(t *testing.T) {
	g := graph.UniformWeights(graph.Grid2D(18, 18), 4, 37)
	res := Limited(g, 0.5, 0.4, 38, nil)
	if res.Size() == 0 {
		t.Fatal("Limited produced no edges")
	}
	checkMetricPreserved(t, g, res.Edges, 39)
	// Hop reduction on a long pair.
	h := hopsNeeded(g, res.Edges, 0, g.NumVertices()-1, 0.5)
	exactHops := 34 // grid corner-to-corner hop distance (17+17)
	if h >= exactHops {
		t.Fatalf("Limited hopset did not reduce hops: %d vs %d", h, exactHops)
	}
}

// TestLimitedHeavyPath: Limited rebuilds on its own augmented graph,
// whose shortcuts span the whole path and weigh far more than
// graph.WeightCap(n) allows an input edge; the rounds still build and
// keep the metric.
func TestLimitedHeavyPath(t *testing.T) {
	const n = 1000
	es := make([]graph.Edge, n-1)
	for i := range es {
		es[i] = graph.Edge{U: graph.V(i), V: graph.V(i + 1), W: 1 << 42}
	}
	g := graph.FromEdges(n, es, true)
	res := Limited(g, 0.5, 0.25, 1, nil)
	if res.Levels < 2 || g.Augment(res.Edges).MaxWeight() <= graph.WeightCap(n) {
		t.Fatalf("%d rounds, heaviest shortcut %d: the augmented rounds were not exercised",
			res.Levels, g.Augment(res.Edges).MaxWeight())
	}
	checkMetricPreserved(t, g, res.Edges, 2)
}

func TestLimitedPanics(t *testing.T) {
	g := graph.Path(10)
	for _, bad := range []struct{ alpha, eps float64 }{{0, 0.5}, {2.5, 0.5}, {0.5, 0}, {0.5, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Limited(%v, %v) did not panic", bad.alpha, bad.eps)
				}
			}()
			Limited(g, bad.alpha, bad.eps, 1, nil)
		}()
	}
}

// Property: on arbitrary connected weighted graphs the full pipeline
// returns sound answers: exact ≤ Query ≤ fallback-safe, metric
// preserved.
func TestPipelineSoundnessProperty(t *testing.T) {
	f := func(seedRaw uint32) bool {
		seed := uint64(seedRaw)
		r := rng.New(seed ^ 0xbeef)
		n := int32(r.Intn(120) + 20)
		m := int64(n) - 1 + int64(r.Intn(200))
		if max := int64(n) * int64(n-1) / 2; m > max {
			m = max
		}
		g := graph.UniformWeights(graph.RandomConnectedGNM(n, m, seed), 9, seed^3)
		s := BuildScaled(g, DefaultWeightedParams(seed^7), nil)
		src := graph.V(r.Int31n(n))
		dst := graph.V(r.Int31n(n))
		exact := s.ExactDistance(src, dst)
		q := s.Query(nil, src, dst, nil)
		if q.Dist < exact {
			return false
		}
		// Generous soundness envelope; tightness is asserted
		// statistically elsewhere.
		if exact > 0 && float64(q.Dist) > 3*float64(exact) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuildUnweighted(b *testing.B) {
	g := graph.RandomConnectedGNM(10000, 40000, 1)
	p := DefaultParams(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i)
		Build(g, p, nil)
	}
}

func BenchmarkBuildScaledWeighted(b *testing.B) {
	g := graph.UniformWeights(graph.Grid2D(60, 60), 16, 1)
	wp := DefaultWeightedParams(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wp.Seed = uint64(i)
		BuildScaled(g, wp, nil)
	}
}

func BenchmarkQuery(b *testing.B) {
	g := graph.UniformWeights(graph.Grid2D(60, 60), 16, 1)
	s := BuildScaled(g, DefaultWeightedParams(2), nil)
	s.Query(nil, 0, g.NumVertices()-1, nil) // warm caches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Query(nil, 0, g.NumVertices()-1, nil)
	}
}
