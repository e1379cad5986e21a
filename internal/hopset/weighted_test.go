package hopset

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/sssp"
)

func TestRoundGraph(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{
		{U: 0, V: 1, W: 10}, {U: 1, V: 2, W: 15}, {U: 0, V: 2, W: 1},
	}, true)
	r := roundGraph(g, 4)
	// ceil(10/4)=3, ceil(15/4)=4, ceil(1/4)=1.
	want := []graph.W{3, 4, 1}
	for i, e := range r.Edges() {
		if e.W != want[i] {
			t.Fatalf("rounded edge %d weight %d, want %d", i, e.W, want[i])
		}
	}
	// Same topology, same order.
	for i := range g.Edges() {
		if g.Edges()[i].U != r.Edges()[i].U || g.Edges()[i].V != r.Edges()[i].V {
			t.Fatal("rounding permuted edges")
		}
	}
	// wHat <= 1 returns the same weighted graph.
	if roundGraph(g, 1) != g {
		t.Fatal("wHat=1 should return the input weighted graph unchanged")
	}
	// Unweighted promotion yields explicit unit weights.
	u := graph.Path(4)
	p := roundGraph(u, 1)
	if !p.Weighted() || p.EdgeWeight(0) != 1 {
		t.Fatal("unweighted promotion broken")
	}
}

func TestRoundingNeverUndershoots(t *testing.T) {
	// qHat·roundedDist >= trueDist for all vertices: rounding up can
	// only overestimate (the soundness direction of Lemma 5.2).
	g := graph.UniformWeights(graph.RandomConnectedGNM(120, 400, 3), 50, 4)
	for _, wHat := range []graph.W{2, 7, 31} {
		r := roundGraph(g, wHat)
		exact := sssp.Dijkstra(g, []graph.V{0}, sssp.Options{})
		rounded := sssp.Dijkstra(r, []graph.V{0}, sssp.Options{})
		for v := range exact.Dist {
			if exact.Dist[v] == graph.InfDist {
				continue
			}
			if graph.Dist(wHat)*rounded.Dist[v] < exact.Dist[v] {
				t.Fatalf("wHat=%d vertex %d: scaled rounded %d < exact %d",
					wHat, v, graph.Dist(wHat)*rounded.Dist[v], exact.Dist[v])
			}
		}
	}
}

func TestBuildScaledBandStructure(t *testing.T) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(300, 900, 5), 200, 6)
	s := BuildScaled(g, DefaultWeightedParams(7), nil)
	if len(s.Scales) == 0 {
		t.Fatal("no bands")
	}
	// Bands are ascending and cover the distance range.
	n := float64(g.NumVertices())
	maxDist := n * float64(g.MaxWeight())
	for i := 1; i < len(s.Scales); i++ {
		if s.Scales[i].D <= s.Scales[i-1].D {
			t.Fatal("bands not ascending")
		}
	}
	top := s.Scales[len(s.Scales)-1].D
	if top < maxDist {
		t.Fatalf("top band %.0f below max distance %.0f", top, maxDist)
	}
	// Rounding granularity is monotone in the band.
	for i := 1; i < len(s.Scales); i++ {
		if s.Scales[i].WHat < s.Scales[i-1].WHat {
			t.Fatal("wHat not monotone across bands")
		}
	}
}

func TestBuildScaledSkipsSubMinimumBands(t *testing.T) {
	// All weights ≥ 10^6: bands below the minimum weight are useless
	// and must be skipped, keeping the band count O(1/eta).
	edges := []graph.Edge{}
	g0 := graph.Path(60)
	for _, e := range g0.Edges() {
		edges = append(edges, graph.Edge{U: e.U, V: e.V, W: 1_000_000 + int64(e.U)})
	}
	g := graph.FromEdges(60, edges, true)
	s := BuildScaled(g, DefaultWeightedParams(8), nil)
	if len(s.Scales) == 0 {
		t.Fatal("no bands")
	}
	if s.Scales[0].D < 500_000 {
		t.Fatalf("first band %.0f wastes levels below min weight 10^6", s.Scales[0].D)
	}
	// The whole pipeline still answers correctly on the huge weights.
	q := s.Query(0, 59, nil)
	exact := s.ExactDistance(0, 59)
	if q.Dist < exact || float64(q.Dist) > 1.6*float64(exact) {
		t.Fatalf("huge-weight query %d vs exact %d", q.Dist, exact)
	}
}

func TestBuildScaledBandEdgeFiltering(t *testing.T) {
	// A graph with one enormous edge: small bands must not race it
	// (their hopsets are built on the filtered subgraph), yet the
	// metric stays intact because hopset edges are true paths.
	base := graph.Path(50)
	edges := make([]graph.Edge, 0, 50)
	for _, e := range base.Edges() {
		edges = append(edges, graph.Edge{U: e.U, V: e.V, W: 2})
	}
	edges = append(edges, graph.Edge{U: 0, V: 49, W: 1 << 40})
	g := graph.FromEdges(50, edges, true)
	s := BuildScaled(g, DefaultWeightedParams(9), nil)
	for _, e := range s.Edges() {
		d := sssp.Dijkstra(g, []graph.V{e.U}, sssp.Options{}).Dist[e.V]
		if e.W < d {
			t.Fatalf("hopset edge below metric: (%d,%d) w=%d dist=%d", e.U, e.V, e.W, d)
		}
	}
	q := s.Query(0, 49, nil)
	if q.Dist < 98 || q.Dist > 160 {
		t.Fatalf("query = %d, want ~98 (path), not the 2^40 edge", q.Dist)
	}
}

func TestScaledAugmentedIdempotent(t *testing.T) {
	g := graph.UniformWeights(graph.Cycle(30), 9, 10)
	s := BuildScaled(g, DefaultWeightedParams(11), nil)
	a := s.Augmented()
	b := s.Augmented()
	if a != b {
		t.Fatal("Augmented not cached")
	}
	if a.NumEdges() != g.NumEdges()+int64(s.Size()) {
		t.Fatalf("augmented edges %d, want %d + %d", a.NumEdges(), g.NumEdges(), s.Size())
	}
}

func TestWeightedParamsValidation(t *testing.T) {
	for _, bad := range []WeightedParams{
		{Params: DefaultParams(1), Eta: 0, Zeta: 0.2},
		{Params: DefaultParams(1), Eta: 1.5, Zeta: 0.2},
		{Params: DefaultParams(1), Eta: 0.2, Zeta: 0},
		{Params: DefaultParams(1), Eta: 0.2, Zeta: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("params %+v did not panic", bad)
				}
			}()
			bad.normalized()
		}()
	}
	// Defaults fill in.
	wp := WeightedParams{Params: DefaultParams(1), Eta: 0.2, Zeta: 0.2}
	wp = wp.normalized()
	if wp.Escalation != 8 || wp.InitialHopBudget != 16 {
		t.Fatalf("defaults not applied: %+v", wp)
	}
}

func TestQueryEscalationEngagesOnLongPaths(t *testing.T) {
	// On a long weighted path the shortcut paths exceed the initial
	// budget only when the band structure is coarse; verify both the
	// default and a no-adaptivity configuration answer soundly.
	g := graph.UniformWeights(graph.Path(800), 50, 12)
	for _, initial := range []float64{16, 1e9} {
		wp := DefaultWeightedParams(13)
		wp.InitialHopBudget = initial
		s := BuildScaled(g, wp, nil)
		exact := s.ExactDistance(0, 799)
		q := s.Query(0, 799, nil)
		if q.Dist < exact || float64(q.Dist) > 1.6*float64(exact) {
			t.Fatalf("initial=%g: query %d vs exact %d", initial, q.Dist, exact)
		}
	}
}

func TestLimitedRoundsAccumulate(t *testing.T) {
	g := graph.UniformWeights(graph.Grid2D(12, 12), 6, 14)
	res := Limited(g, 0.8, 0.4, 15, nil)
	if res.Levels < 1 {
		t.Fatalf("no rounds recorded: %+v", res.Levels)
	}
	if res.Size() == 0 {
		t.Fatal("no edges")
	}
}

func TestExpectedHopsFormula(t *testing.T) {
	p := DefaultParams(1)
	n := 10000
	// h = n^{1/δ}·nf^{1−1/δ}·β0·d exactly.
	d := 500.0
	nf := float64(p.NFinal(n))
	want := math.Pow(float64(n), 1/p.Delta) * math.Pow(nf, 1-1/p.Delta) *
		p.Beta0(n) * d
	if got := p.ExpectedHops(n, d); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("ExpectedHops = %v, want %v", got, want)
	}
}
