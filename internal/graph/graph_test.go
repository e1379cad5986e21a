package graph

import (
	"testing"
	"testing/quick"

	"repro/internal/par"
	"repro/internal/rng"
)

func mustValidate(t *testing.T, g *Graph) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid graph: %v", err)
	}
}

func TestFromEdgesBasic(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1, 5}, {1, 2, 3}, {2, 3, 7}, {0, 3, 2}}, true)
	mustValidate(t, g)
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if !g.Weighted() {
		t.Fatal("graph should be weighted")
	}
	if g.MinWeight() != 2 || g.MaxWeight() != 7 {
		t.Fatalf("weight range [%d,%d], want [2,7]", g.MinWeight(), g.MaxWeight())
	}
	if g.Degree(0) != 2 || g.Degree(1) != 2 || g.Degree(2) != 2 || g.Degree(3) != 2 {
		t.Fatal("cycle degrees wrong")
	}
	// Adjacency of 0 must be {1, 3} with weights {5, 2}.
	got := map[V]W{}
	for _, a := range g.Arcs(0) {
		got[a.To] = W(a.W)
	}
	if got[1] != 5 || got[3] != 2 || len(got) != 2 {
		t.Fatalf("adjacency of 0: %v", got)
	}
}

func TestFromEdgesUnweighted(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1, 99}, {1, 2, 0}}, false)
	mustValidate(t, g)
	if g.Weighted() {
		t.Fatal("should be unweighted")
	}
	for i := range g.Edges() {
		if g.EdgeWeight(int32(i)) != 1 {
			t.Fatalf("unweighted edge %d has weight %d", i, g.EdgeWeight(int32(i)))
		}
	}
	for _, a := range g.Arcs(1) {
		if a.W != 1 {
			t.Fatalf("unweighted arc %d->%d stores weight %d, want 1", 1, a.To, a.W)
		}
	}
	if g.Wide(0) != nil {
		t.Fatal("unweighted graph should have nil Wide")
	}
	if g.WeightRatio() != 1 {
		t.Fatalf("weight ratio %v, want 1", g.WeightRatio())
	}
}

func TestFromEdgesEmpty(t *testing.T) {
	g := FromEdges(5, nil, true)
	mustValidate(t, g)
	if g.NumEdges() != 0 {
		t.Fatal("expected no edges")
	}
	if g.MinWeight() != 1 || g.MaxWeight() != 1 {
		t.Fatal("empty graph weight range should be [1,1]")
	}
	g0 := FromEdges(0, nil, false)
	mustValidate(t, g0)
}

func TestFromEdgesPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"self-loop", func() { FromEdges(2, []Edge{{1, 1, 1}}, false) }},
		{"out-of-range", func() { FromEdges(2, []Edge{{0, 2, 1}}, false) }},
		{"negative-vertex", func() { FromEdges(2, []Edge{{-1, 0, 1}}, false) }},
		{"zero-weight", func() { FromEdges(2, []Edge{{0, 1, 0}}, true) }},
		{"negative-n", func() { FromEdges(-1, nil, false) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", c.name)
				}
			}()
			c.fn()
		})
	}
}

func TestSimplify(t *testing.T) {
	in := []Edge{
		{1, 0, 5}, {0, 1, 3}, {0, 1, 9}, // parallels; keep weight 3
		{2, 2, 1}, // self loop; dropped
		{3, 2, 4},
	}
	out := Simplify(in)
	if len(out) != 2 {
		t.Fatalf("Simplify kept %d edges, want 2: %v", len(out), out)
	}
	if out[0] != (Edge{0, 1, 3}) {
		t.Fatalf("first edge %v, want {0 1 3}", out[0])
	}
	if out[1] != (Edge{2, 3, 4}) {
		t.Fatalf("second edge %v, want {2 3 4}", out[1])
	}
}

func TestEdgeIDsConsistent(t *testing.T) {
	g := RandomConnectedGNM(200, 800, 7)
	mustValidate(t, g)
	// Walking the CSR and looking up eids must reproduce endpoints.
	for v := V(0); v < g.NumVertices(); v++ {
		ids := g.AdjEdgeIDs(v)
		for i, a := range g.Arcs(v) {
			u := a.To
			e := g.Edges()[ids[i]]
			if !((e.U == v && e.V == u) || (e.U == u && e.V == v)) {
				t.Fatalf("edge id mismatch at %d->%d", v, u)
			}
		}
	}
}

func TestSubgraphFromEdgeIDs(t *testing.T) {
	g := RandomConnectedGNM(50, 120, 3)
	ids := []int32{0, 5, 10, 11}
	h := g.SubgraphFromEdgeIDs(ids)
	mustValidate(t, h)
	if h.NumVertices() != g.NumVertices() {
		t.Fatal("subgraph must keep vertex set")
	}
	if h.NumEdges() != int64(len(ids)) {
		t.Fatalf("subgraph edges %d, want %d", h.NumEdges(), len(ids))
	}
	for i, id := range ids {
		want := g.Edges()[id]
		got := h.Edges()[i]
		if got.U != want.U || got.V != want.V {
			t.Fatalf("edge %d: got %v want %v", i, got, want)
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	//  0-1-2-3 path plus chord 0-2
	g := FromEdges(4, []Edge{{0, 1, 1}, {1, 2, 2}, {2, 3, 3}, {0, 2, 4}}, true)
	sub, origOf := g.InducedSubgraph([]V{0, 2, 3})
	mustValidate(t, sub)
	if sub.NumVertices() != 3 {
		t.Fatalf("induced n = %d", sub.NumVertices())
	}
	// Edges inside {0,2,3}: (2,3,3) and (0,2,4).
	if sub.NumEdges() != 2 {
		t.Fatalf("induced m = %d, want 2", sub.NumEdges())
	}
	if origOf[0] != 0 || origOf[1] != 2 || origOf[2] != 3 {
		t.Fatalf("origOf = %v", origOf)
	}
	var totalW W
	for _, e := range sub.Edges() {
		totalW += e.W
	}
	if totalW != 7 {
		t.Fatalf("induced total weight %d, want 7", totalW)
	}
}

func TestInducedSubgraphDuplicatePanics(t *testing.T) {
	g := Path(4)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate vertex did not panic")
		}
	}()
	g.InducedSubgraph([]V{0, 0})
}

func TestContractBasic(t *testing.T) {
	// Square 0-1-2-3-0 with a diagonal 1-3. Contract {0,1} and {2,3}.
	g := FromEdges(4, []Edge{
		{0, 1, 1}, {1, 2, 5}, {2, 3, 1}, {3, 0, 2}, {1, 3, 4},
	}, true)
	label := []V{0, 0, 1, 1}
	q := g.Contract(label, 2)
	mustValidate(t, q)
	if q.NumVertices() != 2 {
		t.Fatalf("quotient n = %d", q.NumVertices())
	}
	// Cross edges: (1,2,5), (3,0,2), (1,3,4) -> parallel; min weight 2.
	if q.NumEdges() != 1 {
		t.Fatalf("quotient m = %d, want 1", q.NumEdges())
	}
	e := q.Edges()[0]
	if e.W != 2 {
		t.Fatalf("quotient kept weight %d, want min 2", e.W)
	}
	// Back-mapping points at the (3,0,2) edge, id 3 in g.
	if q.OrigEdgeID(0) != 3 {
		t.Fatalf("orig edge id %d, want 3", q.OrigEdgeID(0))
	}
}

func TestContractChainsBackMapping(t *testing.T) {
	// Path 0-1-2-3 with distinct weights; contract twice and check the
	// surviving edge id chains to the original graph.
	g := FromEdges(4, []Edge{{0, 1, 1}, {1, 2, 2}, {2, 3, 3}}, true)
	q1 := g.Contract([]V{0, 0, 1, 2}, 3) // merge {0,1}
	mustValidate(t, q1)
	if q1.NumEdges() != 2 {
		t.Fatalf("q1 m = %d, want 2", q1.NumEdges())
	}
	q2 := q1.Contract([]V{0, 0, 1}, 2) // merge {01, 2}
	mustValidate(t, q2)
	if q2.NumEdges() != 1 {
		t.Fatalf("q2 m = %d, want 1", q2.NumEdges())
	}
	// The surviving edge is (2,3) with weight 3, edge id 2 in g.
	if q2.Edges()[0].W != 3 {
		t.Fatalf("q2 weight %d, want 3", q2.Edges()[0].W)
	}
	if q2.OrigEdgeID(0) != 2 {
		t.Fatalf("chained orig id %d, want 2", q2.OrigEdgeID(0))
	}
}

func TestContractAllOneLabel(t *testing.T) {
	g := Complete(5)
	q := g.Contract([]V{0, 0, 0, 0, 0}, 1)
	mustValidate(t, q)
	if q.NumVertices() != 1 || q.NumEdges() != 0 {
		t.Fatalf("contract to point: n=%d m=%d", q.NumVertices(), q.NumEdges())
	}
}

func TestComponents(t *testing.T) {
	// Two triangles and an isolated vertex.
	g := FromEdges(7, []Edge{
		{0, 1, 1}, {1, 2, 1}, {2, 0, 1},
		{3, 4, 1}, {4, 5, 1}, {5, 3, 1},
	}, false)
	comp, count := g.Components()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatal("triangle 1 split")
	}
	if comp[3] != comp[4] || comp[4] != comp[5] {
		t.Fatal("triangle 2 split")
	}
	if comp[0] == comp[3] || comp[0] == comp[6] || comp[3] == comp[6] {
		t.Fatal("components merged")
	}
}

func TestComponentsParallelMatchesSequential(t *testing.T) {
	graphs := []*Graph{
		FromEdges(1, nil, false),
		Path(50),
		Cycle(33),
		Star(40),
		RandomGNM(300, 200, 5), // sparse: many components
		RandomConnectedGNM(200, 400, 6),
		Grid2D(10, 17),
	}
	for gi, g := range graphs {
		seqComp, seqCount := g.Components()
		cost := par.NewCost()
		parComp, parCount := g.ComponentsParallel(cost)
		if seqCount != parCount {
			t.Fatalf("graph %d: counts %d vs %d", gi, seqCount, parCount)
		}
		// Same partition up to relabeling.
		fwd := map[V]V{}
		for v := range seqComp {
			if got, ok := fwd[seqComp[v]]; ok {
				if got != parComp[v] {
					t.Fatalf("graph %d: partition mismatch at vertex %d", gi, v)
				}
			} else {
				fwd[seqComp[v]] = parComp[v]
			}
		}
		if g.NumVertices() > 1 && cost.Work() == 0 {
			t.Fatalf("graph %d: no work recorded", gi)
		}
	}
}

// TestComponentsParallelDepth checks the O(log n) round contract on a
// long path, the worst case for label propagation (which would need
// n rounds) but fine for hook-and-compress.
func TestComponentsParallelDepth(t *testing.T) {
	g := Path(1 << 14)
	cost := par.NewCost()
	_, count := g.ComponentsParallel(cost)
	if count != 1 {
		t.Fatalf("path components = %d", count)
	}
	// Hook-and-compress should settle a 16k path in well under 64
	// depth units (2 per round, ~log n rounds plus slack).
	if d := cost.Depth(); d > 64 {
		t.Fatalf("depth %d on 16k path; want O(log n)", d)
	}
}

// Property: Contract with the identity labeling only simplifies
// parallel edges, never loses connectivity.
func TestContractIdentityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := int32(r.Intn(40) + 2)
		m := int64(r.Intn(80))
		max := int64(n) * int64(n-1) / 2
		if m > max {
			m = max
		}
		g := RandomGNM(n, m, seed)
		id := make([]V, n)
		for i := range id {
			id[i] = V(i)
		}
		q := g.Contract(id, n)
		if q.Validate() != nil {
			return false
		}
		c1, k1 := g.Components()
		c2, k2 := q.Components()
		if k1 != k2 {
			return false
		}
		// Same partition up to relabeling.
		fwd := map[V]V{}
		for v := range c1 {
			if got, ok := fwd[c1[v]]; ok {
				if got != c2[v] {
					return false
				}
			} else {
				fwd[c1[v]] = c2[v]
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: contracting components to points yields an edgeless graph.
func TestContractComponentsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		n := int32(rng.New(seed).Intn(60) + 1)
		m := int64(n)
		if max := int64(n) * int64(n-1) / 2; m > max {
			m = max
		}
		g := RandomGNM(n, m, seed^0x9e37)
		comp, count := g.Components()
		q := g.Contract(comp, count)
		return q.NumEdges() == 0 && q.NumVertices() == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
