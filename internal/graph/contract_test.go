package graph

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/rng"
)

// contractReference is the comparison-sort contraction Contract used to
// run: sort the cross-class candidates by (a, b, w, eid) and keep the
// first of each (a, b) run. ContractEdges must reproduce it exactly.
func contractReference(g *Graph, label []V, k int32) *Graph {
	type cand struct {
		a, b V
		w    W
		eid  int32
	}
	cands := make([]cand, 0, len(g.edges))
	for i := range g.edges {
		e := g.edges[i]
		a, b := label[e.U], label[e.V]
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		cands = append(cands, cand{a: a, b: b, w: e.W, eid: int32(i)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].a != cands[j].a {
			return cands[i].a < cands[j].a
		}
		if cands[i].b != cands[j].b {
			return cands[i].b < cands[j].b
		}
		if cands[i].w != cands[j].w {
			return cands[i].w < cands[j].w
		}
		return cands[i].eid < cands[j].eid
	})
	edges := make([]Edge, 0, len(cands))
	orig := make([]int32, 0, len(cands))
	for i := range cands {
		c := cands[i]
		if len(edges) > 0 {
			last := edges[len(edges)-1]
			if last.U == c.a && last.V == c.b {
				continue
			}
		}
		edges = append(edges, Edge{U: c.a, V: c.b, W: c.w})
		orig = append(orig, g.OrigEdgeID(c.eid))
	}
	q := FromEdges(k, edges, true)
	q.origEID = orig
	return q
}

// sameQuotient fails unless a and b have the same vertex count, edge
// list (order included) and back-mapping.
func sameQuotient(t *testing.T, what string, got, want *Graph) {
	t.Helper()
	mustValidate(t, got)
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: n=%d m=%d, want n=%d m=%d", what, got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	if !got.HasOrigEdgeIDs() {
		t.Fatalf("%s: no back-mapping", what)
	}
	for e := range got.Edges() {
		if got.Edges()[e] != want.Edges()[e] {
			t.Fatalf("%s: edge %d = %+v, want %+v", what, e, got.Edges()[e], want.Edges()[e])
		}
		if g, w := got.OrigEdgeID(int32(e)), want.OrigEdgeID(int32(e)); g != w {
			t.Fatalf("%s: OrigEdgeID(%d) = %d, want %d", what, e, g, w)
		}
	}
}

// randomMultigraph draws a multigraph with many parallel edges and
// weights from [1, maxW]: a small maxW makes equal-weight parallel
// edges common, so the edge id has to break the tie.
func randomMultigraph(r *rng.RNG, n int32, m int, maxW int, weighted bool) *Graph {
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		u, v := V(r.Intn(int(n))), V(r.Intn(int(n)))
		if u == v {
			continue
		}
		edges = append(edges, Edge{U: u, V: v, W: W(1 + r.Intn(maxW))})
	}
	return FromEdges(n, edges, weighted)
}

// randomLabels maps [0, n) onto [0, k); with sparse set, only a few
// classes are used, so many labels are empty.
func randomLabels(r *rng.RNG, n, k int32, sparse bool) []V {
	used := k
	if sparse && k > 1 {
		used = 1 + int32(r.Intn(int(k)/2+1))
	}
	label := make([]V, n)
	for i := range label {
		label[i] = V(r.Intn(int(used))) * (k / used)
	}
	return label
}

// TestContractMatchesReference: the counting-sort contraction returns
// exactly the edges, order and back-maps of the comparison-sort one.
func TestContractMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		r := rng.New(seed)
		n := int32(2 + r.Intn(120))
		m := r.Intn(int(n) * 6)
		weighted := seed%4 != 0
		g := randomMultigraph(r, n, m, 1+r.Intn(4), weighted)
		k := int32(1 + r.Intn(int(n)))
		label := randomLabels(r, n, k, seed%3 == 0)
		what := fmt.Sprintf("seed %d (n=%d m=%d k=%d weighted=%v)", seed, n, m, k, weighted)

		q := g.Contract(label, k)
		sameQuotient(t, what, q, contractReference(g, label, k))

		// A second contraction composes OrigEdgeID through the first.
		k2 := int32(1 + r.Intn(int(k)))
		label2 := randomLabels(r, k, k2, seed%5 == 0)
		sameQuotient(t, what+" chained", q.Contract(label2, k2), contractReference(q, label2, k2))
	}
}

func TestContractEdgeCases(t *testing.T) {
	r := rng.New(7)
	g := randomMultigraph(r, 30, 200, 2, true)
	// The identity keeps every class; one label collapses everything;
	// labels beyond the used ones stay empty vertices.
	id := make([]V, 30)
	for i := range id {
		id[i] = V(i)
	}
	one := make([]V, 30)
	for _, tc := range []struct {
		name  string
		label []V
		k     int32
	}{
		{"identity", id, 30},
		{"all-one-label", one, 1},
		{"all-one-label-wide", one, 9},
		{"spread", randomLabels(r, 30, 200, true), 200},
	} {
		sameQuotient(t, tc.name, g.Contract(tc.label, tc.k), contractReference(g, tc.label, tc.k))
	}
	empty := FromEdges(5, nil, false)
	q := empty.Contract([]V{0, 1, 2, 3, 4}, 5)
	if q.NumEdges() != 0 || q.NumVertices() != 5 || !q.HasOrigEdgeIDs() {
		t.Fatalf("empty contraction: n=%d m=%d", q.NumVertices(), q.NumEdges())
	}
}

// TestContractEdgesSource: ContractEdges reports indices into the edge
// list it was given, whatever graph those edges came from.
func TestContractEdgesSource(t *testing.T) {
	edges := []Edge{{0, 1, 4}, {2, 3, 1}, {1, 0, 2}, {0, 2, 2}, {3, 1, 2}, {1, 2, 2}}
	out, src := ContractEdges(edges, []V{0, 0, 1, 1}, 2)
	// Cross edges (0,2,2) idx 3, (3,1,2) idx 4, (1,2,2) idx 5 tie on
	// weight: the lowest index wins.
	if len(out) != 1 || out[0] != (Edge{0, 1, 2}) || src[0] != 3 {
		t.Fatalf("ContractEdges = %v %v", out, src)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range label did not panic")
		}
	}()
	ContractEdges(edges, []V{0, 0, 1, 2}, 2)
}
