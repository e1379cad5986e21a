package spanner

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/sssp"
)

// maxEdgeStretch returns the maximum over all edges (u,v) of g of
// distH(u,v)/w(u,v), which bounds the spanner stretch (it suffices to
// check edge endpoints). Exact but O(n·m); test-scale.
func maxEdgeStretch(t *testing.T, g *graph.Graph, ids []int32) float64 {
	t.Helper()
	h := g.SubgraphFromEdgeIDs(ids)
	// Group queries by source to reuse Dijkstra runs.
	bySource := map[graph.V][]int32{}
	for e := int32(0); int64(e) < g.NumEdges(); e++ {
		bySource[g.Edges()[e].U] = append(bySource[g.Edges()[e].U], e)
	}
	worst := 0.0
	for s, es := range bySource {
		res := sssp.Dijkstra(h, []graph.V{s}, sssp.Options{})
		for _, e := range es {
			ed := g.Edges()[e]
			if res.Dist[ed.V] == graph.InfDist {
				t.Fatalf("spanner disconnects edge (%d,%d)", ed.U, ed.V)
			}
			st := float64(res.Dist[ed.V]) / float64(g.EdgeWeight(e))
			if st > worst {
				worst = st
			}
		}
	}
	return worst
}

func isSubsetOfEdges(g *graph.Graph, ids []int32) bool {
	seen := map[int32]bool{}
	for _, e := range ids {
		if e < 0 || int64(e) >= g.NumEdges() || seen[e] {
			return false
		}
		seen[e] = true
	}
	return true
}

func TestUnweightedBasics(t *testing.T) {
	g := graph.RandomConnectedGNM(500, 3000, 1)
	res := Unweighted(g, 3, 2, nil)
	if !isSubsetOfEdges(g, res.EdgeIDs) {
		t.Fatal("spanner edge ids invalid or duplicated")
	}
	if res.Size() == 0 {
		t.Fatal("empty spanner for connected graph")
	}
	if res.Clustering == nil {
		t.Fatal("unweighted spanner should expose its clustering")
	}
	// Spanner must span: same connected components.
	h := res.Graph(g)
	_, ch := h.Components()
	_, cg := g.Components()
	if ch != cg {
		t.Fatalf("spanner has %d components, graph has %d", ch, cg)
	}
}

func TestUnweightedStretch(t *testing.T) {
	for _, k := range []int{2, 3, 5} {
		g := graph.RandomConnectedGNM(300, 1500, uint64(k))
		res := Unweighted(g, k, uint64(100+k), nil)
		st := maxEdgeStretch(t, g, res.EdgeIDs)
		// Lemma 3.2 promises O(k); radii are ≤ ~4k whp with β =
		// ln(n)/(2k), so edge stretch ≤ ~8k+1. Use 10k+2 to absorb
		// randomness without losing the linear-in-k shape.
		if st > float64(10*k+2) {
			t.Fatalf("k=%d: stretch %.1f exceeds O(k) envelope %d", k, st, 10*k+2)
		}
	}
}

func TestUnweightedSizeScaling(t *testing.T) {
	// Theorem 1.1 size O(n^{1+1/k}): with k=2 on a dense-ish graph the
	// spanner must be well below m and within a constant of n^{1.5}.
	n := int32(2000)
	g := graph.RandomConnectedGNM(n, 40000, 7)
	res := Unweighted(g, 2, 8, nil)
	bound := 6 * math.Pow(float64(n), 1.5)
	if float64(res.Size()) > bound {
		t.Fatalf("size %d exceeds 6·n^1.5 = %.0f", res.Size(), bound)
	}
	if int64(res.Size()) >= g.NumEdges() {
		t.Fatal("spanner did not sparsify at all")
	}
	// Larger k must (on average) give smaller spanners.
	res8 := Unweighted(g, 8, 8, nil)
	if res8.Size() >= res.Size() {
		t.Fatalf("k=8 spanner (%d) not smaller than k=2 (%d)", res8.Size(), res.Size())
	}
}

func TestUnweightedPathKeepsEverything(t *testing.T) {
	// A tree is its own unique spanner: every edge is a forest or
	// boundary edge, and connectivity must be preserved.
	g := graph.Path(100)
	res := Unweighted(g, 3, 5, nil)
	if int64(res.Size()) != g.NumEdges() {
		t.Fatalf("path spanner has %d of %d edges", res.Size(), g.NumEdges())
	}
}

func TestUnweightedDisconnected(t *testing.T) {
	g := graph.FromEdges(6, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}}, false)
	res := Unweighted(g, 2, 3, nil)
	h := res.Graph(g)
	_, c := h.Components()
	if c != 4 {
		t.Fatalf("components = %d, want 4", c)
	}
}

func TestUnweightedEmptyAndTiny(t *testing.T) {
	if got := Unweighted(graph.FromEdges(0, nil, false), 2, 1, nil).Size(); got != 0 {
		t.Fatalf("empty graph spanner size %d", got)
	}
	if got := Unweighted(graph.FromEdges(5, nil, false), 2, 1, nil).Size(); got != 0 {
		t.Fatalf("edgeless graph spanner size %d", got)
	}
	one := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1, W: 1}}, false)
	if got := Unweighted(one, 2, 1, nil).Size(); got != 1 {
		t.Fatalf("single-edge graph spanner size %d, want 1", got)
	}
}

func TestUnweightedPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 did not panic")
		}
	}()
	Unweighted(graph.Path(3), 0, 1, nil)
}

func TestWeightedBasics(t *testing.T) {
	g := graph.ExponentialWeights(graph.RandomConnectedGNM(400, 2400, 9), 2, 12, 10)
	cost := par.NewCost()
	res := Weighted(g, 3, 11, cost)
	if !isSubsetOfEdges(g, res.EdgeIDs) {
		t.Fatal("weighted spanner ids invalid")
	}
	h := res.Graph(g)
	_, ch := h.Components()
	_, cg := g.Components()
	if ch != cg {
		t.Fatal("weighted spanner lost connectivity")
	}
	if cost.Work() == 0 || cost.Depth() == 0 {
		t.Fatal("no cost recorded")
	}
}

func TestWeightedStretch(t *testing.T) {
	for _, k := range []int{2, 4} {
		g := graph.ExponentialWeights(graph.RandomConnectedGNM(250, 1200, uint64(k+40)), 2, 10, uint64(k+50))
		res := Weighted(g, k, uint64(60+k), nil)
		st := maxEdgeStretch(t, g, res.EdgeIDs)
		// Theorem 3.3: O(k) with a somewhat larger constant than the
		// unweighted case (quotient translation costs a factor ~2,
		// plus the bucket width factor 2).
		if st > float64(24*k+4) {
			t.Fatalf("k=%d: weighted stretch %.1f exceeds O(k) envelope %d", k, st, 24*k+4)
		}
	}
}

func TestWeightedOnUniformWeightsSparsifies(t *testing.T) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(1500, 30000, 13), 4, 14)
	res := Weighted(g, 2, 15, nil)
	if int64(res.Size()) >= g.NumEdges() {
		t.Fatal("weighted spanner kept every edge on a dense graph")
	}
}

func TestWeightedUnweightedFallback(t *testing.T) {
	g := graph.RandomConnectedGNM(100, 400, 17)
	res := Weighted(g, 3, 18, nil)
	if res.Clustering == nil {
		t.Fatal("unweighted fallback should expose clustering")
	}
}

func TestWellSeparatedEmptyGroup(t *testing.T) {
	g := graph.UniformWeights(graph.Path(10), 8, 19)
	if got := WellSeparated(g, nil, 3, 1, nil); got != nil {
		t.Fatalf("empty group produced %d edges", len(got))
	}
}

func TestNumGroups(t *testing.T) {
	if numGroups(1) != 1 {
		t.Fatalf("numGroups(1) = %d", numGroups(1))
	}
	if numGroups(2) != 2 {
		t.Fatalf("numGroups(2) = %d", numGroups(2))
	}
	if g8 := numGroups(8); g8 != 6 {
		t.Fatalf("numGroups(8) = %d, want 2·lg 8 = 6", g8)
	}
	// O(log k): doubling k adds a constant.
	if numGroups(64)-numGroups(32) > 3 {
		t.Fatal("numGroups not logarithmic")
	}
}

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		w, minW graph.W
		want    int
	}{
		{1, 1, 0}, {2, 1, 1}, {3, 1, 1}, {4, 1, 2}, {7, 1, 2}, {8, 1, 3},
		{10, 5, 1}, {5, 5, 0},
	}
	for _, c := range cases {
		if got := bucketIndex(c.w, c.minW); got != c.want {
			t.Errorf("bucketIndex(%d,%d) = %d, want %d", c.w, c.minW, got, c.want)
		}
	}
}

// TestBucketIndexMatchesHalving checks the bit-length form against the
// halving loop it replaces, for ratios w/minW around every power of two
// from 1 to 2^40, including ratios whose division truncates.
func TestBucketIndexMatchesHalving(t *testing.T) {
	halving := func(w, minW graph.W) int {
		i := 0
		for x := w / minW; x > 1; x >>= 1 {
			i++
		}
		return i
	}
	for _, minW := range []graph.W{1, 3, 7, 1000} {
		for e := 0; e <= 40; e++ {
			p := graph.W(1) << e
			for _, ratio := range []graph.W{p - 1, p, p + 1, 2*p - 1} {
				if ratio < 1 || ratio > 1<<40 {
					continue
				}
				for _, w := range []graph.W{ratio * minW, ratio*minW + minW - 1} {
					if got, want := bucketIndex(w, minW), halving(w, minW); got != want {
						t.Errorf("bucketIndex(%d,%d) = %d, want %d", w, minW, got, want)
					}
				}
			}
		}
	}
}

func TestBaswanaSenStretch(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		g := graph.UniformWeights(graph.RandomConnectedGNM(200, 1000, uint64(k+70)), 9, uint64(k+80))
		res := BaswanaSen(g, k, uint64(k+90), nil)
		st := maxEdgeStretch(t, g, res.EdgeIDs)
		if st > float64(2*k-1)+1e-9 {
			t.Fatalf("k=%d: Baswana–Sen stretch %.2f exceeds 2k-1 = %d", k, st, 2*k-1)
		}
	}
}

func TestBaswanaSenK1KeepsAllEdges(t *testing.T) {
	// k=1 means stretch 1: the spanner must preserve exact distances
	// between edge endpoints, which forces (essentially) every
	// non-dominated edge. On a graph with unique weights, that is
	// every edge that is the unique shortest path between its ends.
	g := graph.UniformWeights(graph.RandomConnectedGNM(60, 200, 21), 1000, 22)
	res := BaswanaSen(g, 1, 23, nil)
	st := maxEdgeStretch(t, g, res.EdgeIDs)
	if st > 1+1e-9 {
		t.Fatalf("k=1 stretch %.3f", st)
	}
}

func TestBaswanaSenSize(t *testing.T) {
	n := int32(2000)
	g := graph.UniformWeights(graph.RandomConnectedGNM(n, 40000, 25), 50, 26)
	res := BaswanaSen(g, 2, 27, nil)
	// Expected size O(k n^{1+1/k}) = O(2 n^{1.5}).
	bound := 8 * math.Pow(float64(n), 1.5)
	if float64(res.Size()) > bound {
		t.Fatalf("Baswana–Sen size %d exceeds %.0f", res.Size(), bound)
	}
	if int64(res.Size()) >= g.NumEdges() {
		t.Fatal("Baswana–Sen did not sparsify")
	}
}

func TestGreedyStretchAndOptimality(t *testing.T) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(80, 400, 29), 7, 30)
	for _, k := range []int{2, 3} {
		res := Greedy(g, k, nil)
		st := maxEdgeStretch(t, g, res.EdgeIDs)
		if st > float64(2*k-1)+1e-9 {
			t.Fatalf("greedy k=%d stretch %.2f", k, st)
		}
		// Greedy should be at least as small as Baswana–Sen here.
		bs := BaswanaSen(g, k, 31, nil)
		if res.Size() > bs.Size() {
			t.Logf("note: greedy %d vs BS %d (greedy usually smaller)", res.Size(), bs.Size())
		}
	}
}

func TestGreedyOnTreeKeepsAll(t *testing.T) {
	g := graph.UniformWeights(graph.Path(50), 9, 33)
	res := Greedy(g, 2, nil)
	if int64(res.Size()) != g.NumEdges() {
		t.Fatalf("greedy dropped tree edges: %d of %d", res.Size(), g.NumEdges())
	}
}

// Property: all three constructions yield connected spanners with
// valid edge subsets on arbitrary connected weighted graphs.
func TestSpannersPreserveConnectivityProperty(t *testing.T) {
	f := func(seedRaw uint32, kRaw uint8) bool {
		seed := uint64(seedRaw)
		r := rng.New(seed ^ 0x5555)
		k := int(kRaw)%5 + 1
		n := int32(r.Intn(80) + 5)
		m := int64(n) - 1 + int64(r.Intn(150))
		if max := int64(n) * int64(n-1) / 2; m > max {
			m = max
		}
		g := graph.UniformWeights(graph.RandomConnectedGNM(n, m, seed), 16, seed^9)
		for _, ids := range [][]int32{
			Unweighted(g, k, seed^1, nil).EdgeIDs,
			Weighted(g, k, seed^2, nil).EdgeIDs,
			BaswanaSen(g, k, seed^3, nil).EdgeIDs,
		} {
			if !isSubsetOfEdges(g, ids) {
				return false
			}
			h := g.SubgraphFromEdgeIDs(ids)
			if _, c := h.Components(); c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestCorollary31BallIntersection: with β = ln(n)/(2k), the expected
// number of clusters meeting B(v,1) is at most ~n^{1/k} — the quantity
// that bounds the boundary-edge count.
func TestCorollary31BallIntersection(t *testing.T) {
	g := graph.RandomConnectedGNM(600, 3000, 35)
	k := 3
	res := Unweighted(g, k, 36, nil)
	// Average adjacent-cluster count per vertex ≈ ball(1) clusters.
	total := 0.0
	for v := graph.V(0); v < g.NumVertices(); v++ {
		seen := map[int32]bool{}
		for _, a := range g.Arcs(v) {
			seen[res.Clustering.ClusterOf[a.To]] = true
		}
		seen[res.Clustering.ClusterOf[v]] = true
		total += float64(len(seen))
	}
	avg := total / float64(g.NumVertices())
	bound := math.Pow(float64(g.NumVertices()), 1/float64(k))
	// Allow slack 2.5x for the +1 own-cluster and sampling noise.
	if avg > 2.5*bound {
		t.Fatalf("avg ball clusters %.2f exceeds envelope of n^{1/k} = %.2f", avg, bound)
	}
}

func BenchmarkUnweightedSpanner(b *testing.B) {
	g := graph.RandomConnectedGNM(20000, 100000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Unweighted(g, 3, uint64(i), nil)
	}
}

func BenchmarkWeightedSpanner(b *testing.B) {
	g := graph.ExponentialWeights(graph.RandomConnectedGNM(20000, 100000, 1), 2, 16, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Weighted(g, 3, uint64(i), nil)
	}
}

func BenchmarkBaswanaSen(b *testing.B) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(20000, 100000, 1), 64, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BaswanaSen(g, 3, uint64(i), nil)
	}
}
