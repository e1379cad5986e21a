package core

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/rng"
)

// checkPartition validates the structural invariants of a clustering:
// it partitions the subset, parent chains reach the center with
// consistent distances, and Clusters/Centers/ClusterOf agree.
func checkPartition(t *testing.T, g *graph.Graph, res *Result, subset []graph.V) {
	t.Helper()
	inSubset := make(map[graph.V]bool, len(subset))
	for _, v := range subset {
		inSubset[v] = true
	}
	for v := graph.V(0); v < g.NumVertices(); v++ {
		if !inSubset[v] {
			if res.Center[v] != graph.NoVertex || res.ClusterOf[v] != -1 {
				t.Fatalf("vertex %d outside subset was clustered", v)
			}
			continue
		}
		c := res.Center[v]
		if c == graph.NoVertex {
			t.Fatalf("subset vertex %d not clustered", v)
		}
		if res.Center[c] != c {
			t.Fatalf("center %d of %d is not its own center", c, v)
		}
		if res.ClusterOf[v] != res.ClusterOf[c] {
			t.Fatalf("ClusterOf mismatch for %d vs its center", v)
		}
		// Parent chain must reach the center within |subset| hops and
		// distances must telescope along real edges.
		u := v
		steps := 0
		for res.Parent[u] != graph.NoVertex {
			p := res.Parent[u]
			if res.Center[p] != c {
				t.Fatalf("parent %d of %d in a different cluster", p, u)
			}
			// Edge p-u must exist; DistToCenter must decrease by some
			// incident edge weight.
			w := graph.W(-1)
			wide := g.Wide(u)
			for i, a := range g.Arcs(u) {
				if a.To == p {
					ew := graph.W(a.W)
					if wide != nil {
						ew = wide[i]
					}
					if w == -1 || ew < w {
						w = ew
					}
				}
			}
			if w == -1 {
				t.Fatalf("parent %d of %d not adjacent", p, u)
			}
			if res.DistToCenter[u] != res.DistToCenter[p]+w {
				t.Fatalf("tree distance not telescoping at %d: %d vs %d + %d",
					u, res.DistToCenter[u], res.DistToCenter[p], w)
			}
			u = p
			steps++
			if steps > len(subset) {
				t.Fatal("parent cycle")
			}
		}
		if u != c {
			t.Fatalf("parent chain of %d ends at %d, not center %d", v, u, c)
		}
		if res.DistToCenter[c] != 0 {
			t.Fatalf("center %d has DistToCenter %d", c, res.DistToCenter[c])
		}
	}
	// Cluster grouping must be a partition of the subset.
	total := 0
	for i, cl := range res.Clusters {
		if len(cl) == 0 {
			t.Fatalf("empty cluster %d", i)
		}
		if cl[0] != res.Centers[i] {
			t.Fatalf("cluster %d does not list its center first", i)
		}
		for _, v := range cl {
			if res.ClusterOf[v] != int32(i) {
				t.Fatalf("vertex %d grouped in wrong cluster", v)
			}
		}
		total += len(cl)
	}
	if total != len(subset) {
		t.Fatalf("clusters cover %d vertices, want %d", total, len(subset))
	}
}

func allVertices(g *graph.Graph) []graph.V {
	vs := make([]graph.V, g.NumVertices())
	for i := range vs {
		vs[i] = graph.V(i)
	}
	return vs
}

func TestClusterInvariantsUnweighted(t *testing.T) {
	g := graph.RandomConnectedGNM(400, 1600, 3)
	res := Cluster(g, 0.3, 42, Options{})
	checkPartition(t, g, res, allVertices(g))
}

func TestClusterInvariantsWeighted(t *testing.T) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(300, 900, 5), 12, 6)
	res := Cluster(g, 0.1, 43, Options{})
	checkPartition(t, g, res, allVertices(g))
}

func TestClusterDisconnected(t *testing.T) {
	// Disconnected graphs must still be fully partitioned (each
	// component gets its own clusters).
	g := graph.FromEdges(6, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}}, false)
	res := Cluster(g, 0.5, 7, Options{})
	checkPartition(t, g, res, allVertices(g))
	// Vertices in different components can never share a cluster.
	if res.Center[0] == res.Center[2] || res.Center[4] == res.Center[0] {
		t.Fatal("cluster spans components")
	}
}

func TestClusterSingleVertex(t *testing.T) {
	g := graph.FromEdges(1, nil, false)
	res := Cluster(g, 1.0, 1, Options{})
	if res.NumClusters() != 1 || res.Center[0] != 0 {
		t.Fatal("single vertex should be its own cluster")
	}
}

func TestClusterEmptySubset(t *testing.T) {
	g := graph.Path(5)
	mark := make([]int32, 5)
	res := Cluster(g, 1.0, 1, Options{Vertices: []graph.V{}, Mark: mark, Token: 9})
	if res.NumClusters() != 0 {
		t.Fatal("empty subset should produce no clusters")
	}
}

func TestClusterSubset(t *testing.T) {
	// Cluster only the left half of a path; right half untouched.
	g := graph.Path(20)
	mark := make([]int32, 20)
	var subset []graph.V
	for v := graph.V(0); v < 10; v++ {
		mark[v] = 1
		subset = append(subset, v)
	}
	res := Cluster(g, 0.4, 11, Options{Vertices: subset, Mark: mark, Token: 1})
	checkPartition(t, g, res, subset)
	// A subset in any order groups the same way: clusters numbered by
	// center id, each listing its center and then the rest by id.
	slices.Reverse(subset)
	res = Cluster(g, 0.4, 11, Options{Vertices: subset, Mark: mark, Token: 1})
	checkPartition(t, g, res, subset)
	if !slices.IsSorted(res.Centers) {
		t.Fatalf("centers %v not by id", res.Centers)
	}
	for _, cl := range res.Clusters {
		if !slices.IsSorted(cl[1:]) {
			t.Fatalf("cluster %v not by id after its center", cl)
		}
	}
}

func TestClusterMatchesReference(t *testing.T) {
	cases := []*graph.Graph{
		graph.Path(40),
		graph.Cycle(50),
		graph.Grid2D(8, 9),
		graph.RandomConnectedGNM(150, 500, 2),
		graph.UniformWeights(graph.RandomConnectedGNM(120, 400, 9), 7, 10),
		graph.UniformWeights(graph.Grid2D(7, 11), 20, 12),
	}
	for gi, g := range cases {
		for _, beta := range []float64{0.05, 0.2, 0.7} {
			seed := uint64(gi)*100 + uint64(beta*1000)
			a := Cluster(g, beta, seed, Options{})
			b := ClusterReference(g, beta, seed, Options{})
			for v := graph.V(0); v < g.NumVertices(); v++ {
				if a.Center[v] != b.Center[v] {
					t.Fatalf("graph %d beta %v: center mismatch at %d: %d vs %d",
						gi, beta, v, a.Center[v], b.Center[v])
				}
				if a.DistToCenter[v] != b.DistToCenter[v] {
					t.Fatalf("graph %d beta %v: dist mismatch at %d: %d vs %d",
						gi, beta, v, a.DistToCenter[v], b.DistToCenter[v])
				}
				if a.Parent[v] != b.Parent[v] {
					t.Fatalf("graph %d beta %v: parent mismatch at %d: %d vs %d",
						gi, beta, v, a.Parent[v], b.Parent[v])
				}
			}
		}
	}
}

// TestClusterMatchesReferenceWide runs Cluster and ClusterReference on
// a graph with Wide weights: a weighted base whose every third vertex
// hangs a pendant of weight just above math.MaxUint32. Every vertex is
// clustered, so the pendant arcs are relaxed both ways, and every arc
// weight is read through Wide. A pendant arrival lands after every
// start, so each pendant is its own center, and both must equal, on
// the base vertices, the clustering of the base graph alone, whose
// arcs hold the same weights.
func TestClusterMatchesReferenceWide(t *testing.T) {
	base := graph.UniformWeights(graph.RandomConnectedGNM(120, 400, 9), 7, 10)
	n := base.NumVertices()
	edges := append([]graph.Edge(nil), base.Edges()...)
	for v := graph.V(0); v < n; v += 3 {
		edges = append(edges, graph.Edge{U: v, V: n + v/3, W: 1<<32 + graph.W(v)})
	}
	g := graph.FromEdges(n+(n+2)/3, edges, true)
	if g.Wide(0) == nil {
		t.Fatal("graph with weights above math.MaxUint32 has no Wide weights")
	}
	for _, beta := range []float64{0.05, 0.2, 0.7} {
		seed := uint64(beta * 1000)
		want := Cluster(base, beta, seed, Options{})
		a := Cluster(g, beta, seed, Options{})
		b := ClusterReference(g, beta, seed, Options{})
		sameClustering(t, "wide vs reference", a, b)
		for v := n; v < g.NumVertices(); v++ {
			if a.Center[v] != v {
				t.Fatalf("beta %v: pendant %d joined the cluster of %d", beta, v, a.Center[v])
			}
		}
		for v := graph.V(0); v < n; v++ {
			for _, got := range []*Result{a, b} {
				if got.Center[v] != want.Center[v] || got.DistToCenter[v] != want.DistToCenter[v] ||
					got.Parent[v] != want.Parent[v] {
					t.Fatalf("beta %v vertex %d: center/dist/parent %d/%d/%d on the wide graph, %d/%d/%d on the base",
						beta, v, got.Center[v], got.DistToCenter[v], got.Parent[v],
						want.Center[v], want.DistToCenter[v], want.Parent[v])
				}
			}
		}
	}
}

func TestClusterDeterministic(t *testing.T) {
	g := graph.RandomConnectedGNM(100, 300, 1)
	a := Cluster(g, 0.3, 5, Options{})
	b := Cluster(g, 0.3, 5, Options{})
	for v := range a.Center {
		if a.Center[v] != b.Center[v] {
			t.Fatal("same seed produced different clusterings")
		}
	}
	c := Cluster(g, 0.3, 6, Options{})
	diff := false
	for v := range a.Center {
		if a.Center[v] != c.Center[v] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical clusterings (suspicious)")
	}
}

// TestClusterOptimality checks the defining property directly on small
// graphs: v's center minimizes dist(u,v) − δ_u over all u (up to the
// deterministic tie-breaking, which only matters on measure-zero ties;
// we assert the winner's key is minimal).
func TestClusterOptimality(t *testing.T) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(40, 100, 8), 5, 20)
	res := Cluster(g, 0.2, 21, Options{})
	// All-pairs distances by Dijkstra-per-vertex (tiny graph).
	distFrom := func(s graph.V) []graph.Dist {
		d := make([]graph.Dist, g.NumVertices())
		for i := range d {
			d[i] = graph.InfDist
		}
		d[s] = 0
		settled := make([]bool, g.NumVertices())
		for {
			u := graph.NoVertex
			for v := graph.V(0); v < g.NumVertices(); v++ {
				if !settled[v] && d[v] != graph.InfDist && (u == graph.NoVertex || d[v] < d[u]) {
					u = v
				}
			}
			if u == graph.NoVertex {
				return d
			}
			settled[u] = true
			wide := g.Wide(u)
			for i, a := range g.Arcs(u) {
				w := graph.W(a.W)
				if wide != nil {
					w = wide[i]
				}
				if d[u]+w < d[a.To] {
					d[a.To] = d[u] + w
				}
			}
		}
	}
	dist := make([][]graph.Dist, g.NumVertices())
	for v := graph.V(0); v < g.NumVertices(); v++ {
		dist[v] = distFrom(v)
	}
	const eps = 1e-9
	for v := graph.V(0); v < g.NumVertices(); v++ {
		c := res.Center[v]
		keyC := float64(dist[c][v]) - res.Shifts[c]
		for u := graph.V(0); u < g.NumVertices(); u++ {
			keyU := float64(dist[u][v]) - res.Shifts[u]
			if keyU < keyC-eps {
				t.Fatalf("vertex %d joined %d (key %.6f) but %d has key %.6f",
					v, c, keyC, u, keyU)
			}
		}
	}
}

// TestLemma21DiameterBound: cluster radii are at most k·β^{-1}·ln n
// with probability ≥ 1 − n^{1-k}; check the k=2 bound holds across
// trials (failure probability ~1/n per trial).
func TestLemma21DiameterBound(t *testing.T) {
	g := graph.RandomConnectedGNM(1000, 4000, 17)
	n := float64(g.NumVertices())
	beta := 0.25
	bound := graph.Dist(2*math.Log(n)/beta) + 1
	violations := 0
	const trials = 20
	for s := uint64(0); s < trials; s++ {
		res := Cluster(g, beta, s, Options{})
		if res.MaxRadius() > bound {
			violations++
		}
	}
	// Expected violations ≈ trials/n = 0.02; allow up to 2.
	if violations > 2 {
		t.Fatalf("Lemma 2.1 radius bound violated in %d of %d trials", violations, trials)
	}
}

// TestCorollary23CutProbability: each edge is cut with probability at
// most β·w(e). Aggregate over all edges and trials.
func TestCorollary23CutProbability(t *testing.T) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(500, 2000, 19), 3, 23)
	beta := 0.05
	const trials = 30
	totalCut := 0
	for s := uint64(0); s < trials; s++ {
		res := Cluster(g, beta, 1000+s, Options{})
		totalCut += len(CutEdges(g, res))
	}
	gotRate := float64(totalCut) / float64(trials)
	// Upper bound sum over edges of β·w(e) = β·totalWeight.
	bound := beta * float64(g.TotalWeight())
	// Allow 15% slack for sampling noise on the high side.
	if gotRate > bound*1.15 {
		t.Fatalf("mean cut edges %.1f exceeds Corollary 2.3 bound %.1f", gotRate, bound)
	}
	if totalCut == 0 {
		t.Fatal("no edges ever cut: clustering degenerate")
	}
}

// TestLemma22BallIntersection: P[ball of radius r meets ≥ j clusters]
// ≤ (1 − exp(−2rβ))^{j−1}. Check empirically for j = 2, 3 on a grid.
func TestLemma22BallIntersection(t *testing.T) {
	g := graph.Grid2D(30, 30)
	beta := 0.15
	radius := graph.Dist(2)
	gamma := 1 - math.Exp(-2*float64(radius)*beta)
	const trials = 15
	counts := map[int]int{} // j -> number of (trial, vertex) pairs with ≥ j clusters
	samples := 0
	r := rng.New(99)
	for s := uint64(0); s < trials; s++ {
		res := Cluster(g, beta, 500+s, Options{})
		for i := 0; i < 60; i++ {
			v := r.Int31n(g.NumVertices())
			k := BallClusterCount(g, res, v, radius)
			samples++
			for j := 2; j <= k; j++ {
				counts[j]++
			}
		}
	}
	for _, j := range []int{2, 3} {
		got := float64(counts[j]) / float64(samples)
		bound := math.Pow(gamma, float64(j-1))
		if got > bound*1.3+0.02 {
			t.Fatalf("P[ball meets >= %d clusters] = %.3f exceeds Lemma 2.2 bound %.3f",
				j, got, bound)
		}
	}
}

func TestForestEdges(t *testing.T) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(200, 700, 31), 9, 32)
	res := Cluster(g, 0.2, 33, Options{})
	forest := ForestEdges(g, res)
	// One tree edge per non-center vertex.
	want := int(g.NumVertices()) - res.NumClusters()
	if len(forest) != want {
		t.Fatalf("forest has %d edges, want %d", len(forest), want)
	}
	// Forest edges must be intra-cluster.
	for _, e := range forest {
		ed := g.Edges()[e]
		if res.Center[ed.U] != res.Center[ed.V] {
			t.Fatalf("forest edge %d crosses clusters", e)
		}
	}
	// The forest must certify the radii: BFS in the forest subgraph
	// from each center reaches its whole cluster.
	fg := g.SubgraphFromEdgeIDs(forest)
	for ci, cl := range res.Clusters {
		center := res.Centers[ci]
		reach := map[graph.V]bool{center: true}
		stack := []graph.V{center}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, a := range fg.Arcs(v) {
				if u := a.To; !reach[u] && res.Center[u] == center {
					reach[u] = true
					stack = append(stack, u)
				}
			}
		}
		for _, v := range cl {
			if !reach[v] {
				t.Fatalf("cluster %d vertex %d not reached by its tree", ci, v)
			}
		}
	}
}

func TestCutEdgesComplement(t *testing.T) {
	g := graph.RandomConnectedGNM(150, 600, 37)
	res := Cluster(g, 0.3, 38, Options{})
	cut := CutEdges(g, res)
	cutSet := map[int32]bool{}
	for _, e := range cut {
		cutSet[e] = true
	}
	for i := range g.Edges() {
		e := g.Edges()[i]
		same := res.Center[e.U] == res.Center[e.V]
		if same == cutSet[int32(i)] {
			t.Fatalf("edge %d cut classification wrong", i)
		}
	}
}

// TestBetaControlsGranularity: larger β must give more, smaller
// clusters (in expectation); check monotonicity on averages.
func TestBetaControlsGranularity(t *testing.T) {
	g := graph.Grid2D(40, 40)
	avgClusters := func(beta float64) float64 {
		total := 0
		for s := uint64(0); s < 5; s++ {
			total += Cluster(g, beta, 700+s, Options{}).NumClusters()
		}
		return float64(total) / 5
	}
	small := avgClusters(0.02)
	large := avgClusters(0.5)
	if small >= large {
		t.Fatalf("beta=0.02 gave %.1f clusters, beta=0.5 gave %.1f; want increasing", small, large)
	}
}

func TestClusterCostAccounting(t *testing.T) {
	g := graph.RandomConnectedGNM(300, 1200, 41)
	cost := par.NewCost()
	Cluster(g, 0.3, 42, Options{Cost: cost})
	if cost.Work() < int64(g.NumVertices()) {
		t.Fatalf("work %d implausibly low", cost.Work())
	}
	if cost.Depth() == 0 {
		t.Fatal("no depth recorded")
	}
	// On a high-diameter graph the number of rounds is governed by
	// δ_max + cluster radius = O(β^{-1} log n): smaller beta must mean
	// more rounds (Lemma 2.1's depth term).
	path := graph.Path(2000)
	cHi := par.NewCost()
	Cluster(path, 0.5, 42, Options{Cost: cHi})
	cLo := par.NewCost()
	Cluster(path, 0.02, 42, Options{Cost: cLo})
	if cLo.Depth() <= cHi.Depth() {
		t.Fatalf("smaller beta should mean more rounds on a path: %d vs %d",
			cLo.Depth(), cHi.Depth())
	}
}

// TestClusterWorkLinear pins the race's linear work: two Round(n)
// passes, each arc scanned once by its settled endpoint, and at most
// two bucket entries per vertex — its start, and on unit weights at
// most one earlier offer, since offers arrive in nondecreasing time and
// a same-time improvement is not re-queued. A race that queued every
// offer (or sorted them) would exceed 2m + 4n on this dense graph.
func TestClusterWorkLinear(t *testing.T) {
	g := graph.RandomConnectedGNM(2000, 32000, 3)
	cost := par.NewCost()
	Cluster(g, 0.3, 7, Options{Cost: cost})
	n, m := int64(g.NumVertices()), int64(g.NumEdges())
	if bound := 2*m + 4*n; cost.Work() > bound {
		t.Fatalf("work %d exceeds 2m + 4n = %d", cost.Work(), bound)
	}
}

func TestClusterPanicsOnBadBeta(t *testing.T) {
	g := graph.Path(3)
	for _, beta := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("beta %v did not panic", beta)
				}
			}()
			Cluster(g, beta, 1, Options{})
		}()
	}
}

// TestClusterHugeWeightsMatchReference: the race takes any weight.
// On graphs whose weights span 1 to about 4^21 (past 2^32, so wide),
// sequential and parallel Cluster equal ClusterReference — centers,
// distances and parents — while a share of the vertices joins another
// vertex's cluster over the light arcs.
func TestClusterHugeWeightsMatchReference(t *testing.T) {
	withProcs(t, 4, func() {
		for seed := uint64(1); seed <= 3; seed++ {
			g := graph.ExponentialWeights(graph.RandomConnectedGNM(600, 3000, seed), 4, 21, seed)
			if g.MaxWeight() <= 1<<32 {
				t.Fatalf("seed %d: max weight %d does not pass 2^32", seed, g.MaxWeight())
			}
			want := ClusterReference(g, 0.5, seed, Options{})
			joined := 0
			for v := range want.Parent {
				if want.Parent[v] != graph.NoVertex {
					joined++
				}
			}
			if joined == 0 {
				t.Fatalf("seed %d: every vertex is its own center", seed)
			}
			sameClustering(t, "sequential vs reference", Cluster(g, 0.5, seed, Options{}), want)
			sameClustering(t, "parallel vs reference", Cluster(g, 0.5, seed, Options{Exec: exec.Default()}), want)
		}
	})
}

// TestClusterHugeWeightAllocation: an arc of weight 2^40 costs the race
// nothing — the arrival it offers is later than its head's own start
// and is dropped, so no bucket past the largest start is made. One
// call allocates what the same graph with a unit arc does.
func TestClusterHugeWeightAllocation(t *testing.T) {
	alloc := func(w graph.W) uint64 {
		g := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1, W: w}}, true)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Cluster(g, 0.5, 1, Options{})
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	unit, huge := alloc(1), alloc(1<<40)
	if huge > unit+4096 {
		t.Fatalf("Cluster with a 2^40 arc allocated %d bytes, %d with a unit arc", huge, unit)
	}
}

// Property: Cluster == ClusterReference on arbitrary random weighted
// graphs and subsets.
func TestClusterReferenceProperty(t *testing.T) {
	f := func(seedRaw uint32, betaRaw uint8, weighted bool) bool {
		seed := uint64(seedRaw)
		r := rng.New(seed ^ 0xabcdef)
		n := int32(r.Intn(50) + 2)
		m := int64(n) - 1 + int64(r.Intn(60))
		if max := int64(n) * int64(n-1) / 2; m > max {
			m = max
		}
		g := graph.RandomConnectedGNM(n, m, seed)
		if weighted {
			g = graph.UniformWeights(g, 6, seed^5)
		}
		beta := 0.02 + float64(betaRaw)/256.0
		// Random subset of about half the vertices.
		mark := make([]int32, n)
		var subset []graph.V
		for v := graph.V(0); v < n; v++ {
			if r.Bernoulli(0.5) {
				mark[v] = 1
				subset = append(subset, v)
			}
		}
		opt := Options{Vertices: subset, Mark: mark, Token: 1}
		a := Cluster(g, beta, seed, opt)
		b := ClusterReference(g, beta, seed, opt)
		for v := graph.V(0); v < n; v++ {
			if a.Center[v] != b.Center[v] || a.DistToCenter[v] != b.DistToCenter[v] || a.Parent[v] != b.Parent[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkClusterUnweighted(b *testing.B) {
	g := graph.RandomConnectedGNM(20000, 80000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Cluster(g, 0.2, uint64(i), Options{})
	}
}

func BenchmarkClusterWeighted(b *testing.B) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(20000, 80000, 1), 16, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Cluster(g, 0.1, uint64(i), Options{})
	}
}
