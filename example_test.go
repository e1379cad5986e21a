package spanhop_test

// Godoc examples for the public facade: each compiles, runs, and has
// its output verified by `go test`.

import (
	"fmt"

	spanhop "repro"
)

// ExampleESTClusterOn shows the paper's key routine: with β = ln(n)/(2k)
// the clusters have radius O(k) with high probability.
func ExampleESTClusterOn() {
	g := spanhop.GridGraph(16, 16)
	clus := spanhop.ESTClusterOn(g, 0.5, 7, nil, nil)
	fmt.Println("clusters:", clus.NumClusters() > 1)
	fmt.Println("radius bounded:", clus.MaxRadius() <= 12)
	// Output:
	// clusters: true
	// radius bounded: true
}

// ExampleUnweightedSpannerOn builds an O(k)-stretch spanner and shows it
// sparsifies a dense graph.
func ExampleUnweightedSpannerOn() {
	g := spanhop.RandomGraph(1000, 20000, 42)
	sp := spanhop.UnweightedSpannerOn(g, 3, 1, nil, nil)
	fmt.Println("sparsified:", int64(sp.Size()) < g.NumEdges())
	fmt.Println("spans graph:", func() bool {
		h := sp.Graph(g)
		_, c := h.Components()
		return c == 1
	}())
	// Output:
	// sparsified: true
	// spans graph: true
}

// ExampleBuildHopset shows hop reduction: with the hopset, a few
// Bellman–Ford rounds reach a far vertex near-optimally.
func ExampleBuildHopset() {
	g := spanhop.GridGraph(30, 30) // corner-to-corner distance 58
	p := spanhop.DefaultHopsetParams(3)
	p.Gamma2 = 0.6
	hs := spanhop.BuildHopset(g, p, nil)
	far := g.NumVertices() - 1
	exact := spanhop.ShortestPaths(g, 0).Dist[far]
	with := spanhop.HopLimitedDistances(g, hs.Edges, 0, 10)[far]
	without := spanhop.HopLimitedDistances(g, nil, 0, 10)[far]
	fmt.Println("exact distance:", exact)
	fmt.Println("10 hops with hopset near-exact:", float64(with) <= 1.5*float64(exact))
	fmt.Println("10 hops without hopset reaches:", without < spanhop.InfDist)
	// Output:
	// exact distance: 58
	// 10 hops with hopset near-exact: true
	// 10 hops without hopset reaches: false
}

// ExampleNewDistanceOracleOpts_exact answers exact distances: the
// default engine builds nothing and runs point-to-point Dijkstra per
// query.
func ExampleNewDistanceOracleOpts_exact() {
	g := spanhop.WithUniformWeights(spanhop.GridGraph(20, 20), 100, 5)
	oracle := spanhop.NewDistanceOracleOpts(g, 0.25, 6, spanhop.OracleOptions{})
	d, err := oracle.Query(0, g.NumVertices()-1)
	fmt.Println("err:", err)
	fmt.Println("exact:", d == oracle.ExactDistance(0, g.NumVertices()-1))
	fmt.Println("hopset edges:", oracle.HopsetSize())
	// Output:
	// err: <nil>
	// exact: true
	// hopset edges: 0
}

// ExampleNewDistanceOracleOpts runs the end-to-end Theorem 1.2
// pipeline: OracleOptions.Hopset builds the hopset, whose answers are
// (1+ε)-approximate with low parallel depth.
func ExampleNewDistanceOracleOpts() {
	g := spanhop.WithUniformWeights(spanhop.GridGraph(20, 20), 100, 5)
	oracle := spanhop.NewDistanceOracleOpts(g, 0.25, 6, spanhop.OracleOptions{Hopset: true})
	approx, err := oracle.Query(0, g.NumVertices()-1)
	exact := oracle.ExactDistance(0, g.NumVertices()-1)
	fmt.Println("err:", err)
	fmt.Println("sound:", approx >= exact)
	fmt.Println("tight:", float64(approx) <= 1.5*float64(exact))
	// Output:
	// err: <nil>
	// sound: true
	// tight: true
}

// ExampleParallelShortestPathsOn shows the multicore Δ-stepping SSSP:
// distances are bit-identical to the sequential Dijkstra reference
// while the frontier expands on the context's workers.
func ExampleParallelShortestPathsOn() {
	g := spanhop.WithUniformWeights(spanhop.GridGraph(40, 40), 9, 3)
	par := spanhop.ParallelShortestPathsOn(g, 0, spanhop.ParallelExec(0), nil)
	seq := spanhop.ShortestPaths(g, 0)
	same := true
	for v := range par.Dist {
		if par.Dist[v] != seq.Dist[v] {
			same = false
		}
	}
	fmt.Println("matches Dijkstra:", same)
	fmt.Println("far corner reached:", par.Reached(g.NumVertices()-1))
	// Output:
	// matches Dijkstra: true
	// far corner reached: true
}

// ExampleDistanceOracle_QueryBatch serves a batch of (1+ε)-approximate
// distance queries, fanned across goroutines after one hopset
// preprocessing.
func ExampleDistanceOracle_QueryBatch() {
	g := spanhop.WithUniformWeights(spanhop.GridGraph(20, 20), 50, 5)
	oracle := spanhop.NewDistanceOracleOpts(g, 0.25, 6, spanhop.OracleOptions{Hopset: true})
	pairs := [][2]spanhop.V{
		{0, g.NumVertices() - 1},
		{0, 19},
		{5, 5},
	}
	stats, err := oracle.QueryBatch(pairs)
	fmt.Println("err:", err)
	sound := true
	for i, st := range stats {
		if st.Dist < oracle.ExactDistance(pairs[i][0], pairs[i][1]) {
			sound = false
		}
	}
	fmt.Println("answers:", len(stats))
	fmt.Println("all sound:", sound)
	fmt.Println("self query:", stats[2].Dist)
	// Output:
	// err: <nil>
	// answers: 3
	// all sound: true
	// self query: 0
}

// ExampleNewCost shows PRAM work/depth accounting.
func ExampleNewCost() {
	g := spanhop.GridGraph(32, 32)
	cost := spanhop.NewCost()
	spanhop.ParallelBFS(g, 0, cost)
	// BFS from a corner: one round per level, 62 levels + final.
	fmt.Println("depth:", cost.Depth())
	fmt.Println("work >= edges:", cost.Work() >= g.NumEdges())
	// Output:
	// depth: 63
	// work >= edges: true
}
