// Quickstart: the five-minute tour of the library — cluster a graph,
// sparsify it with a spanner, shortcut a high-diameter graph with a
// hopset, and answer approximate distance queries, with PRAM
// work/depth numbers for each step.
package main

import (
	"fmt"

	spanhop "repro"
)

func main() {
	// A dense unweighted random graph: 5000 vertices, 100k edges.
	g := spanhop.RandomGraph(5000, 100_000, 42)
	fmt.Printf("graph: n=%d m=%d (unweighted)\n", g.NumVertices(), g.NumEdges())

	// 1. Exponential start time clustering — the paper's key routine.
	// With beta = ln(n)/(2k), radii are O(k) whp (Lemma 2.1) and each
	// edge is cut with probability ~ln(n)/(2k) (Corollary 2.3).
	cost := spanhop.NewCost()
	clus := spanhop.ESTClusterWithCost(g, 0.42, 1, cost) // ln(5000)/(2*10)
	fmt.Printf("\nEST clustering (beta=0.42): %d clusters, max radius %d\n",
		clus.NumClusters(), clus.MaxRadius())
	fmt.Printf("  cost: work=%d, depth=%d rounds\n", cost.Work(), cost.Depth())

	// 2. An O(k)-stretch spanner with ~n^(1+1/k) edges (Theorem 1.1):
	// at k=3 that is ~n^1.33 ≈ 84k candidate envelope, and the
	// construction lands well under the input size.
	for _, k := range []int{2, 3, 5} {
		cost = spanhop.NewCost()
		sp := spanhop.UnweightedSpannerWithCost(g, k, 2, cost)
		fmt.Printf("\nspanner k=%d: %d of %d edges kept (%.1f%%), work=%d, depth=%d\n",
			k, sp.Size(), g.NumEdges(),
			100*float64(sp.Size())/float64(g.NumEdges()), cost.Work(), cost.Depth())
	}

	// 3. A hopset on a high-diameter graph: extra edges so that a few
	// Bellman-Ford rounds approximate true distances (Theorem 4.4).
	grid := spanhop.GridGraph(70, 70) // hop diameter 138
	p := spanhop.DefaultHopsetParams(3)
	p.Gamma2 = 0.6
	cost = spanhop.NewCost()
	hs := spanhop.BuildHopsetWithCost(grid, p, cost)
	fmt.Printf("\nhopset on 70x70 grid: %d edges (%d star + %d clique), work=%d, depth=%d\n",
		hs.Size(), hs.Stars, hs.Cliques, cost.Work(), cost.Depth())

	src := spanhop.V(0)
	exact := spanhop.ShortestPaths(grid, src)
	coverage := func(extra []spanhop.Edge, hops int) int {
		d := spanhop.HopLimitedDistances(grid, extra, src, hops)
		n := 0
		for v, dv := range d {
			if dv < spanhop.InfDist && float64(dv) <= 1.5*float64(exact.Dist[v]) {
				n++
			}
		}
		return n
	}
	for _, hops := range []int{10, 25, 50} {
		fmt.Printf("  %3d-hop coverage within 1.5x of exact: %4d vertices with hopset, %4d without\n",
			hops, coverage(hs.Edges, hops), coverage(nil, hops))
	}

	// 4. The end-to-end (1+eps) distance oracle of Theorem 1.2, on a
	// weighted version of the grid (weighted diameter ~50k). The
	// default oracle answers exactly; Hopset selects the paper's
	// pipeline.
	wg := spanhop.WithUniformWeights(grid, 1000, 5)
	oracle := spanhop.NewDistanceOracleOpts(wg, 0.25, 6, spanhop.OracleOptions{Hopset: true})
	s, t := spanhop.V(0), wg.NumVertices()-1
	st, err := oracle.QueryStats(s, t)
	if err != nil {
		panic(err)
	}
	truth := oracle.ExactDistance(s, t)
	fmt.Printf("\noracle corner-to-corner query: approx=%d exact=%d (ratio %.4f)\n",
		st.Dist, truth, float64(st.Dist)/float64(truth))
	fmt.Printf("  answered in %d parallel levels; plain weighted BFS would need %d\n",
		st.Levels, truth)
}
