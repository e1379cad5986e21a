// Social network scenario: spanner sparsification of a skewed-degree
// graph.
//
// Social graphs are dense, low-diameter, and heavy-tailed — exactly
// where an O(k)-spanner pays off: a small multiplicative error on
// distances buys a dramatic edge-count reduction, which downstream
// analytics (reachability, community detection, visualization) run on
// instead of the full graph. We build an RMAT graph, sparsify it with
// the paper's EST spanner at several k, and compare against
// Baswana–Sen on size, cost, and realized stretch.
package main

import (
	"fmt"

	spanhop "repro"
	"repro/internal/eval"
)

func main() {
	// RMAT with the classic (0.57, 0.19, 0.19) parameters: 2^13
	// vertices, ~16 average degree, heavy-tailed.
	g := spanhop.RMATGraph(13, 1<<17, 1)
	var maxDeg int32
	for v := spanhop.V(0); v < g.NumVertices(); v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	fmt.Printf("social graph: n=%d m=%d, max degree %d (mean %.1f)\n\n",
		g.NumVertices(), g.NumEdges(), maxDeg,
		float64(2*g.NumEdges())/float64(g.NumVertices()))

	fmt.Printf("%-4s %-22s %-10s %-8s %-10s %-10s %-12s\n",
		"k", "algorithm", "edges", "kept%", "work", "depth", "stretch(max)")
	for _, k := range []int{2, 3, 5, 8} {
		for _, algo := range []string{"est-spanner (ours)", "baswana-sen"} {
			cost := spanhop.NewCost()
			var res *spanhop.Spanner
			if algo == "est-spanner (ours)" {
				res = spanhop.UnweightedSpannerOn(g, k, uint64(k), nil, cost)
			} else {
				res = spanhop.BaswanaSenSpanner(g, k, uint64(k), cost)
			}
			st := eval.SpannerStretch(g, res.EdgeIDs, 200, uint64(10*k))
			fmt.Printf("%-4d %-22s %-10d %-8.1f %-10d %-10d %-12.1f\n",
				k, algo, res.Size(),
				100*float64(res.Size())/float64(g.NumEdges()),
				cost.Work(), cost.Depth(), st.Max)
		}
	}

	fmt.Println("\nreading the table: ours keeps fewer edges at equal k (the size")
	fmt.Println("advantage of Theorem 1.1 over the k·n^(1+1/k) baselines) with O(m)")
	fmt.Println("work independent of k, trading a constant factor of stretch.")
}
