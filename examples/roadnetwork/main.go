// Road network scenario: the paper's motivating use case for hopsets.
//
// Road networks are high-diameter, low-degree graphs with travel-time
// weights — the worst case for level-synchronous parallel shortest
// path (depth = weighted diameter) and the best case for hopsets. We
// simulate a road network as a grid with perturbed travel times plus
// a few express "highways", preprocess it with the Section 5
// multi-scale hopset, and compare approximate route queries against
// exact Dijkstra: same answers within a few percent, at an order of
// magnitude fewer parallel levels.
package main

import (
	"fmt"

	spanhop "repro"
	"repro/internal/rng"
)

const (
	rows, cols = 60, 60
	maxTravel  = 600 // seconds per road segment
	highways   = 12
)

func buildRoadNetwork(seed uint64) *spanhop.Graph {
	r := rng.New(seed)
	id := func(rr, cc int32) spanhop.V { return rr*cols + cc }
	var edges []spanhop.Edge
	// Local roads: grid with heterogeneous travel times (city blocks
	// vs suburbs).
	for rr := int32(0); rr < rows; rr++ {
		for cc := int32(0); cc < cols; cc++ {
			w := func() spanhop.W { return 30 + r.Int63n(maxTravel) }
			if cc+1 < cols {
				edges = append(edges, spanhop.Edge{U: id(rr, cc), V: id(rr, cc+1), W: w()})
			}
			if rr+1 < rows {
				edges = append(edges, spanhop.Edge{U: id(rr, cc), V: id(rr+1, cc), W: w()})
			}
		}
	}
	// Highways: long-range links that are much faster per unit of
	// grid distance, like a motorway across town.
	for h := 0; h < highways; h++ {
		a := id(r.Int31n(rows), r.Int31n(cols))
		b := id(r.Int31n(rows), r.Int31n(cols))
		if a == b {
			continue
		}
		edges = append(edges, spanhop.Edge{U: a, V: b, W: 200 + r.Int63n(800)})
	}
	return spanhop.NewGraph(rows*cols, edges, true)
}

func main() {
	g := buildRoadNetwork(7)
	fmt.Printf("road network: n=%d intersections, m=%d segments, travel times %d..%d\n",
		g.NumVertices(), g.NumEdges(), g.MinWeight(), g.MaxWeight())

	// Preprocess once; gamma2=0.7 gives coarse top-level clusters
	// (few hops on long routes), the right trade for road networks.
	wp := spanhop.DefaultScaledHopsetParams(1)
	wp.Gamma2 = 0.7
	prep := spanhop.NewCost()
	hs := spanhop.BuildScaledHopset(g, wp, prep)
	fmt.Printf("hopset: %d shortcut edges across %d distance bands\n", hs.Size(), len(hs.Scales))
	fmt.Printf("preprocessing: work=%d depth=%d\n\n", prep.Work(), prep.Depth())

	// Route queries: random origin/destination pairs.
	r := rng.New(99)
	fmt.Printf("%-14s %-10s %-10s %-8s %-13s %-13s\n",
		"route", "exact(s)", "approx(s)", "error", "query levels", "plain levels")
	var sumLevels, sumPlain, sumErr float64
	const trips = 8
	done := 0
	for done < trips {
		s := r.Int31n(g.NumVertices())
		t := r.Int31n(g.NumVertices())
		if s == t {
			continue
		}
		exact := hs.ExactDistance(s, t)
		if exact < 5000 { // only long trips carry signal
			continue
		}
		q := hs.Query(nil, s, t, nil)
		errPct := 100 * (float64(q.Dist)/float64(exact) - 1)
		// Plain weighted parallel BFS needs `exact` levels.
		fmt.Printf("%4d -> %-6d %-10d %-10d %6.2f%%  %-13d %-13d\n",
			s, t, exact, q.Dist, errPct, q.Levels, exact)
		sumLevels += float64(q.Levels)
		sumPlain += float64(exact)
		sumErr += errPct
		done++
	}
	fmt.Printf("\nmean: %.2f%% error, %.0f query levels vs %.0f plain levels (%.1fx depth reduction)\n",
		sumErr/trips, sumLevels/trips, sumPlain/trips, sumPlain/sumLevels)
}
