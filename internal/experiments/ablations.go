package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/hopset"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/sssp"
	"repro/internal/workload"
)

// This file holds the ablation experiments for the design choices
// DESIGN.md calls out:
//
//   - AblationShifts: what do the exponential start time shifts buy
//     over plain "random centers + BFS Voronoi" clustering in the
//     spanner construction?
//   - AblationDelta: how does the hopset's δ (the ρ-vs-β separation
//     exponent) trade size against hop count?
//   - AblationEscalation: the query engine's hop-budget escalation
//     factor (our adaptive addition to the paper's query stage).
//   - BrentProjection: translate measured (work, depth) into the
//     predicted running times the paper's Section 2 discussion is
//     about.

// AblationShifts compares the EST clustering against a same-granularity
// random-centers BFS clustering inside the unweighted spanner: same
// pipeline, only the decomposition differs. The exponential shifts are
// what bound the per-edge cut probability (Cor 2.3) and the
// ball-intersection count (Lemma 2.2) — without them, boundary edges
// (and hence spanner size) blow up and stretch control degrades.
func AblationShifts(scale Scale, seed uint64) []ScalingRow {
	g := workload.ER(int32(scale.pick(1024, 4096)), 8, seed).Gen()
	k := 3
	var rows []ScalingRow

	// EST variant (the paper's construction).
	{
		clus := core.Cluster(g, betaForN(g.NumVertices(), k), seed+1, core.Options{UnitWeights: true})
		size, stretch := spannerFromClustering(g, clus, seed+2)
		rows = append(rows, ScalingRow{
			Label: "est shifts (paper)", N: int64(g.NumVertices()), M: g.NumEdges(), K: k,
			Size: int64(size), Extra: stretch, Extraux: "stretch max",
		})
	}
	// Random-centers variant with the same number of centers.
	{
		ref := core.Cluster(g, betaForN(g.NumVertices(), k), seed+1, core.Options{UnitWeights: true})
		clus := randomCenterClustering(g, ref.NumClusters(), seed+3)
		size, stretch := spannerFromClustering(g, clus, seed+4)
		rows = append(rows, ScalingRow{
			Label: "random centers", N: int64(g.NumVertices()), M: g.NumEdges(), K: k,
			Size: int64(size), Extra: stretch, Extraux: "stretch max",
		})
	}
	return rows
}

func betaForN(n graph.V, k int) float64 {
	if n < 3 {
		n = 3
	}
	return math.Log(float64(n)) / (2 * float64(k))
}

// randomCenterClustering samples c centers uniformly and assigns every
// vertex to its nearest center by multi-source BFS (unreached vertices
// become their own centers).
func randomCenterClustering(g *graph.Graph, c int, seed uint64) *core.Result {
	r := rng.New(seed)
	n := g.NumVertices()
	perm := r.Perm(int(n))
	centers := make([]graph.V, 0, c)
	for i := 0; i < c && i < int(n); i++ {
		centers = append(centers, perm[i])
	}
	res := sssp.BFS(g, centers, sssp.Options{})
	out := &core.Result{
		Center:       make([]graph.V, n),
		Parent:       make([]graph.V, n),
		DistToCenter: make([]graph.Dist, n),
		ClusterOf:    make([]int32, n),
	}
	// Root lookup: walk parents to the BFS source.
	rootOf := make([]graph.V, n)
	for i := range rootOf {
		rootOf[i] = graph.NoVertex
	}
	for _, cv := range centers {
		rootOf[cv] = cv
	}
	var resolve func(v graph.V) graph.V
	resolve = func(v graph.V) graph.V {
		if rootOf[v] != graph.NoVertex {
			return rootOf[v]
		}
		p := res.Parent[v]
		if p == graph.NoVertex {
			rootOf[v] = v // unreached: own center
			return v
		}
		rootOf[v] = resolve(p)
		return rootOf[v]
	}
	for v := graph.V(0); v < n; v++ {
		out.Center[v] = resolve(v)
		out.Parent[v] = res.Parent[v]
		if res.Dist[v] == graph.InfDist {
			out.Parent[v] = graph.NoVertex
			out.DistToCenter[v] = 0
		} else {
			out.DistToCenter[v] = res.Dist[v]
		}
	}
	// Dense grouping.
	idx := map[graph.V]int32{}
	for v := graph.V(0); v < n; v++ {
		cv := out.Center[v]
		ci, ok := idx[cv]
		if !ok {
			ci = int32(len(out.Centers))
			idx[cv] = ci
			out.Centers = append(out.Centers, cv)
			out.Clusters = append(out.Clusters, []graph.V{cv})
		}
		out.ClusterOf[v] = ci
		if v != cv {
			out.Clusters[ci] = append(out.Clusters[ci], v)
		}
	}
	return out
}

// spannerFromClustering applies Algorithm 2's second step (forest +
// one edge per boundary/cluster pair) to an arbitrary clustering and
// measures the result.
func spannerFromClustering(g *graph.Graph, clus *core.Result, seed uint64) (int, float64) {
	ids := core.ForestEdges(g, clus)
	best := map[int32]int32{}
	for v := graph.V(0); v < g.NumVertices(); v++ {
		cv := clus.ClusterOf[v]
		clear(best)
		eids := g.AdjEdgeIDs(v)
		for i, a := range g.Arcs(v) {
			cu := clus.ClusterOf[a.To]
			if cu == cv {
				continue
			}
			if prev, ok := best[cu]; !ok || eids[i] < prev {
				best[cu] = eids[i]
			}
		}
		for _, e := range best {
			ids = append(ids, e)
		}
	}
	// Dedup.
	seen := map[int32]bool{}
	var ded []int32
	for _, e := range ids {
		if !seen[e] {
			seen[e] = true
			ded = append(ded, e)
		}
	}
	st := eval.SpannerStretch(g, ded, 200, seed)
	return len(ded), st.Max
}

// AblationDelta sweeps the hopset's δ parameter: larger δ means faster
// cluster-size decay relative to β growth — fewer recursion levels and
// fewer clique edges, but coarser shortcut structure.
func AblationDelta(scale Scale, seed uint64) []ScalingRow {
	g := workload.Grid(int32(scale.pick(24, 40))).Gen()
	pairs := connectedPairs(g, scale.pick(4, 8), 20, seed+1)
	var rows []ScalingRow
	for _, delta := range []float64{1.2, 1.5, 2.0, 3.0} {
		p := hopset.DefaultParams(seed + uint64(delta*10))
		p.Delta = delta
		cost := par.NewCost()
		res := hopset.Build(g, p, cost)
		hops := eval.HopsetHops(g, res.Edges, pairs, 0.5)
		rows = append(rows, ScalingRow{
			Label: fmt.Sprintf("delta=%.1f", delta),
			N:     int64(g.NumVertices()), M: g.NumEdges(),
			Size:  int64(res.Size()),
			Work:  cost.Work(),
			Depth: cost.Depth(),
			Extra: hops.Mean, Extraux: "hops mean",
		})
	}
	return rows
}

// AblationEscalation sweeps the query hop-budget escalation factor on
// a long weighted path — an instance whose shortcut paths need far
// more than the initial 16-hop budget, so the escalation policy
// actually engages (on low-hop instances all factors coincide).
func AblationEscalation(scale Scale, seed uint64) []ScalingRow {
	g := graph.UniformWeights(graph.Path(int32(scale.pick(1500, 4000))), 100, seed)
	pairs := connectedPairs(g, scale.pick(3, 6), graph.Dist(scale.pick(30000, 90000)), seed+1)
	type variant struct {
		label   string
		esc     float64
		initial float64
	}
	variants := []variant{
		{"start=16, esc=2", 2, 16},
		{"start=16, esc=8 (default)", 8, 16},
		{"start=16, esc=32", 32, 16},
		{"start=lemma-bound (no adaptivity)", 8, 1e12},
	}
	var rows []ScalingRow
	for _, v := range variants {
		wp := hopset.DefaultWeightedParams(seed + 7)
		wp.Gamma2 = 0.5
		wp.Escalation = v.esc
		wp.InitialHopBudget = v.initial
		s := hopset.BuildScaled(g, wp, nil)
		var levels, work, distort []float64
		for _, p := range pairs {
			exact := s.ExactDistance(p[0], p[1])
			q := s.Query(p[0], p[1], nil)
			levels = append(levels, float64(q.Levels))
			work = append(work, float64(q.Work))
			distort = append(distort, float64(q.Dist)/float64(exact))
		}
		rows = append(rows, ScalingRow{
			Label: v.label,
			N:     int64(g.NumVertices()), M: g.NumEdges(),
			Size:  int64(s.Size()),
			Work:  int64(eval.Mean(work)),
			Depth: int64(eval.Mean(levels)),
			Extra: eval.Mean(distort), Extraux: "distortion",
		})
	}
	return rows
}

// BrentProjection translates measured (work, depth) of the headline
// algorithms into predicted times and speedups at several processor
// counts (Brent's bound), reproducing the paper's point that O(m)-work
// algorithms dominate at realistic machine sizes.
func BrentProjection(scale Scale, seed uint64) *eval.Table {
	g := workload.ER(int32(scale.pick(2048, 8192)), 8, seed).Gen()
	type meas struct {
		name        string
		work, depth int64
	}
	var ms []meas
	{
		cost := par.NewCost()
		_ = mustSpanner(g, 3, seed+1, cost)
		ms = append(ms, meas{"est-spanner k=3", cost.Work(), cost.Depth()})
	}
	{
		cost := par.NewCost()
		hopset.Build(g, hopset.DefaultParams(seed+2), cost)
		ms = append(ms, meas{"est-hopset", cost.Work(), cost.Depth()})
	}
	{
		cost := par.NewCost()
		sssp.BFS(g, []graph.V{0}, sssp.Options{Cost: cost})
		ms = append(ms, meas{"parallel BFS", cost.Work(), cost.Depth()})
	}
	{
		cost := par.NewCost()
		sssp.Dijkstra(g, []graph.V{0}, sssp.Options{Cost: cost})
		ms = append(ms, meas{"dijkstra (seq)", cost.Work(), cost.Depth()})
	}
	t := eval.NewTable("Brent projection: predicted time (work/p + depth) and speedup",
		"algorithm", "work", "depth", "T(p=16)", "T(p=256)", "T(p=4096)", "speedup@256", "p*")
	for _, m := range ms {
		t.Add(m.name,
			fmt.Sprint(m.work), fmt.Sprint(m.depth),
			eval.FormatFloat(eval.BrentTime(m.work, m.depth, 16)),
			eval.FormatFloat(eval.BrentTime(m.work, m.depth, 256)),
			eval.FormatFloat(eval.BrentTime(m.work, m.depth, 4096)),
			eval.FormatFloat(eval.Speedup(m.work, m.depth, 256)),
			eval.FormatFloat(eval.SaturationProcessors(m.work, m.depth)))
	}
	return t
}

func mustSpanner(g *graph.Graph, k int, seed uint64, cost *par.Cost) int {
	res := spannerContenders()[0].run(g, k, seed, cost)
	return res.Size()
}
