package spanner

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/rng"
)

// BaswanaSen builds a (2k−1)-spanner with the randomized clustering
// algorithm of Baswana and Sen [BS07], the main comparison row of
// Figure 1: expected size O(k·n^{1+1/k}), work O(k·m). It works on
// weighted graphs; for unweighted graphs all weights count as 1.
//
// The algorithm runs k−1 clustering phases. In each phase clusters are
// sampled with probability n^{-1/k}; a vertex not adjacent to any
// sampled cluster keeps its lightest edge to every adjacent cluster
// and retires its remaining edges, while a vertex adjacent to a
// sampled cluster joins the lightest such neighbor, keeps that edge
// plus every strictly lighter per-cluster edge, and discards the edges
// those choices dominate. A final phase keeps the lightest edge from
// every vertex to every surviving adjacent cluster.
//
// Cost accounting: each phase is O(m) work and O(1) rounds in the
// model (the per-vertex grouping is a constant number of parallel
// primitives), matching the O(k·m) work / O(k·log* n) depth row.
func BaswanaSen(g *graph.Graph, k int, seed uint64, cost *par.Cost) *Result {
	if k < 1 {
		panic(fmt.Sprintf("spanner: BaswanaSen k = %d", k))
	}
	n := g.NumVertices()
	m := g.NumEdges()
	r := rng.New(seed)
	if n == 0 || m == 0 {
		return &Result{Levels: k}
	}
	p := math.Pow(float64(n), -1.0/float64(k))

	// clusterOf[v] is the id of v's cluster (ids are center vertex
	// ids) or NoVertex once v has retired.
	clusterOf := make([]graph.V, n)
	for i := range clusterOf {
		clusterOf[i] = graph.V(i)
	}
	removed := make([]bool, m)
	var out []int32

	keep := func(e int32) {
		out = append(out, e)
	}
	// lightest edge (by weight then id) from v to each adjacent
	// cluster, among alive edges.
	lightestPerCluster := func(v graph.V) map[graph.V]int32 {
		best := map[graph.V]int32{}
		ids := g.AdjEdgeIDs(v)
		for i, a := range g.Arcs(v) {
			e := ids[i]
			if removed[e] {
				continue
			}
			cu := clusterOf[a.To]
			if cu == graph.NoVertex || cu == clusterOf[v] {
				continue
			}
			if prev, ok := best[cu]; !ok || better(g, e, prev) {
				best[cu] = e
			}
		}
		return best
	}
	removeEdgesTo := func(v graph.V, target graph.V) {
		ids := g.AdjEdgeIDs(v)
		for i, a := range g.Arcs(v) {
			if clusterOf[a.To] == target {
				removed[ids[i]] = true
			}
		}
	}
	removeAllEdges := func(v graph.V) {
		for _, e := range g.AdjEdgeIDs(v) {
			removed[e] = true
		}
	}

	for phase := 1; phase <= k-1; phase++ {
		// Sample the surviving clusters.
		sampled := map[graph.V]bool{}
		for v := graph.V(0); v < n; v++ {
			if clusterOf[v] == v { // v is a live center
				sampled[v] = r.Bernoulli(p)
			}
		}
		next := make([]graph.V, n)
		copy(next, clusterOf)
		for v := graph.V(0); v < n; v++ {
			cv := clusterOf[v]
			if cv == graph.NoVertex {
				continue // retired in an earlier phase
			}
			if sampled[cv] {
				continue // v's cluster survives; v stays put
			}
			best := lightestPerCluster(v)
			// Find the lightest edge to a *sampled* adjacent cluster.
			var bestSampled graph.V = graph.NoVertex
			bestEdge := graph.NoEdge
			for c, e := range best {
				if !sampled[c] {
					continue
				}
				if bestEdge == graph.NoEdge || better(g, e, bestEdge) {
					bestSampled, bestEdge = c, e
				}
			}
			if bestSampled == graph.NoVertex {
				// Not adjacent to any sampled cluster: keep one edge
				// per adjacent cluster and retire.
				for _, e := range best {
					keep(e)
				}
				removeAllEdges(v)
				next[v] = graph.NoVertex
				continue
			}
			// Join the sampled cluster through its lightest edge.
			keep(bestEdge)
			next[v] = bestSampled
			removeEdgesTo(v, bestSampled)
			// Keep (and discard the rest of) every strictly lighter
			// adjacent cluster.
			for c, e := range best {
				if c == bestSampled {
					continue
				}
				if better(g, e, bestEdge) {
					keep(e)
					removeEdgesTo(v, c)
				}
			}
		}
		clusterOf = next
		cost.Round(int64(m) + int64(n))
	}

	// Final phase: lightest alive edge from each vertex to each
	// adjacent surviving cluster.
	for v := graph.V(0); v < n; v++ {
		if clusterOf[v] == graph.NoVertex {
			continue
		}
		for _, e := range lightestPerCluster(v) {
			keep(e)
		}
	}
	cost.Round(int64(m) + int64(n))
	return &Result{EdgeIDs: uniqueIDs(out, m), Levels: k}
}

// Greedy builds the greedy (2k−1)-spanner of Althöfer et al. [ADD+93]:
// process edges in increasing weight and keep an edge exactly when the
// spanner built so far does not already provide a path of length ≤
// (2k−1)·w(e) between its endpoints. Smallest known sizes, but
// O(m·n^{1+1/k} )-ish work — the Figure 1 row that trades work for
// size. Test/benchmark scale only.
func Greedy(g *graph.Graph, k int, cost *par.Cost) *Result {
	if k < 1 {
		panic(fmt.Sprintf("spanner: Greedy k = %d", k))
	}
	n := g.NumVertices()
	order := make([]int32, g.NumEdges())
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool { return better(g, order[i], order[j]) })

	// Growing adjacency of the spanner.
	type arc struct {
		to graph.V
		w  graph.W
	}
	adj := make([][]arc, n)
	var out []int32
	stretch := graph.W(2*k - 1)

	// Bounded Dijkstra inside the current spanner.
	dist := make([]graph.Dist, n)
	for i := range dist {
		dist[i] = graph.InfDist
	}
	var touchedList []graph.V
	reachWithin := func(s, t graph.V, bound graph.Dist) bool {
		type qe struct {
			v graph.V
			d graph.Dist
		}
		q := []qe{{s, 0}}
		dist[s] = 0
		touchedList = append(touchedList[:0], s)
		found := false
		var ops int64
		for len(q) > 0 {
			best := 0
			for i := 1; i < len(q); i++ {
				if q[i].d < q[best].d {
					best = i
				}
			}
			cur := q[best]
			q[best] = q[len(q)-1]
			q = q[:len(q)-1]
			if cur.d > dist[cur.v] {
				continue
			}
			if cur.v == t {
				found = true
				break
			}
			for _, a := range adj[cur.v] {
				ops++
				nd := cur.d + a.w
				if nd <= bound && nd < dist[a.to] {
					if dist[a.to] == graph.InfDist {
						touchedList = append(touchedList, a.to)
					}
					dist[a.to] = nd
					q = append(q, qe{a.to, nd})
				}
			}
		}
		cost.AddWork(ops)
		cost.AddDepth(ops)
		for _, v := range touchedList {
			dist[v] = graph.InfDist
		}
		return found
	}

	for _, e := range order {
		ed := g.Edges()[e]
		w := g.EdgeWeight(e)
		if !reachWithin(ed.U, ed.V, stretch*w) {
			out = append(out, e)
			adj[ed.U] = append(adj[ed.U], arc{ed.V, w})
			adj[ed.V] = append(adj[ed.V], arc{ed.U, w})
		}
	}
	return &Result{EdgeIDs: uniqueIDs(out, g.NumEdges()), Levels: 1}
}
