package hopset

import (
	"container/heap"
	"math"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/sssp"
)

// This file implements the two baseline rows of Figure 2.
//
// KS97 is the exact hopset of Klein–Subramanian / Shi–Spencer: sample
// ≈√n hub vertices and connect every hub pair with an exact-distance
// edge. Hop count O(√n log n) whp, size O(n), construction work
// O(m√n) — the "cheap hopset, expensive construction" end of the
// table.
//
// CohenStyle is a hierarchical-sampling hopset standing in for Cohen's
// [Coh00] pairwise-cover construction (no implementation of the exact
// construction exists publicly; see DESIGN.md for the substitution
// argument). It builds a Thorup–Zwick-flavored hub hierarchy: level
// sets V = S_0 ⊇ S_1 ⊇ ... ⊇ S_L sampled geometrically; every level-i
// hub connects to its level-i "bunch" (the level-i hubs closer than
// its nearest level-(i+1) pivot) and to that pivot; the top level is a
// clique. This reproduces the qualitative Figure 2 row: small
// (polylog-flavored) hop counts, size n^{1+1/(L+1)}·polylog, and
// super-linear construction work.

// KS97 builds the √n-sampling exact hopset. Every hopset edge carries
// the exact distance between its hub endpoints (a real path weight).
func KS97(g *graph.Graph, seed uint64, cost *par.Cost) *Result {
	n := int(g.NumVertices())
	res := &Result{}
	if n < 2 || g.NumEdges() == 0 {
		return res
	}
	r := rng.New(seed)
	k := int(math.Ceil(math.Sqrt(float64(n))))
	perm := r.Perm(n)
	hubs := make([]graph.V, k)
	for i := 0; i < k; i++ {
		hubs[i] = perm[i]
	}
	// Exact SSSP from every hub; the searches are independent, so
	// they run side by side in the model.
	costs := make([]*par.Cost, k)
	edgeSets := make([][]graph.Edge, k)
	par.DoN(k, func(i int) {
		costs[i] = par.NewCost()
		d := sssp.Dijkstra(g, []graph.V{hubs[i]}, sssp.Options{Cost: costs[i]})
		var es []graph.Edge
		for j := i + 1; j < k; j++ {
			if d.Dist[hubs[j]] < graph.InfDist {
				es = append(es, graph.Edge{U: hubs[i], V: hubs[j], W: d.Dist[hubs[j]]})
			}
		}
		edgeSets[i] = es
	})
	cost.JoinMax(costs...)
	for _, es := range edgeSets {
		res.Edges = append(res.Edges, es...)
	}
	res.Cliques = len(res.Edges)
	return res
}

// CohenStyle builds the hierarchical-sampling hopset with the given
// number of intermediate levels (≥ 1; 2–3 is typical).
func CohenStyle(g *graph.Graph, levels int, seed uint64, cost *par.Cost) *Result {
	n := int(g.NumVertices())
	res := &Result{Levels: levels}
	if n < 2 || g.NumEdges() == 0 || levels < 1 {
		return res
	}
	r := rng.New(seed)
	// Sampling probability per level: |S_i| ≈ n^{1 - i/(levels+1)}.
	p := math.Pow(float64(n), -1.0/float64(levels+1))

	inLevel := make([][]bool, levels+1)
	inLevel[0] = make([]bool, n)
	for v := range inLevel[0] {
		inLevel[0][v] = true
	}
	levelSets := make([][]graph.V, levels+1)
	levelSets[0] = make([]graph.V, n)
	for v := range levelSets[0] {
		levelSets[0][v] = graph.V(v)
	}
	for i := 1; i <= levels; i++ {
		inLevel[i] = make([]bool, n)
		for _, v := range levelSets[i-1] {
			if r.Bernoulli(p) {
				inLevel[i][v] = true
				levelSets[i] = append(levelSets[i], v)
			}
		}
	}
	// Guarantee a non-empty top level so the clique glues the
	// hierarchy together.
	if len(levelSets[levels]) == 0 && len(levelSets[levels-1]) > 0 {
		v := levelSets[levels-1][0]
		inLevel[levels][v] = true
		levelSets[levels] = append(levelSets[levels], v)
	}

	// Bunches per level: from every hub v ∈ S_i run Dijkstra until the
	// first S_{i+1} pivot settles; connect v to the pivot and to all
	// S_i hubs settled strictly earlier.
	for i := 0; i < levels; i++ {
		hubs := levelSets[i]
		costs := make([]*par.Cost, len(hubs))
		edgeSets := make([][]graph.Edge, len(hubs))
		par.DoN(len(hubs), func(hi int) {
			costs[hi] = par.NewCost()
			edgeSets[hi] = bunchEdges(g, hubs[hi], inLevel[i], inLevel[i+1], costs[hi])
		})
		cost.JoinMax(costs...)
		for _, es := range edgeSets {
			res.Edges = append(res.Edges, es...)
		}
	}
	// Top-level clique with exact distances.
	top := levelSets[levels]
	costs := make([]*par.Cost, len(top))
	edgeSets := make([][]graph.Edge, len(top))
	par.DoN(len(top), func(i int) {
		costs[i] = par.NewCost()
		d := sssp.Dijkstra(g, []graph.V{top[i]}, sssp.Options{Cost: costs[i]})
		var es []graph.Edge
		for j := i + 1; j < len(top); j++ {
			if d.Dist[top[j]] < graph.InfDist {
				es = append(es, graph.Edge{U: top[i], V: top[j], W: d.Dist[top[j]]})
			}
		}
		edgeSets[i] = es
	})
	cost.JoinMax(costs...)
	for _, es := range edgeSets {
		res.Edges = append(res.Edges, es...)
		res.Cliques += len(es)
	}
	return res
}

// bunchEdges runs an early-terminating Dijkstra from hub v: it settles
// vertices in distance order until the first member of nextLevel
// (other than v itself) settles, emitting edges from v to every
// sameLevel hub settled before that pivot, plus the pivot edge.
func bunchEdges(g *graph.Graph, v graph.V, sameLevel, nextLevel []bool, cost *par.Cost) []graph.Edge {
	h := &bunchHeap{}
	dist := map[graph.V]graph.Dist{v: 0}
	settled := map[graph.V]bool{}
	heap.Push(h, qe{v, 0})
	var out []graph.Edge
	var ops int64
	for h.Len() > 0 {
		top := heap.Pop(h).(qe)
		if settled[top.v] || top.d > dist[top.v] {
			continue
		}
		settled[top.v] = true
		if top.v != v {
			if nextLevel[top.v] {
				out = append(out, graph.Edge{U: v, V: top.v, W: top.d})
				break // pivot reached: bunch complete
			}
			if sameLevel[top.v] {
				out = append(out, graph.Edge{U: v, V: top.v, W: top.d})
			}
		}
		wide := g.Wide(top.v)
		for i, a := range g.Arcs(top.v) {
			ops++
			u := a.To
			if settled[u] {
				continue
			}
			w := graph.W(a.W)
			if wide != nil {
				w = wide[i]
			}
			nd := top.d + w
			if d, ok := dist[u]; !ok || nd < d {
				dist[u] = nd
				heap.Push(h, qe{u, nd})
			}
		}
	}
	cost.AddWork(ops)
	cost.AddDepth(ops)
	return out
}

// qe is a (vertex, distance) heap entry.
type qe struct {
	v graph.V
	d graph.Dist
}

type bunchHeap []qe

func (h bunchHeap) Len() int            { return len(h) }
func (h bunchHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h bunchHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *bunchHeap) Push(x interface{}) { *h = append(*h, x.(qe)) }
func (h *bunchHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
