package hopset

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/sssp"
)

// Result is a constructed hopset.
type Result struct {
	// Edges are the hopset edges. Every edge's weight is the exact
	// weight of a concrete path in the original graph (Definition 2.4
	// property 2), so the augmented graph preserves all distances.
	Edges []graph.Edge
	// Stars and Cliques count the two edge kinds (Lemma 4.3 bounds
	// Stars ≤ n and Cliques ≤ (n/n_final)·ρ²).
	Stars, Cliques int
	// Levels is the deepest recursion level reached.
	Levels int
	// Params echoes the construction parameters.
	Params Params
}

// Size returns the number of hopset edges.
func (r *Result) Size() int { return len(r.Edges) }

// Build constructs a hopset for g with Algorithm 4. It works for unit
// or integer weighted graphs alike: the clustering race and the
// center-to-center searches simply run weighted. For the weighted
// multi-scale construction of Section 5 see BuildWeighted, which calls
// this on rounded graphs.
//
// Cost accounting composes per the recursion structure: sibling calls
// at the same level join with max-depth (they run side by side in the
// model), levels compose sequentially.
func Build(g *graph.Graph, p Params, cost *par.Cost) *Result {
	return buildOn(g, g, p, cost)
}

// buildOn runs the recursion racing on gWork (possibly rounded
// weights) while reporting hopset edge weights measured in gTrue
// (original weights). The two graphs must share topology: identical
// vertex count and identical canonical edge list order.
func buildOn(gWork, gTrue *graph.Graph, p Params, cost *par.Cost) *Result {
	p = p.normalized()
	if gWork.NumVertices() != gTrue.NumVertices() || gWork.NumEdges() != gTrue.NumEdges() {
		panic("hopset: work/true graph topology mismatch")
	}
	n := int(gWork.NumVertices())
	res := &Result{Params: p}
	if n == 0 {
		return res
	}
	b := &builder{
		gWork:    gWork,
		gTrue:    gTrue,
		p:        p,
		ec:       p.Exec,
		rho:      p.Rho(n),
		nfinal:   p.NFinal(n),
		betaStep: p.BetaStep(n),
		maxLevel: p.MaxLevels(n),
	}
	b.mark = b.ec.Marks(n)
	defer b.ec.PutMarks(b.mark)
	all := make([]graph.V, n)
	for i := range all {
		all[i] = graph.V(i)
	}
	token := b.nextToken()
	for _, v := range all {
		b.mark[v] = token
	}
	edges := b.recurse(all, token, p.Beta0(n), 0, p.Seed, cost)
	res.Edges = edges
	res.Stars = int(b.stars.Load())
	res.Cliques = int(b.cliques.Load())
	res.Levels = int(b.deepest.Load())
	return res
}

type builder struct {
	gWork, gTrue *graph.Graph
	p            Params
	ec           *exec.Ctx
	rho          float64
	nfinal       int
	betaStep     float64
	maxLevel     int

	// mark/token implement subset-restricted clustering and searches
	// without materializing induced subgraphs. Sibling subtrees own
	// disjoint vertex sets, so concurrent access touches disjoint
	// array elements.
	mark     []int32
	tokenCtr atomic.Int32

	stars, cliques atomic.Int64
	deepest        atomic.Int64
}

func (b *builder) nextToken() int32 { return b.tokenCtr.Add(1) }

// recurse implements HopSet(V, E, β) of Algorithm 4 on the subset.
// level 0 is the special first call that recurses on every cluster.
func (b *builder) recurse(subset []graph.V, token int32, beta float64, level int, seed uint64, cost *par.Cost) []graph.Edge {
	if cur := b.deepest.Load(); int64(level) > cur {
		b.deepest.CompareAndSwap(cur, int64(level))
	}
	// Line 1: base case. A canceled build also bottoms out here: every
	// subtree still in flight returns empty and the whole recursion
	// unwinds within one bucket round per active cluster race.
	if len(subset) <= b.nfinal || level > b.maxLevel || b.ec.Canceled() {
		return nil
	}
	r := rng.New(seed)
	// Line 2: decompose the subset.
	clus := core.Cluster(b.gWork, beta, r.Uint64(), core.Options{
		Cost:     cost,
		Vertices: subset,
		Mark:     b.mark,
		Token:    token,
		Exec:     b.ec,
	})
	if b.ec.Canceled() {
		return nil // clus is partial; do not consume it
	}

	var out []graph.Edge
	var recurseOn [][]graph.V

	if level == 0 {
		// Lines 3–4: the first call recurses on every cluster.
		recurseOn = clus.Clusters
	} else {
		// Lines 6–7: split into large and small clusters. Lemma 4.3's
		// clique bound rests on there being at most ρ large clusters
		// (each holds ≥ a 1/ρ fraction). When ρ exceeds the subset
		// size — parameter points outside the lemma's asymptotic
		// domain, reachable through Appendix C's δ = 2/η at small n —
		// the threshold degenerates below one vertex and "all
		// clusters are large" would clique O(|V|²) pairs. The
		// invariant is therefore enforced directly: at most
		// min(⌈ρ⌉, 2√|V|+8) clusters — the largest ones — are
		// designated large, which caps the per-call clique at O(|V|)
		// edges without touching the construction inside the lemma's
		// domain.
		threshold := float64(len(subset)) / b.rho
		maxLarge := int(math.Ceil(b.rho))
		if b.rho >= float64(len(subset)) {
			// Outside the lemma's domain (threshold < 1 vertex).
			if guard := int(2*math.Sqrt(float64(len(subset)))) + 8; maxLarge > guard {
				maxLarge = guard
			}
		}
		var largeIdx []int
		for i, cl := range clus.Clusters {
			if float64(len(cl)) >= threshold {
				largeIdx = append(largeIdx, i)
			}
		}
		if len(largeIdx) > maxLarge {
			sort.Slice(largeIdx, func(a, c int) bool {
				la, lc := len(clus.Clusters[largeIdx[a]]), len(clus.Clusters[largeIdx[c]])
				if la != lc {
					return la > lc
				}
				return clus.Centers[largeIdx[a]] < clus.Centers[largeIdx[c]]
			})
			largeIdx = largeIdx[:maxLarge]
		}
		isLarge := make(map[int]bool, len(largeIdx))
		for _, i := range largeIdx {
			isLarge[i] = true
		}
		for i, cl := range clus.Clusters {
			if !isLarge[i] {
				recurseOn = append(recurseOn, cl)
			}
		}
		sort.Ints(largeIdx)
		// Line 8: star edges within each large cluster, with true
		// path weights along the cluster tree.
		for _, ci := range largeIdx {
			out = append(out, b.starEdges(clus, ci, cost)...)
		}
		// Line 9: clique edges between large-cluster centers, with
		// distances raced inside the current subset. The searches
		// from different centers run side by side in the model.
		if len(largeIdx) > 1 {
			out = append(out, b.cliqueEdges(clus, largeIdx, token, cost)...)
		}
	}

	// Line 10 (and line 4): recurse on the chosen clusters in
	// parallel with β increased by K·ε^{-1}·log n (Claim 4.1).
	nextBeta := beta * b.betaStep
	childEdges := make([][]graph.Edge, len(recurseOn))
	childCosts := make([]*par.Cost, len(recurseOn))
	childSeeds := make([]uint64, len(recurseOn))
	childTokens := make([]int32, len(recurseOn))
	for i := range recurseOn {
		childSeeds[i] = r.Uint64()
		childTokens[i] = b.nextToken()
		// Mark before spawning so each child only ever writes marks for
		// its own grandchildren. The store is atomic because a sibling
		// subtree (spawned by an ancestor's DoN) may concurrently read
		// this entry through a boundary neighbor's admits() check; it
		// observes either token, both foreign to it, so its decision is
		// unchanged.
		for _, v := range recurseOn[i] {
			atomic.StoreInt32(&b.mark[v], childTokens[i])
		}
		childCosts[i] = par.NewCost()
	}
	b.ec.DoN(len(recurseOn), func(i int) {
		childEdges[i] = b.recurse(recurseOn[i], childTokens[i], nextBeta, level+1, childSeeds[i], childCosts[i])
	})
	cost.JoinMax(childCosts...)
	for _, ce := range childEdges {
		out = append(out, ce...)
	}
	return out
}

// starEdges emits (v, center, true path weight) for every non-center
// vertex of the cluster, resolving true weights along the cluster tree
// in order of increasing tree distance so parents resolve first.
func (b *builder) starEdges(clus *core.Result, ci int, cost *par.Cost) []graph.Edge {
	cl := clus.Clusters[ci]
	center := clus.Centers[ci]
	if len(cl) <= 1 {
		return nil
	}
	order := make([]graph.V, len(cl))
	copy(order, cl)
	sort.Slice(order, func(i, j int) bool {
		if clus.DistToCenter[order[i]] != clus.DistToCenter[order[j]] {
			return clus.DistToCenter[order[i]] < clus.DistToCenter[order[j]]
		}
		return order[i] < order[j]
	})
	trueDist := make(map[graph.V]graph.W, len(cl))
	trueDist[center] = 0
	edges := make([]graph.Edge, 0, len(cl)-1)
	var work int64
	for _, v := range order {
		if v == center {
			continue
		}
		parent := clus.Parent[v]
		pw, ok := trueDist[parent]
		if !ok {
			panic("hopset: star tree parent unresolved")
		}
		w := pw + b.trueEdgeWeight(v, parent)
		work += int64(b.gTrue.Degree(v))
		trueDist[v] = w
		edges = append(edges, graph.Edge{U: v, V: center, W: w})
	}
	b.stars.Add(int64(len(edges)))
	cost.AddWork(work)
	cost.AddDepth(1)
	return edges
}

// trueEdgeWeight returns the minimum original weight among the
// parallel edges joining u and v; the pair must be adjacent.
func (b *builder) trueEdgeWeight(u, v graph.V) graph.W {
	wide := b.gTrue.Wide(u)
	best := graph.W(-1)
	for i, a := range b.gTrue.Arcs(u) {
		if a.To != v {
			continue
		}
		w := graph.W(a.W)
		if wide != nil {
			w = wide[i]
		}
		if best == -1 || w < best {
			best = w
		}
	}
	if best == -1 {
		panic(fmt.Sprintf("hopset: vertices %d and %d not adjacent", u, v))
	}
	return best
}

// cliqueEdges connects the centers of the given large clusters with
// edges weighted by the true weight of the raced path between them,
// searching within the current recursion subset only. The sources fan
// out over the execution context; each search is the sequential Dial
// race, whose parent tree is fixed by its bucket order, so the clique
// weights are a function of the graph alone and the build is
// bit-identical at any worker count.
func (b *builder) cliqueEdges(clus *core.Result, largeIdx []int, token int32, cost *par.Cost) []graph.Edge {
	centers := make([]graph.V, len(largeIdx))
	for i, ci := range largeIdx {
		centers[i] = clus.Centers[ci]
	}
	results := make([][]graph.Edge, len(centers))
	costs := make([]*par.Cost, len(centers))
	b.ec.DoN(len(centers), func(i int) {
		costs[i] = par.NewCost()
		if b.ec.Canceled() {
			return // the partial clique is discarded with the build
		}
		src := centers[i]
		res := sssp.Dial(b.gWork, []graph.V{src}, sssp.Options{
			Cost:  costs[i],
			Mark:  b.mark,
			Token: token,
			Exec:  b.ec,
		})
		var es []graph.Edge
		if !b.ec.Canceled() {
			for j := i + 1; j < len(centers); j++ {
				dst := centers[j]
				if !res.Reached(dst) {
					continue
				}
				w, ok := b.truePathWeight(res.Parent, dst)
				if !ok {
					continue
				}
				es = append(es, graph.Edge{U: src, V: dst, W: w})
			}
		}
		// The search result is fully consumed: recycle its O(n)
		// arrays for the sibling searches.
		res.Release(b.ec)
		results[i] = es
	})
	cost.JoinMax(costs...)
	var out []graph.Edge
	for i := range results {
		out = append(out, results[i]...)
	}
	b.cliques.Add(int64(len(out)))
	return out
}

// truePathWeight walks parent pointers from v back to the search root,
// accumulating true (original-graph) edge weights. Returns false when
// the walk is broken (should not happen for reached vertices).
func (b *builder) truePathWeight(parent []graph.V, v graph.V) (graph.W, bool) {
	var w graph.W
	steps := 0
	for parent[v] != graph.NoVertex {
		p := parent[v]
		w += b.trueEdgeWeight(v, p)
		v = p
		steps++
		if steps > len(parent)+1 {
			return 0, false
		}
	}
	return w, true
}
