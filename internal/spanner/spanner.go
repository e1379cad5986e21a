// Package spanner implements the paper's spanner constructions
// (Section 3) and the baselines it compares against in Figure 1.
//
//   - Unweighted (Algorithm 2 / Lemma 3.2): one exponential start time
//     clustering with β = ln(n)/(2k); keep the cluster forest and one
//     edge from each boundary vertex to each adjacent cluster. Stretch
//     O(k), expected size O(n^{1+1/k}), work O(m), depth O(k log* n).
//
//   - WellSeparated (Algorithm 3): for graphs whose edge-weight buckets
//     are separated by factors ≥ k^c, iterate buckets in increasing
//     weight, cluster the unit-weight quotient graph G[A_i]/H_{i-1},
//     and contract the new forests into H_i.
//
//   - Weighted (Theorem 3.3): bucket edges by powers of two, deal the
//     buckets into O(log k) well-separated groups, and run
//     WellSeparated on every group (in parallel in the model).
//
// Baselines (separate files): Baswana–Sen's (2k−1)-spanner [BS07] and
// the greedy (2k−1)-spanner [ADD+93].
package spanner

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/ufind"
)

// Options configure a spanner construction.
type Options struct {
	// Cost accumulates PRAM work/depth; may be nil.
	Cost *par.Cost
	// Exec is the execution context: a parallel context runs the
	// clustering races, boundary sweeps, and weighted groups on the
	// pooled workers under its cap; its cancellation is polled at
	// bucket boundaries (a canceled build's result is invalid — check
	// Exec.Err()). Nil keeps legacy behavior. The resulting edge set
	// is identical on a parallel context (the clustering is
	// bit-identical and per-vertex boundary choices are independent;
	// the id list is canonicalized by sorting).
	Exec *exec.Ctx
}

// Result is a spanner: a subset of the input graph's canonical edge
// ids, plus diagnostics.
type Result struct {
	// EdgeIDs are the spanner edges as canonical edge ids of the
	// input graph, sorted ascending.
	EdgeIDs []int32
	// Clustering is the single EST clustering used by the unweighted
	// construction; nil for weighted constructions (which use many).
	Clustering *core.Result
	// Levels is the number of clustering rounds performed (1 for
	// unweighted; buckets × groups for weighted).
	Levels int
}

// Size returns the number of spanner edges.
func (r *Result) Size() int { return len(r.EdgeIDs) }

// Graph materializes the spanner as a standalone graph over the same
// vertex set as g.
func (r *Result) Graph(g *graph.Graph) *graph.Graph {
	return g.SubgraphFromEdgeIDs(r.EdgeIDs)
}

// betaFor returns the clustering parameter β = ln(n)/(2k) from Lemma
// 3.2, guarded for tiny n.
func betaFor(n int32, k int) float64 {
	if n < 3 {
		n = 3
	}
	return math.Log(float64(n)) / (2 * float64(k))
}

// Unweighted builds an O(k)-stretch spanner of expected size
// O(n^{1+1/k}) for an unweighted graph (Algorithm 2). Edge weights, if
// any, are ignored (every edge counts as 1), matching the paper's
// unweighted setting. k must be ≥ 1.
func Unweighted(g *graph.Graph, k int, seed uint64, cost *par.Cost) *Result {
	return UnweightedOpts(g, k, seed, Options{Cost: cost})
}

// UnweightedOpts is Unweighted with the full option set (notably
// Options.Exec for multicore execution).
func UnweightedOpts(g *graph.Graph, k int, seed uint64, opt Options) *Result {
	if k < 1 {
		panic(fmt.Sprintf("spanner: k = %d", k))
	}
	ids, _, clus := unweightedStep(g, k, seed, opt)
	return &Result{EdgeIDs: ids, Clustering: clus, Levels: 1}
}

// unweightedStep performs the decomposition-plus-boundary-edges step
// shared by Unweighted and WellSeparated: cluster g with unit weights,
// keep the forest, and add one edge per (boundary vertex, adjacent
// cluster) pair. Returns edge ids of g, ascending and duplicate-free,
// the forest's edge ids on their own (WellSeparated contracts them) and
// the clustering.
func unweightedStep(g *graph.Graph, k int, seed uint64, opt Options) (ids, forest []int32, clus *core.Result) {
	cost := opt.Cost
	n := g.NumVertices()
	if n == 0 || g.NumEdges() == 0 {
		return nil, nil, core.Cluster(g, 1, seed, core.Options{Cost: cost})
	}
	beta := betaFor(n, k)
	clus = core.Cluster(g, beta, seed, core.Options{
		Cost: cost, UnitWeights: true, Exec: opt.Exec,
	})
	if opt.Exec.Canceled() {
		return nil, nil, clus // partial, invalid; owner must check Err()
	}
	forest = core.ForestEdges(g, clus)
	// uniqueIDs below reuses ids' storage, so ids starts as a copy.
	ids = slices.Clone(forest)

	// Boundary edges: per vertex, the lightest edge to each adjacent
	// foreign cluster (Algorithm 2 line 2). One parallel round over
	// vertices in the model; on a parallel opt.Exec the sweep runs on
	// goroutine chunks (per-vertex choices are independent, and
	// uniqueIDs sorts, so the output does not depend on merge order).
	var boundaryWork atomic.Int64
	var mu sync.Mutex
	collect := func(lo, hi int) {
		var local []int32
		var work int64
		// best[c] is the chosen edge to adjacent cluster c (NoEdge when
		// none yet); touched lists the clusters set for this vertex so
		// the reset costs its degree, not the cluster count.
		best := opt.Exec.Marks(clus.NumClusters())
		defer opt.Exec.PutMarks(best)
		var touched []int32
		for vi := lo; vi < hi; vi++ {
			v := graph.V(vi)
			eids := g.AdjEdgeIDs(v)
			cv := clus.ClusterOf[v]
			for i, a := range g.Arcs(v) {
				work++
				cu := clus.ClusterOf[a.To]
				if cu == cv {
					continue
				}
				e := eids[i]
				if prev := best[cu]; prev == graph.NoEdge {
					touched = append(touched, cu)
					best[cu] = e
				} else if better(g, e, prev) {
					best[cu] = e
				}
			}
			for _, cu := range touched {
				local = append(local, best[cu])
				best[cu] = graph.NoEdge
			}
			touched = touched[:0]
		}
		boundaryWork.Add(work)
		mu.Lock()
		ids = append(ids, local...)
		mu.Unlock()
	}
	if opt.Exec.IsParallel() {
		opt.Exec.For(int(n), 1024, collect)
	} else {
		collect(0, int(n))
	}
	cost.AddWork(boundaryWork.Load())
	cost.AddDepth(1)
	return uniqueIDs(ids, g.NumEdges()), forest, clus
}

// better orders candidate boundary edges by (weight, id) so selection
// is deterministic.
func better(g *graph.Graph, a, b int32) bool {
	wa, wb := g.EdgeWeight(a), g.EdgeWeight(b)
	if wa != wb {
		return wa < wb
	}
	return a < b
}

// uniqueIDs returns the distinct ids, every one in [0, m), in
// ascending order, reusing ids' storage. One pass sets a bit per id
// and one pass reads the bitmap back: O(len(ids) + m/64), no sort.
func uniqueIDs(ids []int32, m int64) []int32 {
	if len(ids) == 0 {
		return ids
	}
	seen := make([]uint64, (m+63)/64)
	for _, e := range ids {
		seen[e>>6] |= 1 << (e & 63)
	}
	out := ids[:0]
	for w, word := range seen {
		for word != 0 {
			out = append(out, int32(w<<6|bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return out
}

// bucketIndex returns the power-of-two weight bucket of w relative to
// the graph minimum: E_i = {e : w(e)/minW ∈ [2^i, 2^{i+1})}.
func bucketIndex(w, minW graph.W) int {
	return bits.Len64(uint64(w/minW)) - 1
}

// numGroups returns the O(log k) group count of Theorem 3.3's
// bucketing (c = 2, so weights in consecutive buckets of a group
// differ by at least ~k²).
func numGroups(k int) int {
	if k <= 1 {
		return 1
	}
	g := int(math.Ceil(2 * math.Log2(float64(k))))
	if g < 1 {
		g = 1
	}
	return g
}

// WellSeparated runs Algorithm 3 on the sub-multigraph of g given by
// groupEdges (canonical edge ids), whose weight buckets must be well
// separated (consecutive non-empty buckets differ by ≥ k^c; the caller
// guarantees this by construction). It returns spanner edge ids of g.
func WellSeparated(g *graph.Graph, groupEdges []int32, k int, seed uint64, cost *par.Cost) []int32 {
	return wellSeparated(g, groupEdges, k, seed, Options{Cost: cost})
}

func wellSeparated(g *graph.Graph, groupEdges []int32, k int, seed uint64, opt Options) []int32 {
	cost := opt.Cost
	if len(groupEdges) == 0 {
		return nil
	}
	minW := g.MinWeight()
	// Bucket the group's edges by weight scale; bucket indices are
	// below 63, so a slice indexed by them visits the buckets ascending.
	var byBucket [][]int32
	for _, e := range groupEdges {
		b := bucketIndex(g.EdgeWeight(e), minW)
		for len(byBucket) <= b {
			byBucket = append(byBucket, nil)
		}
		byBucket[b] = append(byBucket[b], e)
	}

	uf := ufind.New(g.NumVertices())
	r := rng.New(seed)
	var out []int32
	for _, bucketIDs := range byBucket {
		if len(bucketIDs) == 0 {
			continue
		}
		if opt.Exec.Checkpoint() {
			return nil // canceled: the group's edges are discarded
		}
		// Quotient the bucket edges by the contraction state H_{i-1}
		// (Algorithm 3 line 4): Γ_i = G[A_i]/H_{i-1}.
		labels, numLabels := uf.DenseLabels()
		bucketEdges := make([]graph.Edge, len(bucketIDs))
		for i, e := range bucketIDs {
			bucketEdges[i] = g.Edges()[e]
		}
		// src[ge] indexes bucketIDs: Γ edge ge is bucket edge src[ge].
		gammaEdges, src := graph.ContractEdges(bucketEdges, labels, numLabels)
		gamma := graph.FromEdges(numLabels, gammaEdges, true)
		cost.AddWork(int64(len(bucketIDs)) + int64(g.NumVertices()))
		cost.AddDepth(1)
		if gamma.NumEdges() == 0 {
			continue
		}
		// Cluster Γ_i with uniform weights and collect forest +
		// boundary edges, mapped back to g's edge ids.
		gammaIDs, forest, _ := unweightedStep(gamma, k, r.Uint64(), opt)
		for _, ge := range gammaIDs {
			out = append(out, bucketIDs[src[ge]])
		}
		// Contract the new forest into H_i (Algorithm 3 line 7): union
		// the original endpoints of every Γ-forest edge, merging the
		// H-components the tree connects.
		for _, ge := range forest {
			orig := g.Edges()[bucketIDs[src[ge]]]
			uf.Union(orig.U, orig.V)
		}
	}
	return uniqueIDs(out, g.NumEdges())
}

// Weighted builds an O(k)-stretch spanner of expected size
// O(n^{1+1/k} log k) for a weighted graph (Theorem 3.3): it deals the
// power-of-two weight buckets into numGroups(k) well-separated groups
// and runs WellSeparated on each. The groups are independent — in the
// PRAM model they run side by side, which the cost accounting reflects
// with JoinMax.
func Weighted(g *graph.Graph, k int, seed uint64, cost *par.Cost) *Result {
	return WeightedOpts(g, k, seed, Options{Cost: cost})
}

// WeightedOpts is Weighted with the full option set. On a parallel
// Options.Exec the O(log k) well-separated groups — independent by
// construction, side by side in the model — also run on their own
// goroutines, each with parallel clustering inside.
func WeightedOpts(g *graph.Graph, k int, seed uint64, opt Options) *Result {
	if k < 1 {
		panic(fmt.Sprintf("spanner: k = %d", k))
	}
	if !g.Weighted() {
		return UnweightedOpts(g, k, seed, opt)
	}
	groups := numGroups(k)
	minW := g.MinWeight()
	groupEdges := make([][]int32, groups)
	for e := int32(0); int64(e) < g.NumEdges(); e++ {
		b := bucketIndex(g.EdgeWeight(e), minW)
		groupEdges[b%groups] = append(groupEdges[b%groups], e)
	}
	r := rng.New(seed)
	costs := make([]*par.Cost, groups)
	seeds := make([]uint64, groups)
	for j := 0; j < groups; j++ {
		costs[j] = par.NewCost()
		seeds[j] = r.Uint64()
	}
	perGroup := make([][]int32, groups)
	runGroup := func(j int) {
		gOpt := opt
		gOpt.Cost = costs[j]
		perGroup[j] = wellSeparated(g, groupEdges[j], k, seeds[j], gOpt)
	}
	if opt.Exec.IsParallel() {
		opt.Exec.DoN(groups, runGroup)
	} else {
		for j := 0; j < groups; j++ {
			runGroup(j)
		}
	}
	var all []int32
	for j := 0; j < groups; j++ {
		all = append(all, perGroup[j]...)
	}
	opt.Cost.JoinMax(costs...)
	return &Result{EdgeIDs: uniqueIDs(all, g.NumEdges()), Levels: groups}
}
