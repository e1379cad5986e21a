// Package core implements Exponential Start Time (EST) clustering, the
// key routine of Miller, Peng, Vladu, Xu (SPAA 2015), Section 2.1 and
// Appendix A, originally from Miller–Peng–Xu (SPAA 2013).
//
// Every vertex u draws an independent shift δ_u ~ Exp(β); vertex v
// joins the cluster of the vertex u minimizing dist(u, v) − δ_u. The
// routine is equivalent to a shortest-path search from a virtual
// super-source where u "starts its race" at time s_u = δ_max − δ_u.
//
// # Implementation
//
// Edge weights are positive integers, so every arrival time from
// cluster u has the same fractional part frac(s_u). We therefore
// settle vertices with a Dial bucket queue keyed by the integer part
// of the arrival time, breaking ties inside a bucket by the fractional
// part (and then by center id, for determinism). Because weights are
// ≥ 1, two settlements in the same bucket can never relax each other,
// so this order equals exact nondecreasing real-key order: the
// clustering computed here is exactly the one defined by the real
// shifts, and the paper's Appendix A "integer parts with tie breaking"
// implementation is realized with no approximation.
//
// Depth is the number of processed buckets — O(β^{-1} log n) with high
// probability by Lemma 2.1, because both δ_max and the cluster radii
// are O(β^{-1} log n). Work is linear in vertices plus edges touched.
//
// The routine accepts a vertex-subset restriction so that recursive
// callers (the hopset construction) can cluster inside a cluster
// without materializing induced subgraphs.
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/rng"
)

// Options configures a clustering call.
type Options struct {
	// Cost accumulates PRAM work/depth; may be nil.
	Cost *par.Cost
	// Vertices restricts clustering to this subset; nil means all of
	// g. When set, Mark/Token must identify exactly the same subset
	// (Mark[v] == Token iff v ∈ Vertices); the traversal consults
	// Mark, the setup loops over Vertices.
	Vertices []graph.V
	Mark     []int32
	Token    int32
	// UnitWeights makes the race treat every edge as weight 1
	// regardless of the graph's weights. Algorithm 3 of the paper
	// clusters quotient graphs "with uniform edge weights"; this flag
	// implements that without copying the graph.
	UnitWeights bool
	// Exec is the execution context: a parallel context expands every
	// bucket with pooled goroutines, its arenas back the race's O(n)
	// scratch, and its cancellation is polled per bucket — a canceled
	// Cluster returns an invalid partial result, so callers must check
	// Exec.Err() before using it. Nil keeps legacy behavior. On a
	// parallel context every bucket of the race expands with
	// concurrent goroutines (the CRCW frontier step of Appendix A
	// realized on cores). The output — centers, parents, distances,
	// groupings — is bit-identical to the sequential race: settlements
	// write disjoint vertices, and generated claims are merged back in
	// deterministic winner order before the next bucket resolves.
	Exec *exec.Ctx
}

// admits loads the mark atomically for the same reason sssp.Options
// does: sibling hopset subtrees re-mark their own descendants while
// this subtree's race reads boundary neighbors' marks. The values
// racing past are other subtrees' tokens, never ours, so the decision
// is deterministic; the atomic load just makes the overlap defined.
func (o *Options) admits(v graph.V) bool {
	return o.Mark == nil || atomic.LoadInt32(&o.Mark[v]) == o.Token
}

// weight is arc i's race length: 1 under UnitWeights, else its weight
// (wide holds it when non-nil).
func (o *Options) weight(a graph.Arc, wide []graph.W, i int) graph.W {
	switch {
	case o.UnitWeights:
		return 1
	case wide != nil:
		return wide[i]
	}
	return graph.W(a.W)
}

// Result describes an EST clustering. The per-vertex arrays have
// length NumVertices of the clustered graph; entries for vertices
// outside the clustered subset hold NoVertex / -1 / InfDist.
type Result struct {
	// Center[v] is the center of v's cluster.
	Center []graph.V
	// Parent[v] is v's parent in its cluster's spanning tree;
	// NoVertex for cluster centers (and non-subset vertices).
	Parent []graph.V
	// DistToCenter[v] is the tree (= shortest within the race)
	// distance from v's center to v.
	DistToCenter []graph.Dist
	// ClusterOf[v] is the dense index of v's cluster, -1 outside.
	ClusterOf []int32
	// Centers[i] is the center vertex of cluster i.
	Centers []graph.V
	// Clusters[i] lists the vertices of cluster i (center first).
	Clusters [][]graph.V
	// Shifts holds the exponential shifts δ_u for the clustered
	// subset (indexed by vertex id); used by diagnostics and tests.
	Shifts []float64
}

// NumClusters returns the number of clusters.
func (r *Result) NumClusters() int { return len(r.Centers) }

// MaxRadius returns the largest DistToCenter over all clustered
// vertices — the radius certified by the spanning trees; cluster
// (tree) diameter is at most twice this.
func (r *Result) MaxRadius() graph.Dist {
	var m graph.Dist
	for _, d := range r.DistToCenter {
		if d != graph.InfDist && d > m {
			m = d
		}
	}
	return m
}

// claim is a tentative settlement offer: vertex v can join center's
// cluster through parent with the given integer arrival bucket; frac
// is the center's fractional start time, the within-bucket tie-break.
type claim struct {
	v, center, parent graph.V
	frac              float64
}

// wake is a deferred self-claim: center u enters the race at integer
// time t with fractional part frac.
type wake struct {
	u    graph.V
	t    graph.Dist
	frac float64
}

// timedClaim buffers a claim with its target bucket during parallel
// expansion, before the sequential merge into the bucket array.
type timedClaim struct {
	c claim
	t graph.Dist
}

// Cluster runs EST clustering on g (or the subset in opt) with
// parameter beta, using randomness derived from seed. It panics on
// beta <= 0, and when an arrival time reaches 2^30 buckets (an arc
// weight near 2^30 or above): the bucket race is for small weights,
// so round or scale such weights down first. Every other input is
// handled.
func Cluster(g *graph.Graph, beta float64, seed uint64, opt Options) *Result {
	if beta <= 0 {
		panic(fmt.Sprintf("core: Cluster with beta = %v", beta))
	}
	n := g.NumVertices()
	subset := opt.Vertices
	if subset == nil {
		subset = make([]graph.V, n)
		for i := range subset {
			subset[i] = graph.V(i)
		}
	}
	res := newResult(n)
	if len(subset) == 0 {
		return res
	}

	// Draw shifts and find δ_max. A single stream keeps the draw
	// deterministic regardless of parallelism.
	r := rng.New(seed)
	deltaMax := 0.0
	for _, v := range subset {
		d := r.Exp(beta)
		res.Shifts[v] = d
		if d > deltaMax {
			deltaMax = d
		}
	}
	opt.Cost.Round(int64(len(subset)))

	// Start times s_u = δ_max − δ_u, split into integer bucket and
	// fractional tie-break. Sort wake events by (t, frac, id) so they
	// can be injected as the bucket cursor advances.
	wakes := make([]wake, len(subset))
	for i, v := range subset {
		s := deltaMax - res.Shifts[v]
		t := math.Floor(s)
		wakes[i] = wake{u: v, t: graph.Dist(t), frac: s - t}
	}
	slices.SortFunc(wakes, func(x, y wake) int {
		if c := cmp.Compare(x.t, y.t); c != 0 {
			return c
		}
		if c := cmp.Compare(x.frac, y.frac); c != 0 {
			return c
		}
		return cmp.Compare(x.u, y.u)
	})
	// Sorting is a parallel primitive with O(log n) depth in the
	// model; account it as such.
	opt.Cost.AddWork(int64(len(subset)))
	opt.Cost.AddDepth(int64(math.Ceil(math.Log2(float64(len(subset) + 1)))))

	// settledAt[v] is the integer arrival bucket at settlement; used
	// to compute DistToCenter (the shared fractional parts cancel).
	// Dense arrays rather than maps so the parallel expansion can
	// write settlements for distinct vertices without synchronization.
	settledAt := opt.Exec.DistsZero(int(n))
	defer opt.Exec.PutDists(settledAt)
	startAt := opt.Exec.DistsZero(int(n))
	defer opt.Exec.PutDists(startAt)

	var buckets [][]claim
	pending := 0
	const maxBuckets = 1 << 30
	push := func(c claim, t graph.Dist) {
		if t >= maxBuckets {
			// The bucket race is only meant for graphs whose weights
			// are small (unit, or pre-rounded by the Section 5 /
			// Appendix B reductions); refusing loudly beats an OOM.
			panic(fmt.Sprintf("core: arrival %d too large for the bucket race; round weights first", t))
		}
		for int64(len(buckets)) <= int64(t) {
			buckets = append(buckets, nil)
		}
		buckets[t] = append(buckets[t], c)
		pending++
	}

	nextWake := 0
	settledCount := 0
	var winners []claim // reused per bucket
	// Parallel-expansion buffers, reused across buckets (and holding
	// on to their inner claim capacity).
	var perWinner [][]timedClaim
	var counts []int64
	for t := graph.Dist(0); settledCount < len(subset); t++ {
		// Every level of the virtual-source search is one synchronous
		// round, whether or not anything settles at it: this is the
		// O(β^{-1} log n) term of Lemma 2.1.
		opt.Cost.AddDepth(1)
		if opt.Exec.Checkpoint() {
			return res // canceled: partial, invalid (skip finishResult)
		}
		// Inject wake events due at t.
		for nextWake < len(wakes) && wakes[nextWake].t == t {
			w := wakes[nextWake]
			nextWake++
			if res.Center[w.u] != graph.NoVertex {
				continue // already captured by an earlier cluster
			}
			push(claim{v: w.u, center: w.u, parent: graph.NoVertex, frac: w.frac}, t)
		}
		if int64(t) >= int64(len(buckets)) {
			if pending == 0 && nextWake >= len(wakes) {
				break
			}
			continue
		}
		b := buckets[t]
		if len(b) == 0 {
			continue
		}
		buckets[t] = nil
		pending -= len(b)
		// Resolve the winning claim per vertex in this bucket:
		// smallest fractional part, then smallest center id. Claims
		// equal on all three (same center, different parents) are won
		// by whichever the sort leaves first, so Parent depends on this
		// exact pdqsort; a stable sort or a linear scan would change it.
		winners = winners[:0]
		slices.SortFunc(b, func(x, y claim) int {
			if c := cmp.Compare(x.v, y.v); c != 0 {
				return c
			}
			if c := cmp.Compare(x.frac, y.frac); c != 0 {
				return c
			}
			return cmp.Compare(x.center, y.center)
		})
		for i := range b {
			if i > 0 && b[i].v == b[i-1].v {
				continue
			}
			if res.Center[b[i].v] != graph.NoVertex {
				continue // settled in an earlier bucket
			}
			winners = append(winners, b[i])
		}
		// Settle the winners first (disjoint vertices, cheap writes),
		// then expand their adjacency. Settling up front means the
		// expansion never emits a claim for a vertex settled in this
		// same bucket — such claims were filtered at resolution anyway,
		// so the clustering is unchanged, and it is what lets the
		// expansion run concurrently: during the scan nothing writes.
		// (Suppressing those dead claims does shave the work recorded
		// for later buckets' `len(b)` terms relative to the historical
		// interleaved loop — the model cost of useless claims that were
		// never part of the paper's accounting.)
		for _, c := range winners {
			res.Center[c.v] = c.center
			res.Parent[c.v] = c.parent
			settledAt[c.v] = t
			if c.parent == graph.NoVertex {
				startAt[c.center] = t
			}
			settledCount++
		}
		var touched int64
		// Buckets below the chunk grain would run inline anyway; the
		// direct push loop skips their per-winner buffer allocations.
		if opt.Exec.IsParallel() && len(winners) > 16 {
			// One concurrent frontier round (the Appendix A CRCW step on
			// real cores): winners expand side by side, buffering claims
			// per winner; buffers merge back in winner order, so bucket
			// contents — and therefore the whole race — stay
			// bit-identical to the sequential path.
			if cap(perWinner) < len(winners) {
				perWinner = make([][]timedClaim, len(winners))
				counts = make([]int64, len(winners))
			}
			pw := perWinner[:len(winners)]
			cnt := counts[:len(winners)]
			for i := range pw {
				pw[i] = pw[i][:0]
				cnt[i] = 0
			}
			opt.Exec.For(len(winners), 16, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					c := winners[i]
					wide := g.Wide(c.v)
					for j, a := range g.Arcs(c.v) {
						cnt[i]++
						u := a.To
						if !opt.admits(u) || res.Center[u] != graph.NoVertex {
							continue
						}
						pw[i] = append(pw[i], timedClaim{
							c: claim{v: u, center: c.center, parent: c.v, frac: c.frac},
							t: t + opt.weight(a, wide, j),
						})
					}
				}
			})
			for i := range pw {
				touched += cnt[i]
				for _, tc := range pw[i] {
					push(tc.c, tc.t)
				}
			}
		} else {
			for _, c := range winners {
				wide := g.Wide(c.v)
				for i, a := range g.Arcs(c.v) {
					touched++
					u := a.To
					if !opt.admits(u) || res.Center[u] != graph.NoVertex {
						continue
					}
					push(claim{v: u, center: c.center, parent: c.v, frac: c.frac}, t+opt.weight(a, wide, i))
				}
			}
		}
		opt.Cost.AddWork(touched + int64(len(b)))
	}

	finishResult(res, subset, settledAt, startAt)
	opt.Cost.Round(int64(len(subset)))
	return res
}

func newResult(n int32) *Result {
	res := &Result{
		Center:       make([]graph.V, n),
		Parent:       make([]graph.V, n),
		DistToCenter: make([]graph.Dist, n),
		ClusterOf:    make([]int32, n),
		Shifts:       make([]float64, n),
	}
	for i := int32(0); i < n; i++ {
		res.Center[i] = graph.NoVertex
		res.Parent[i] = graph.NoVertex
		res.DistToCenter[i] = graph.InfDist
		res.ClusterOf[i] = -1
	}
	return res
}

// finishResult computes DistToCenter and the dense cluster grouping.
// settledAt/startAt are dense per-vertex arrays; only entries for the
// clustered subset (and its centers) are meaningful.
func finishResult(res *Result, subset []graph.V, settledAt, startAt []graph.Dist) {
	for _, v := range subset {
		c := res.Center[v]
		res.DistToCenter[v] = settledAt[v] - startAt[c]
	}
	order := make([]graph.V, len(subset))
	copy(order, subset)
	slices.Sort(order)
	for _, v := range order {
		if res.Center[v] == v && res.ClusterOf[v] == -1 {
			res.ClusterOf[v] = int32(len(res.Centers))
			res.Centers = append(res.Centers, v)
			res.Clusters = append(res.Clusters, []graph.V{v})
		}
	}
	for _, v := range order {
		if res.Center[v] != v {
			ci := res.ClusterOf[res.Center[v]]
			res.ClusterOf[v] = ci
			res.Clusters[ci] = append(res.Clusters[ci], v)
		}
	}
}

// ClusterReference computes the identical clustering with a plain
// priority search over real arrival keys (integer part, fraction) and
// the same tie-breaking. It exists to validate Cluster in tests; the
// two must agree exactly when given the same seed.
func ClusterReference(g *graph.Graph, beta float64, seed uint64, opt Options) *Result {
	if beta <= 0 {
		panic(fmt.Sprintf("core: ClusterReference with beta = %v", beta))
	}
	n := g.NumVertices()
	subset := opt.Vertices
	if subset == nil {
		subset = make([]graph.V, n)
		for i := range subset {
			subset[i] = graph.V(i)
		}
	}
	res := newResult(n)
	if len(subset) == 0 {
		return res
	}
	r := rng.New(seed)
	deltaMax := 0.0
	for _, v := range subset {
		d := r.Exp(beta)
		res.Shifts[v] = d
		if d > deltaMax {
			deltaMax = d
		}
	}

	type entry struct {
		intPart graph.Dist
		frac    float64
		v       graph.V
		center  graph.V
		parent  graph.V
	}
	less := func(a, b entry) bool {
		if a.intPart != b.intPart {
			return a.intPart < b.intPart
		}
		if a.frac != b.frac {
			return a.frac < b.frac
		}
		if a.center != b.center {
			return a.center < b.center
		}
		return a.v < b.v
	}
	// Simple slice-backed priority queue (reference code favors
	// obviousness over speed).
	var pq []entry
	popMin := func() entry {
		best := 0
		for i := 1; i < len(pq); i++ {
			if less(pq[i], pq[best]) {
				best = i
			}
		}
		e := pq[best]
		pq[best] = pq[len(pq)-1]
		pq = pq[:len(pq)-1]
		return e
	}
	startAt := make([]graph.Dist, n)
	for _, v := range subset {
		s := deltaMax - res.Shifts[v]
		t := math.Floor(s)
		startAt[v] = graph.Dist(t)
		pq = append(pq, entry{intPart: graph.Dist(t), frac: s - t, v: v, center: v, parent: graph.NoVertex})
	}
	settledAt := make([]graph.Dist, n)
	settled := 0
	for settled < len(subset) && len(pq) > 0 {
		e := popMin()
		if res.Center[e.v] != graph.NoVertex {
			continue
		}
		res.Center[e.v] = e.center
		res.Parent[e.v] = e.parent
		settledAt[e.v] = e.intPart
		settled++
		wide := g.Wide(e.v)
		for i, a := range g.Arcs(e.v) {
			u := a.To
			if !opt.admits(u) || res.Center[u] != graph.NoVertex {
				continue
			}
			pq = append(pq, entry{intPart: e.intPart + opt.weight(a, wide, i), frac: e.frac, v: u, center: e.center, parent: e.v})
		}
	}
	// finishResult only consults startAt for actual centers, so the
	// full start-time array matches Cluster's bookkeeping.
	finishResult(res, subset, settledAt, startAt)
	return res
}

// CutEdges returns the canonical edge ids of g whose endpoints lie in
// different clusters (both endpoints clustered) — the quantity bounded
// by Corollary 2.3.
func CutEdges(g *graph.Graph, res *Result) []int32 {
	var cut []int32
	edges := g.Edges()
	for i := range edges {
		cu, cv := res.Center[edges[i].U], res.Center[edges[i].V]
		if cu != graph.NoVertex && cv != graph.NoVertex && cu != cv {
			cut = append(cut, int32(i))
		}
	}
	return cut
}

// ForestEdges returns, for every clustered non-center vertex, a
// concrete (parent, vertex) tree edge id of g, choosing a minimum
// weight parallel edge when several connect the pair. These are the
// "forest produced by the decomposition" edges that both the spanner
// and the hopset constructions retain.
func ForestEdges(g *graph.Graph, res *Result) []int32 {
	var out []int32
	for v := graph.V(0); v < g.NumVertices(); v++ {
		p := res.Parent[v]
		if p == graph.NoVertex {
			continue
		}
		wide := g.Wide(v)
		ids := g.AdjEdgeIDs(v)
		best := graph.NoEdge
		var bestW graph.W
		for i, a := range g.Arcs(v) {
			if a.To != p {
				continue
			}
			w := graph.W(a.W)
			if wide != nil {
				w = wide[i]
			}
			if best == graph.NoEdge || w < bestW {
				best, bestW = ids[i], w
			}
		}
		if best == graph.NoEdge {
			panic("core: parent pointer without a connecting edge")
		}
		out = append(out, best)
	}
	return out
}

// BallClusterCount returns the number of distinct clusters intersecting
// the ball B(v, radius) in g — the quantity of Lemma 2.2 / Corollary
// 3.1. It runs a bounded search from v over the full graph.
func BallClusterCount(g *graph.Graph, res *Result, v graph.V, radius graph.Dist) int {
	seen := map[graph.V]struct{}{}
	type qe struct {
		v graph.V
		d graph.Dist
	}
	q := []qe{{v, 0}}
	dist := map[graph.V]graph.Dist{v: 0}
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
		if d, ok := dist[cur.v]; ok && cur.d > d {
			continue
		}
		if c := res.Center[cur.v]; c != graph.NoVertex {
			seen[c] = struct{}{}
		}
		wide := g.Wide(cur.v)
		for i, a := range g.Arcs(cur.v) {
			u := a.To
			w := graph.W(a.W)
			if wide != nil {
				w = wide[i]
			}
			nd := cur.d + w
			if nd > radius {
				continue
			}
			if d, ok := dist[u]; !ok || nd < d {
				dist[u] = nd
				q = append(q, qe{u, nd})
			}
		}
	}
	return len(seen)
}
