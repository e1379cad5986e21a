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
// of the arrival time. Every unsettled vertex holds one tentative
// offer, and an offer replaces it only if it is smaller in the total
// key (integer arrival, fractional part, center id, parent id): the
// fraction breaks ties inside a bucket, and the smallest center and
// then the smallest parent break the measure-zero rest. Because
// weights are ≥ 1, two settlements in the same bucket can never relax
// each other, so this order equals exact nondecreasing real-key order:
// the clustering computed here is exactly the one defined by the real
// shifts, and the paper's Appendix A "integer parts with tie breaking"
// implementation is realized with no approximation.
//
// Depth is the number of processed buckets — O(β^{-1} log n) with high
// probability by Lemma 2.1, because both δ_max and the cluster radii
// are O(β^{-1} log n); nothing is sorted, so there is no further
// depth term. Work is linear in vertices plus edges touched: a bucket
// resolves by reading each queued vertex's offer, the linear-work
// CRCW write of Appendix A.
//
// The routine accepts a vertex-subset restriction so that recursive
// callers (the hopset construction) can cluster inside a cluster
// without materializing induced subgraphs.
package core

import (
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
	// write disjoint vertices, and the offers each goroutine buffers
	// are merged before the next bucket resolves; a vertex keeps the
	// smallest offer in a total order, whatever the merge order.
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
	// NoVertex for cluster centers (and non-subset vertices). Among
	// neighbors that reach v at the same time from v's center, it is
	// the one with the smallest id.
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

// race is the state of one EST race. Every unsettled vertex v holds one
// tentative offer (bestT[v], bestC[v], bestP[v]): arrival bucket,
// center and parent. Offers are ordered by the total key (arrival,
// frac(s_center), center, parent), so the race's outcome does not
// depend on the order in which offers are made.
type race struct {
	shifts   []float64
	deltaMax float64
	bestT    []graph.Dist
	bestC    []graph.V
	bestP    []graph.V
	// buckets[t] lists the vertices queued at arrival t; an entry is
	// current iff its vertex is unsettled and bestT[v] == t.
	buckets [][]graph.V
}

// frac is the fractional part of center c's start time s_c = δ_max − δ_c,
// shared by every arrival from c: the within-bucket tie-break.
func (r *race) frac(c graph.V) float64 {
	s := r.deltaMax - r.shifts[c]
	return s - math.Floor(s)
}

// beats reports whether the offer (t, c, p) has a smaller key than v's.
func (r *race) beats(v graph.V, t graph.Dist, c, p graph.V) bool {
	if t != r.bestT[v] {
		return t < r.bestT[v]
	}
	if b := r.bestC[v]; c != b {
		if fc, fb := r.frac(c), r.frac(b); fc != fb {
			return fc < fb
		}
		return c < b
	}
	return p < r.bestP[v]
}

// offer makes (t, c, p) v's offer if its key is smaller, and queues v at
// t if t is earlier than v's current arrival (a same-t improvement is
// already queued). beats drops an arrival later than v's current one
// before any other check, and every vertex of the race holds its own
// start, at most ⌊δmax⌋, from the outset: so whatever the weights, no
// bucket past ⌊δmax⌋ is ever made.
func (r *race) offer(v graph.V, t graph.Dist, c, p graph.V) {
	if !r.beats(v, t, c, p) {
		return
	}
	if t < r.bestT[v] {
		for int64(len(r.buckets)) <= int64(t) {
			r.buckets = append(r.buckets, nil)
		}
		r.buckets[t] = append(r.buckets[t], v)
	}
	r.bestT[v], r.bestC[v], r.bestP[v] = t, c, p
}

// arcOffer is an offer buffered by the parallel expansion: parent p
// offers v arrival t in p's cluster.
type arcOffer struct {
	v, p graph.V
	t    graph.Dist
}

// Cluster runs EST clustering on g (or the subset in opt) with
// parameter beta, using randomness derived from seed. It panics on
// beta <= 0; every other input, any edge weight below graph.InfDist
// included, is handled.
//
// The race costs O(n + m) work and one round per bucket, with no sort:
// each vertex is queued once by its own start and at most once per
// strictly earlier offer, and each settled vertex scans its arcs once.
// Among offers equal in arrival, fraction and center, the smallest
// parent id wins.
func Cluster(g *graph.Graph, beta float64, seed uint64, opt Options) *Result {
	subset, res, deltaMax := drawShifts("Cluster", g, beta, seed, opt)
	if len(subset) == 0 {
		return res
	}
	n := g.NumVertices()
	opt.Cost.Round(int64(len(subset)))

	// Dense arrays rather than maps so the parallel expansion can read
	// offers without synchronization. A settled vertex's offer is
	// final, so bestT doubles as its settlement bucket.
	r := &race{
		shifts:   res.Shifts,
		deltaMax: deltaMax,
		bestT:    opt.Exec.Dists(int(n)),
		bestC:    opt.Exec.Verts(int(n)),
		bestP:    opt.Exec.Verts(int(n)),
	}
	defer opt.Exec.PutDists(r.bestT)
	defer opt.Exec.PutVerts(r.bestC)
	defer opt.Exec.PutVerts(r.bestP)
	// startAt[u] = ⌊s_u⌋: u's own start, from which DistToCenter is
	// measured (the shared fractional parts cancel).
	startAt := opt.Exec.DistsZero(int(n))
	defer opt.Exec.PutDists(startAt)
	for _, v := range subset {
		t := graph.Dist(math.Floor(deltaMax - res.Shifts[v]))
		startAt[v] = t
		r.offer(v, t, v, graph.NoVertex)
	}

	settled := 0
	var winners []graph.V // reused per bucket
	var bufs [][]arcOffer // parallel expansion buffers, one per chunk
	// Every unsettled vertex is queued at its bestT, which is at least
	// the cursor, so the cursor never runs past the bucket array.
	for t := graph.Dist(0); settled < len(subset); t++ {
		// Every level of the virtual-source search is one synchronous
		// round, whether or not anything settles at it: this is the
		// O(β^{-1} log n) term of Lemma 2.1.
		opt.Cost.AddDepth(1)
		if opt.Exec.Checkpoint() {
			return res // canceled: partial, invalid (skip finishResult)
		}
		b := r.buckets[t]
		r.buckets[t] = nil
		// Settle the bucket's current entries, then expand them.
		// Weights are ≥ 1, so vertices of one bucket cannot relax each
		// other and settle in any order; settling all of them first is
		// what lets the expansion run concurrently.
		winners = winners[:0]
		work := int64(len(b))
		for _, v := range b {
			if res.Center[v] != graph.NoVertex || r.bestT[v] != t {
				continue // settled earlier, or re-queued at an earlier t
			}
			res.Center[v], res.Parent[v] = r.bestC[v], r.bestP[v]
			winners = append(winners, v)
			work += int64(len(g.Arcs(v)))
		}
		settled += len(winners)
		// Buckets below the chunk grain would run inline anyway.
		if opt.Exec.IsParallel() && len(winners) > 16 {
			// One concurrent frontier round (the Appendix A CRCW step on
			// real cores): chunks of winners buffer the offers that beat
			// the current ones, then the buffers merge through offer.
			// Nothing writes during the scan, and the key is a total
			// order, so the result equals the sequential race.
			nc := min(4*opt.Exec.Workers(), (len(winners)+15)/16)
			for len(bufs) < nc {
				bufs = append(bufs, nil)
			}
			opt.Exec.DoN(nc, func(k int) {
				buf := bufs[k][:0]
				for _, v := range winners[k*len(winners)/nc : (k+1)*len(winners)/nc] {
					c := res.Center[v]
					wide := g.Wide(v)
					for i, a := range g.Arcs(v) {
						u := a.To
						if !opt.admits(u) || res.Center[u] != graph.NoVertex {
							continue
						}
						if tu := t + opt.weight(a, wide, i); r.beats(u, tu, c, v) {
							buf = append(buf, arcOffer{v: u, p: v, t: tu})
						}
					}
				}
				bufs[k] = buf
			})
			for _, buf := range bufs[:nc] {
				for _, o := range buf {
					r.offer(o.v, o.t, res.Center[o.p], o.p)
				}
			}
		} else {
			for _, v := range winners {
				c := res.Center[v]
				wide := g.Wide(v)
				for i, a := range g.Arcs(v) {
					u := a.To
					if !opt.admits(u) || res.Center[u] != graph.NoVertex {
						continue
					}
					r.offer(u, t+opt.weight(a, wide, i), c, v)
				}
			}
		}
		opt.Cost.AddWork(work)
	}

	finishResult(res, subset, r.bestT, startAt)
	opt.Cost.Round(int64(len(subset)))
	return res
}

// drawShifts validates beta, resolves the clustered subset (all of g
// when opt.Vertices is nil) and draws its shifts δ_u ~ Exp(β) into a
// fresh Result. A single stream keeps the draw deterministic
// regardless of parallelism.
func drawShifts(name string, g *graph.Graph, beta float64, seed uint64, opt Options) ([]graph.V, *Result, float64) {
	if beta <= 0 {
		panic(fmt.Sprintf("core: %s with beta = %v", name, beta))
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
	r := rng.New(seed)
	deltaMax := 0.0
	for _, v := range subset {
		d := r.Exp(beta)
		res.Shifts[v] = d
		if d > deltaMax {
			deltaMax = d
		}
	}
	return subset, res, deltaMax
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

// finishResult computes DistToCenter and the dense cluster grouping:
// clusters are numbered by center id and list their center first, then
// their other vertices by id, all carved from one backing array.
// settledAt/startAt are dense per-vertex arrays; only entries for the
// clustered subset (and its centers) are meaningful.
func finishResult(res *Result, subset []graph.V, settledAt, startAt []graph.Dist) {
	order := subset
	if !slices.IsSorted(order) {
		order = slices.Clone(subset)
		slices.Sort(order)
	}
	k := int32(0)
	for _, v := range order {
		c := res.Center[v]
		res.DistToCenter[v] = settledAt[v] - startAt[c]
		if c == v {
			res.ClusterOf[v] = k
			k++
		}
	}
	res.Centers = make([]graph.V, k)
	size := make([]int32, k)
	for _, v := range order {
		ci := res.ClusterOf[res.Center[v]]
		if res.Center[v] == v {
			res.Centers[ci] = v
		}
		size[ci]++
	}
	members := make([]graph.V, len(order))
	res.Clusters = make([][]graph.V, k)
	lo := int32(0)
	for i, c := range res.Centers {
		members[lo] = c
		res.Clusters[i] = members[lo : lo+1 : lo+size[i]]
		lo += size[i]
	}
	for _, v := range order {
		if c := res.Center[v]; c != v {
			ci := res.ClusterOf[c]
			res.ClusterOf[v] = ci
			res.Clusters[ci] = append(res.Clusters[ci], v)
		}
	}
}

// ClusterReference computes the identical clustering, parents
// included, with a plain priority search over real arrival keys
// (integer part, fraction) and the same tie-breaking. It exists to
// validate Cluster in tests; the two must agree exactly when given the
// same seed.
func ClusterReference(g *graph.Graph, beta float64, seed uint64, opt Options) *Result {
	subset, res, deltaMax := drawShifts("ClusterReference", g, beta, seed, opt)
	if len(subset) == 0 {
		return res
	}
	n := g.NumVertices()

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
		if a.v != b.v {
			return a.v < b.v
		}
		return a.parent < b.parent
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
