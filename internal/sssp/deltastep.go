package sssp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/par"
)

// DeltaStepping is the parallel weighted SSSP of Meyer and Sanders,
// realized in the same arbitrary-CRCW idiom as BFSParallel: tentative
// distances live in a shared array and workers relax edges with
// compare-and-swap min-updates, so every frontier expands on actual
// goroutines. It is the weighted counterpart of BFSParallel and the
// multicore realization of the paper's "weighted parallel BFS": Dial's
// bucket race (depth = distance levels swept) collapses to one phase
// per Δ-bucket — light edges (w ≤ Δ) are relaxed to a fixpoint inside
// the bucket, heavy edges once when the bucket settles.
//
// Distances are exact and bit-identical to Dijkstra's for any
// schedule: relaxations are monotone CAS min-updates, so the fixpoint
// is the shortest-path metric regardless of interleaving. Parent
// pointers are resolved by a deterministic certification pass after
// the distances converge (first CSR neighbor u with dist[u] + w ==
// dist[v]), so the whole Result — unlike BFSParallel's — is
// deterministic. The sequential Dijkstra and Dial remain the oracles
// differential tests compare against.
//
// Cost accounting: one depth unit per light iteration and per heavy
// phase plus one for the final parent pass; work is edges scanned.
// Model depth is (#buckets)·(light iterations per bucket); with
// integer weights and Δ = opt.Delta the light iteration count per
// bucket is at most Δ, mirroring the Dial depth analysis.
func DeltaStepping(g *graph.Graph, sources []graph.V, opt Options) *Result {
	n := g.NumVertices()
	res := newResultOn(opt.Exec, n)
	bound := opt.bound()
	delta := graph.Dist(opt.Delta)
	if delta <= 0 {
		delta = defaultDelta(g)
	}
	maxW := g.MaxWeight()
	if maxW < 1 {
		maxW = 1
	}
	// Circular buckets: a relaxation increases the key by at most maxW,
	// so pending entries always live within maxW/Δ + 2 buckets of the
	// cursor. A bounded search never keeps keys above the bound, which
	// clamps the span exactly as in Dial.
	span := maxW
	if bound < graph.InfDist && graph.W(bound)+1 < span {
		span = graph.W(bound) + 1
	}
	const maxBuckets = 1 << 28
	nb := int(span/delta) + 2
	if nb > maxBuckets {
		panic(fmt.Sprintf("sssp: Δ-stepping bucket span %d too large; round weights or set MaxDist", nb))
	}
	buckets := make([][]graph.V, nb)
	pending := 0
	for _, s := range sources {
		if !opt.admits(s) || res.Dist[s] == 0 {
			continue
		}
		res.Dist[s] = 0
		buckets[0] = append(buckets[0], s)
		pending++
	}

	// lastRelaxed[v] is dist[v] at v's most recent light-edge
	// expansion; v re-expands only after an improvement. Written by the
	// sequential coordinator between phases only. The InfDist-filled
	// arena buffer is exactly its starting state.
	lastRelaxed := opt.Exec.Dists(int(n))
	defer opt.Exec.PutDists(lastRelaxed)

	var active []cand  // light-phase frontier, rebuilt per iteration
	var settled []cand // all vertices expanded for this bucket (heavy phase)
	var inflow []graph.V

	maxBucket := graph.Dist(bound)
	for t := graph.Dist(0); pending > 0; t++ {
		if t*delta > maxBucket {
			break
		}
		b := buckets[int(t)%nb]
		if len(b) == 0 {
			continue
		}
		if opt.Exec.Checkpoint() {
			return res // canceled: partial, invalid
		}
		buckets[int(t)%nb] = nil
		pending -= len(b)
		lo, hi := t*delta, (t+1)*delta

		// Light phases: expand the bucket's members to a fixpoint.
		settled = settled[:0]
		inflow = append(inflow[:0], b...)
		for len(inflow) > 0 {
			// Select: current bucket members that improved since their
			// last expansion. Sequential — the expensive part is the
			// edge scan below.
			active = active[:0]
			for _, v := range inflow {
				d := atomic.LoadInt64(&res.Dist[v])
				if d < lo || d >= hi || d >= lastRelaxed[v] {
					continue
				}
				// First-ever expansion (distances never rise, so all of
				// v's expansions happen in this one bucket): exactly one
				// heavy relaxation per settled vertex per bucket, the
				// Meyer–Sanders accounting.
				if lastRelaxed[v] == graph.InfDist {
					settled = append(settled, cand{v, d})
				}
				lastRelaxed[v] = d
				active = append(active, cand{v, d})
			}
			inflow = inflow[:0]
			if len(active) == 0 {
				break
			}
			newInflow, future, scanned := relaxFrontier(g, res.Dist, active, &opt, delta, hi, true)
			inflow = append(inflow, newInflow...)
			for _, f := range future {
				buckets[int(f.b)%nb] = append(buckets[int(f.b)%nb], f.v)
				pending++
			}
			opt.Cost.Round(scanned + int64(len(active)))
		}

		// Heavy phase: one round of heavy-edge relaxations from every
		// vertex settled in this bucket. Heavy edges always leave the
		// bucket, so once suffices.
		if len(settled) > 0 {
			// Re-snapshot: light iterations may have improved a settled
			// vertex after its last expansion.
			for i := range settled {
				settled[i].d = atomic.LoadInt64(&res.Dist[settled[i].v])
			}
			_, future, scanned := relaxFrontier(g, res.Dist, settled, &opt, delta, hi, false)
			for _, f := range future {
				buckets[int(f.b)%nb] = append(buckets[int(f.b)%nb], f.v)
				pending++
			}
			opt.Cost.Round(scanned + int64(len(settled)))
		}
	}

	resolveParents(g, res, &opt)
	opt.Cost.Round(int64(n))
	return res
}

// defaultDelta picks the bucket width Δ = max(1, maxW/avgDegree) — the
// Meyer–Sanders heuristic balancing re-relaxation (large Δ) against
// bucket-sweep depth (small Δ).
func defaultDelta(g *graph.Graph) graph.Dist {
	maxW := g.MaxWeight()
	if maxW <= 1 {
		return 1
	}
	n := int64(g.NumVertices())
	if n == 0 {
		return 1
	}
	avgDeg := 2 * g.NumEdges() / n
	if avgDeg < 1 {
		avgDeg = 1
	}
	d := maxW / avgDeg
	if d < 1 {
		d = 1
	}
	return graph.Dist(d)
}

// bucketed is a CAS-won relaxation routed to a future bucket.
type bucketed struct {
	v graph.V
	b graph.Dist
}

// cand is a frontier member with the dist snapshot its edges are
// relaxed from (dist may keep improving while a phase runs).
type cand struct {
	v graph.V
	d graph.Dist
}

// chunk buffers one frontier vertex's relaxation output during a
// parallel expansion, before the sequential merge in frontier order.
type chunk struct {
	same    []graph.V
	future  []bucketed
	scanned int64
}

// chunkPool recycles the per-frontier chunk arrays (and, through them,
// the per-vertex output buffers' capacity) across light iterations and
// across searches: the expansion's only steady-state allocations are
// then genuine frontier growth.
var chunkPool sync.Pool

// getChunks returns a len-n chunk slice whose entries are reset to
// empty (retaining inner capacity). A pooled slice that is too short
// is grown by copying its entries across, so the warm per-vertex
// buffers accumulated so far survive frontier growth instead of being
// dropped with the old backing array.
func getChunks(n int) []chunk {
	var s []chunk
	if v := chunkPool.Get(); v != nil {
		s = *(v.(*[]chunk))
	}
	if cap(s) < n {
		grown := make([]chunk, n, n+n/2)
		copy(grown, s[:cap(s)])
		s = grown
	}
	s = s[:n]
	for i := range s {
		s[i].same = s[i].same[:0]
		s[i].future = s[i].future[:0]
		s[i].scanned = 0
	}
	return s
}

func putChunks(s []chunk) {
	s = s[:cap(s)]
	chunkPool.Put(&s)
}

// relaxFrontier expands the light (w ≤ delta) or heavy (w > delta)
// edges of every frontier vertex in parallel, min-updating dist with
// CAS. Won updates whose new key stays under hi are returned in same
// (current-bucket inflow); the rest are routed to their bucket in
// future. Per-vertex result buffers keep the output deterministic:
// merged in frontier order, independent of goroutine scheduling.
func relaxFrontier(g *graph.Graph, dist []graph.Dist, frontier []cand, opt *Options, delta, hi graph.Dist, light bool) (same []graph.V, future []bucketed, scanned int64) {
	bound := opt.bound()
	perVertex := getChunks(len(frontier))
	defer putChunks(perVertex)
	opt.Exec.For(len(frontier), 64, func(lo, hiIdx int) {
		for i := lo; i < hiIdx; i++ {
			v, dv := frontier[i].v, frontier[i].d
			arcs := g.Arcs(v)
			wide := g.Wide(v)
			c := &perVertex[i]
			for j, a := range arcs {
				w := graph.W(a.W)
				if wide != nil {
					w = wide[j]
				}
				u := a.To
				if (w <= graph.W(delta)) != light {
					continue
				}
				c.scanned++
				if !opt.admits(u) {
					continue
				}
				nd := dv + w
				if nd > bound {
					continue
				}
				if !casMin(&dist[u], nd) {
					continue
				}
				if nd < hi {
					c.same = append(c.same, u)
				} else {
					c.future = append(c.future, bucketed{u, nd / delta})
				}
			}
		}
	})
	for i := range perVertex {
		same = append(same, perVertex[i].same...)
		future = append(future, perVertex[i].future...)
		scanned += perVertex[i].scanned
	}
	return same, future, scanned
}

// casMin lowers *addr to nd if nd improves it, with a CAS loop; the
// return reports whether this caller won an improvement. This is the
// weighted analogue of BFSParallel's claim CAS: concurrent relaxers of
// the same vertex serialize on the CAS, and the arbitrary winner's
// write is the one the CRCW model keeps.
func casMin(addr *graph.Dist, nd graph.Dist) bool {
	for {
		old := atomic.LoadInt64(addr)
		if nd >= old {
			return false
		}
		if atomic.CompareAndSwapInt64(addr, old, nd) {
			return true
		}
	}
}

// resolveParents certifies one shortest-path tree over the converged
// distances: parent[v] is the first CSR neighbor u with dist[u] +
// w(u,v) = dist[v]. Runs as one parallel round; deterministic given
// the (deterministic) distances.
func resolveParents(g *graph.Graph, res *Result, opt *Options) {
	opt.Exec.For(int(g.NumVertices()), 2048, func(lo, hi int) {
		for vi := lo; vi < hi; vi++ {
			v := graph.V(vi)
			d := res.Dist[v]
			if d == 0 || d == graph.InfDist {
				continue // sources and unreached keep NoVertex
			}
			arcs := g.Arcs(v)
			wide := g.Wide(v)
			for i, a := range arcs {
				u := a.To
				if !opt.admits(u) {
					continue
				}
				w := graph.W(a.W)
				if wide != nil {
					w = wide[i]
				}
				if res.Dist[u]+w == d {
					res.Parent[v] = u
					break
				}
			}
		}
	})
}

// HopLimitedParallel computes the same h-hop-limited distances as
// HopLimited with every Bellman–Ford round expanded by concurrent
// goroutines: edges are scanned with par.For and relaxations CAS-min
// into the next-round array. Because min-updates commute, the output
// is bit-identical to HopLimited for any schedule. Depth is one unit
// per round, work O(m + |extra|) per round — the Definition 2.4
// quantity at true multicore speed.
func HopLimitedParallel(g *graph.Graph, extra []graph.Edge, sources []graph.V, hops int, cost *par.Cost) []graph.Dist {
	return HopLimitedParallelOn(nil, g, extra, sources, hops, cost)
}

// HopLimitedParallelOn is HopLimitedParallel on an execution context:
// the edge scans fan out under ec's worker cap, the scratch array
// comes from its arena, and cancellation is polled per round. The
// returned distances are freshly owned by the caller (release with
// ec.PutDists when done).
func HopLimitedParallelOn(ec *exec.Ctx, g *graph.Graph, extra []graph.Edge, sources []graph.V, hops int, cost *par.Cost) []graph.Dist {
	n := g.NumVertices()
	dist := ec.Dists(int(n))
	for _, s := range sources {
		dist[s] = 0
	}
	next := ec.Dists(int(n))
	defer func() { ec.PutDists(next) }()
	edges := g.Edges()
	weighted := g.Weighted()
	for round := 0; round < hops; round++ {
		if ec.Checkpoint() {
			break // canceled: partial, invalid
		}
		copy(next, dist)
		var changed atomic.Bool
		relax := func(u, v graph.V, w graph.W) {
			if dist[u] != graph.InfDist && casMin(&next[v], dist[u]+w) {
				changed.Store(true)
			}
			if dist[v] != graph.InfDist && casMin(&next[u], dist[v]+w) {
				changed.Store(true)
			}
		}
		ec.For(len(edges), 4096, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				w := graph.W(1)
				if weighted {
					w = edges[i].W
				}
				relax(edges[i].U, edges[i].V, w)
			}
		})
		ec.For(len(extra), 4096, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				relax(extra[i].U, extra[i].V, extra[i].W)
			}
		})
		cost.Round(int64(len(edges) + len(extra)))
		dist, next = next, dist
		if !changed.Load() {
			break
		}
	}
	return dist
}
