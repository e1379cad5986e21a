// Package sssp implements the shortest-path searches the paper builds
// on: level-synchronous parallel BFS in the style of Ullman–Yannakakis
// [UY91], its weighted counterpart via Dial bucket queues (the
// "weighted parallel BFS" of Section 5), hop-limited Bellman–Ford
// rounds (the h-hop distances that define hopsets), and a sequential
// Dijkstra used as the exact reference in tests and evaluations.
//
// Two monotone queues back the exact searches. Dial's ring (Dial,
// CACM 1969) holds one bucket per weight unit and jumps over empty
// buckets through an occupancy bitmap; Dial and DialTo always run on
// it, and Dijkstra and DijkstraTo run on it whenever the graph's
// largest weight is at most ringMaxWeight (4095). Above that the ring
// would grow with the weights, so Dijkstra runs on the radix heap
// (Ahuja–Mehlhorn–Orlin–Tarjan, JACM 1990), whose cost grows only with
// their logarithm; the dynamic overlay's patched search, which relaxes
// arcs no CSR holds, uses the exported RadixHeap directly. Both queues
// give the same distances. The queue buffers come from the exec arenas
// on every context, nil included.
//
// Depth accounting follows the paper: one synchronous round per BFS
// level (or per Dial bucket), with the CRCW O(log* n) per-round factor
// treated as a model constant (Appendix A). Work is the number of
// edge relaxations plus vertex settlements. Dijkstra is costed as the
// sequential algorithm it is, on either queue: work and depth both
// equal the arcs it scans.
//
// All searches accept an optional vertex restriction (Mark/Token):
// only vertices v with Mark[v] == Token participate. The hopset
// recursion uses this to search inside a cluster without materializing
// the induced subgraph.
package sssp

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/par"
)

// Options configures a search.
type Options struct {
	// Cost accumulates PRAM work/depth; may be nil.
	Cost *par.Cost
	// MaxDist stops the search once settled distances would exceed
	// this bound; 0 means unbounded. Vertices beyond it keep InfDist.
	MaxDist graph.Dist
	// Mark/Token restrict the search to vertices v with
	// Mark[v] == Token. A nil Mark admits every vertex.
	Mark  []int32
	Token int32
	// Exec is the execution context the search runs on: its worker cap
	// bounds every goroutine fan-out, its arenas back the result and
	// scratch buffers (release results with Result.Release), and its
	// cancellation is polled at level/bucket boundaries — a canceled
	// search returns immediately with an invalid partial result, so
	// callers must check Exec.Err() before using it. Nil keeps the
	// legacy behavior (full GOMAXPROCS, freshly allocated results, no
	// cancellation); scratch comes from the same process-wide arenas.
	Exec *exec.Ctx
	// Shift makes Dial relax every arc at ⌈w/2^Shift⌉ instead of w:
	// Lemma 5.2's rounding to a power-of-two granularity, applied per
	// arc as ((w-1)>>Shift)+1, so no rounded graph copy is built and
	// no arc pays a division. Dial only; 0 = true weights.
	Shift uint
	// Delta overrides the Δ-stepping bucket width (0 = the
	// Meyer–Sanders default maxW/avgDegree). Ignored by the other
	// searches.
	Delta graph.W
}

// admits loads the mark atomically: the hopset recursion runs sibling
// subtrees concurrently, and a subtree's search may read the mark of a
// boundary neighbor owned by a sibling that is re-marking its own
// descendants. Every concurrently-written value is some other
// subtree's token, so the admit/reject decision is unaffected; the
// atomic load makes that benign overlap well-defined.
func (o *Options) admits(v graph.V) bool {
	return o.Mark == nil || atomic.LoadInt32(&o.Mark[v]) == o.Token
}

func (o *Options) bound() graph.Dist {
	if o.MaxDist <= 0 {
		return graph.InfDist
	}
	return o.MaxDist
}

// Result holds per-vertex distances and BFS/SSSP tree parents.
// Unreached vertices have Dist = InfDist and Parent = NoVertex.
type Result struct {
	Dist   []graph.Dist
	Parent []graph.V
}

func newResult(n int32) *Result {
	r := &Result{
		Dist:   make([]graph.Dist, n),
		Parent: make([]graph.V, n),
	}
	for i := range r.Dist {
		r.Dist[i] = graph.InfDist
		r.Parent[i] = graph.NoVertex
	}
	return r
}

// newResultOn acquires the result arrays from ec's arenas (already
// reset to InfDist / NoVertex); nil ec allocates them fresh at exactly
// n, since a nil-context caller never releases them.
func newResultOn(ec *exec.Ctx, n int32) *Result {
	if ec == nil {
		return newResult(n)
	}
	return &Result{Dist: ec.Dists(int(n)), Parent: ec.Verts(int(n))}
}

// Release returns the result's arrays to the execution context's
// arenas. Call it when a search result has been fully consumed — the
// hopset clique searches and the oracle query engine do — and never
// touch the result afterwards. Safe on nil receiver or nil ec (no-op).
func (r *Result) Release(ec *exec.Ctx) {
	if r == nil || ec == nil {
		return
	}
	ec.PutDists(r.Dist)
	ec.PutVerts(r.Parent)
	r.Dist, r.Parent = nil, nil
}

// Reached reports whether v was settled.
func (r *Result) Reached(v graph.V) bool { return r.Dist[v] < graph.InfDist }

// PathTo reconstructs the tree path from the source set to v, or nil
// if v was not reached.
func (r *Result) PathTo(v graph.V) []graph.V {
	if !r.Reached(v) {
		return nil
	}
	var rev []graph.V
	for u := v; u != graph.NoVertex; u = r.Parent[u] {
		rev = append(rev, u)
		if len(rev) > len(r.Dist)+1 {
			panic("sssp: parent cycle")
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// BFS runs level-synchronous breadth-first search from the given
// sources over unit edge costs (edge weights are ignored), recording
// one depth unit per level. This is the [UY91]-style parallel BFS the
// paper uses for unweighted graphs and for clique-edge distances in
// Algorithm 4.
func BFS(g *graph.Graph, sources []graph.V, opt Options) *Result {
	n := g.NumVertices()
	res := newResultOn(opt.Exec, n)
	bound := opt.bound()
	frontier := make([]graph.V, 0, len(sources))
	for _, s := range sources {
		if !opt.admits(s) || res.Dist[s] == 0 {
			continue
		}
		res.Dist[s] = 0
		frontier = append(frontier, s)
	}
	level := graph.Dist(0)
	for len(frontier) > 0 && level < bound {
		if opt.Exec.Checkpoint() {
			return res // canceled: partial, invalid
		}
		level++
		var next []graph.V
		var touched int64
		for _, v := range frontier {
			for _, a := range g.Arcs(v) {
				touched++
				u := a.To
				if !opt.admits(u) || res.Dist[u] != graph.InfDist {
					continue
				}
				res.Dist[u] = level
				res.Parent[u] = v
				next = append(next, u)
			}
		}
		opt.Cost.Round(touched + int64(len(frontier)))
		frontier = next
	}
	return res
}

// Dial runs the weighted multi-source shortest-path search with a
// circular bucket queue (Dial's algorithm): exact for positive integer
// weights, with depth equal to the number of distance levels advanced —
// the weighted parallel BFS depth the paper quotes in Section 5. The
// graph must be weighted (or all weights are 1 and BFS is equivalent).
// With opt.Shift = s > 0 it searches g with every weight w read as
// ⌈w/2^s⌉, bit-identical to a search over the rounded copy of g.
//
// Work is one per settled vertex plus the arcs it scans; a stale
// bucket entry (a vertex queued again at a lower key) is skipped and
// costs nothing, so Work equals Σ(1 + degree) over the settled
// vertices. Empty levels count toward the depth but are jumped over,
// not visited (see ring).
func Dial(g *graph.Graph, sources []graph.V, opt Options) *Result {
	res := newResultOn(opt.Exec, g.NumVertices())
	dial(g, sources, &opt, graph.NoVertex, res)
	return res
}

// DialTo is the point-to-point Dial: it returns the distance from src
// to dst (InfDist if dst is unreachable, outside opt.MaxDist or not
// admitted), stopping as soon as dst is settled. Its depth is the
// number of levels up to and including dst's, its work Dial's over the
// vertices settled before dst, plus one for dst. It keeps no parents,
// and its distance and queue buffers come from and return to the exec
// arenas, so it allocates a small constant, not O(n).
func DialTo(g *graph.Graph, src, dst graph.V, opt Options) graph.Dist {
	res := Result{Dist: opt.Exec.Dists(int(g.NumVertices()))}
	sources := [1]graph.V{src}
	dial(g, sources[:], &opt, dst, &res)
	d := res.Dist[dst]
	opt.Exec.PutDists(res.Dist)
	return d
}

// dial is the body behind Dial and DialTo: the ring search at
// opt.Shift, costed as the weighted parallel BFS. Every distance level
// up to the last one drained is one synchronous round, empty or not:
// this is the "depth linear in path lengths" that Section 5's rounding
// scheme exists to shrink.
func dial(g *graph.Graph, sources []graph.V, opt *Options, stop graph.V, res *Result) {
	maxW := (g.MaxWeight()-1)>>opt.Shift + 1
	c := ringSearch(g, sources, opt, opt.Shift, maxW, stop, res, true)
	work := c.settled + c.arcs
	if c.stopped {
		work++
	}
	opt.Cost.AddWork(work)
	opt.Cost.AddDepth(int64(c.levels))
}

// ringCount is what one ringSearch did, for its caller to cost.
type ringCount struct {
	settled int64      // vertices settled and scanned; a stop vertex is not
	arcs    int64      // arcs scanned from them
	levels  graph.Dist // distance levels swept: the last key drained + 1
	stopped bool       // the stop vertex settled
	visits  int64      // the ring's visits
}

// maxBuckets bounds a ring: a wider weight span must be rounded
// (Options.Shift) or capped (Options.MaxDist) first.
const maxBuckets = 1 << 28

// ringSearch settles vertices into res in distance order on a ring,
// relaxing every arc at ⌈w/2^shift⌉ given maxW, the largest such
// rounded weight. It returns as soon as stop is settled (never, for
// NoVertex) and records parents only when res.Parent is non-nil.
// Buckets drain in insertion order, so ties settle the same way on
// every run. At each non-empty bucket it polls the context, by
// Checkpoint (a counted round) when rounds is set and by Canceled
// otherwise. A run that neither stops nor is canceled leaves no
// tentative distance behind: every queued key is within the bound and
// is drained, so each finite Dist is final.
func ringSearch(g *graph.Graph, sources []graph.V, opt *Options, shift uint, maxW graph.W, stop graph.V, res *Result, rounds bool) (c ringCount) {
	bound := opt.bound()
	// A relaxation increases the key by at most maxW, so maxW+1
	// buckets suffice. A bounded search never keeps keys above the
	// bound, so the span clamps to it — this is what keeps level-capped
	// searches on huge-weight graphs cheap.
	span := max(maxW, 1)
	if bound < graph.InfDist && graph.W(bound)+1 < span {
		span = graph.W(bound) + 1
	}
	if span+1 > maxBuckets {
		panic(fmt.Sprintf("sssp: Dial bucket span %d too large; round weights or set MaxDist", span))
	}
	ec := opt.Exec
	r := newRing(ec, span)
	defer func() {
		c.visits = r.visits
		r.release(ec)
	}()
	dist, parent := res.Dist, res.Parent
	mark, token := opt.Mark, opt.Token
	pending := 0
	for _, s := range sources {
		if !opt.admits(s) || dist[s] == 0 {
			continue
		}
		dist[s] = 0
		r.push(0, s)
		pending++
	}
	// The unrestricted case — no Mark, no bound, true weights, every
	// weight in its Arc — is every full search from the facade and
	// every exact s–t query; it gets its own loop.
	tight := mark == nil && bound == graph.InfDist && shift == 0 && g.MaxWeight() <= math.MaxUint32
	var level graph.Dist
	for pending > 0 {
		level = r.next(level)
		c.levels = level + 1
		if rounds && ec.Checkpoint() || !rounds && ec.Canceled() {
			return c // canceled: partial, invalid
		}
		i := int(level) & r.mask
		b := r.buckets[i]
		pending -= len(b)
		for _, v := range b {
			// A vertex is queued at most once per key and every entry
			// is drained at its own key, so an entry is current iff
			// its key is still the vertex's distance.
			if dist[v] != level {
				continue // stale entry
			}
			if v == stop {
				c.stopped = true
				return c
			}
			arcs := g.Arcs(v)
			c.settled++
			c.arcs += int64(len(arcs))
			// A settled u already has Dist[u] <= level < nd, and an
			// admitted nd lands in another bucket than the one being
			// drained: 0 < nd-level <= span < len(buckets).
			if tight {
				for _, a := range arcs {
					u := a.To
					if nd := level + graph.Dist(a.W); nd < dist[u] {
						dist[u] = nd
						if parent != nil {
							parent[u] = v
						}
						r.push(nd, u)
						pending++
					}
				}
				continue
			}
			wide := g.Wide(v)
			for j, a := range arcs {
				w := graph.W(a.W)
				if wide != nil {
					w = wide[j]
				}
				u := a.To
				nd := level + (w-1)>>shift + 1 // ⌈w/2^shift⌉, w >= 1
				if nd < dist[u] && nd <= bound && (mark == nil || atomic.LoadInt32(&mark[u]) == token) {
					dist[u] = nd
					if parent != nil {
						parent[u] = v
					}
					r.push(nd, u)
					pending++
				}
			}
		}
		r.drained(i)
	}
	return c
}

// ring is the circular bucket queue behind Dial and the small-weight
// Dijkstra: a power-of-two number of buckets, indexed by key & mask, at
// least one more than the span of keys queued at once, so no two live
// keys share a bucket. occ has bit i set iff bucket i is non-empty and
// sum has bit j set iff occ[j] is non-zero, so next jumps over any run
// of empty buckets in a few word reads: a path of heavy edges costs
// O(1) per level it skips, not one visit per empty level.
type ring struct {
	buckets [][]graph.V
	occ     []uint64 // sum follows it in the same arena buffer
	sum     []uint64
	mask    int
	visits  int64 // buckets drained plus bitmap words read to find them
}

// newRing takes a ring for keys spanning at most span above the level
// being drained from ec's arenas.
func newRing(ec *exec.Ctx, span graph.W) ring {
	nb := 1 << bits.Len64(uint64(span)) // the least power of two > span
	nw := max(nb>>6, 1)
	words := ec.Words(nw + max(nw>>6, 1))
	return ring{buckets: ec.Buckets(nb), occ: words[:nw], sum: words[nw:], mask: nb - 1}
}

// release returns the ring's buffers to ec's arenas; occ still spans
// the whole bitmap buffer through its capacity.
func (r *ring) release(ec *exec.Ctx) {
	ec.PutBuckets(r.buckets)
	ec.PutWords(r.occ)
}

// push queues v at key.
func (r *ring) push(key graph.Dist, v graph.V) {
	i := int(key) & r.mask
	if len(r.buckets[i]) == 0 {
		r.occ[i>>6] |= 1 << (i & 63)
		r.sum[i>>12] |= 1 << (i >> 6 & 63)
	}
	r.buckets[i] = append(r.buckets[i], v)
}

// drained empties bucket i once its entries are processed, keeping its
// capacity for the next refill.
func (r *ring) drained(i int) {
	r.buckets[i] = r.buckets[i][:0]
	r.visits++
	w := i >> 6
	if r.occ[w] &^= 1 << (i & 63); r.occ[w] == 0 {
		r.sum[w>>6] &^= 1 << (w & 63)
	}
}

// next returns the least queued key, given that the ring is not empty
// and every queued key lies in [level, level+mask]. It counts the
// bitmap words it reads in r.visits.
func (r *ring) next(level graph.Dist) graph.Dist {
	i := int(level) & r.mask
	r.visits++
	if m := r.occ[i>>6] >> (i & 63); m != 0 {
		return level + graph.Dist(bits.TrailingZeros64(m))
	}
	return level + graph.Dist(r.after(i))
}

// after is next past the word holding bucket i, which has no occupied
// bucket at or above i: it returns the circular distance from i to the
// first occupied bucket of the first non-empty word after it, which is
// i's own word, below i, when every other word is empty.
func (r *ring) after(i int) int {
	x := (i>>6 + 1) & (len(r.occ) - 1)
	s := x >> 6
	r.visits += 2
	if m := r.sum[s] >> (x & 63); m != 0 {
		x += bits.TrailingZeros64(m)
	} else {
		for {
			s = (s + 1) & (len(r.sum) - 1)
			r.visits++
			if r.sum[s] != 0 {
				break
			}
		}
		x = s<<6 | bits.TrailingZeros64(r.sum[s])
	}
	k := x<<6 | bits.TrailingZeros64(r.occ[x])
	return (k - i) & r.mask
}

// ringMaxWeight is the largest graph weight Dijkstra searches on the
// ring rather than the radix heap. Its ring has at most 4096 buckets,
// so the occupancy bitmap is 64 words under one summary word and every
// jump to the next non-empty bucket reads at most four words. Wider
// weights stay on the radix heap, whose cost grows only with their
// logarithm: a ring must hold one bucket per weight unit.
const ringMaxWeight = 1<<12 - 1

// Dijkstra is the exact sequential reference implementation. On a
// graph whose weights are at most ringMaxWeight it runs on Dial's
// bucket ring, otherwise on the radix heap of Ahuja, Mehlhorn, Orlin
// and Tarjan (JACM 1990) keyed by Result.Dist (see RadixHeap): O(m + n
// log C) for integer weights up to C. The queue buffers come from the
// exec arenas on every context, nil included, so a call allocates its
// result and a small constant besides, independent of n, m and the
// weights; on an execution context with a released result, only the
// constant.
//
// Distances are exact and identical on either queue; parents form some
// certifying shortest-path tree (ties among equal-length paths may
// resolve either way). It accepts the same Options but Shift; MaxDist
// is enforced at relaxation, as in Dial, so no key past the bound is
// ever queued. Cost accounting treats it as a sequential algorithm on
// either queue: work and depth both equal the edges scanned from
// settled vertices.
func Dijkstra(g *graph.Graph, sources []graph.V, opt Options) *Result {
	res := newResultOn(opt.Exec, g.NumVertices())
	dijkstra(g, sources, &opt, graph.NoVertex, res)
	return res
}

// DijkstraTo is the point-to-point Dijkstra, on the same queue choice:
// it returns the distance from src to dst (InfDist if dst is
// unreachable, outside opt.MaxDist or not admitted), stopping as soon
// as dst is settled. Its work and depth are the edges scanned from the
// vertices settled before dst; dst itself scans nothing. It keeps no
// parents, and its distance and queue buffers come from and return to
// the exec arenas, so it allocates a small constant, not O(n). This is
// the repository's one exact s–t kernel: every ground-truth distance
// and every exact fallback runs on it.
func DijkstraTo(g *graph.Graph, src, dst graph.V, opt Options) graph.Dist {
	res := Result{Dist: opt.Exec.Dists(int(g.NumVertices()))}
	sources := [1]graph.V{src}
	dijkstra(g, sources[:], &opt, dst, &res)
	d := res.Dist[dst]
	opt.Exec.PutDists(res.Dist)
	return d
}

// dijkstra is the body behind Dijkstra and DijkstraTo: it picks the
// queue by the graph's largest weight and costs the arcs scanned.
func dijkstra(g *graph.Graph, sources []graph.V, opt *Options, stop graph.V, res *Result) {
	var scanned int64
	if maxW := g.MaxWeight(); maxW <= ringMaxWeight {
		scanned = ringSearch(g, sources, opt, 0, maxW, stop, res, false).arcs
	} else {
		scanned = radixSearch(g, sources, opt, stop, res)
	}
	opt.Cost.AddWork(scanned)
	opt.Cost.AddDepth(scanned)
}

// radixSearch is dijkstra on the radix heap: it settles vertices into
// res in distance order, returns as soon as stop is settled (never,
// for NoVertex), records parents only when res.Parent is non-nil, and
// returns the arcs it scanned. A run that is not canceled drains every
// queued vertex it does not stop before, so each finite Dist it leaves
// is final.
func radixSearch(g *graph.Graph, sources []graph.V, opt *Options, stop graph.V, res *Result) int64 {
	n := int(g.NumVertices())
	bound := opt.bound()
	// One arena buffer holds the three per-vertex queue arrays.
	buf := opt.Exec.MarksZero(3 * n)
	defer opt.Exec.PutMarks(buf)
	q := NewRadixHeap(res.Dist, buf)
	for _, s := range sources {
		if !opt.admits(s) || res.Dist[s] == 0 {
			continue
		}
		res.Dist[s] = 0
		q.Update(s, 0)
	}
	var ops int64
	for !q.Empty() {
		if opt.Exec.Canceled() {
			return ops // canceled: partial, invalid
		}
		v := q.Pop()
		if v == stop {
			break
		}
		d := res.Dist[v]
		arcs := g.Arcs(v)
		wide := g.Wide(v)
		ops += int64(len(arcs))
		for i, a := range arcs {
			// nd directly, with no separate weight variable: one more
			// live value per arc spills to the stack in this loop.
			nd := d + graph.Dist(a.W)
			if wide != nil {
				nd = d + wide[i]
			}
			u := a.To
			// A settled u already has Dist[u] <= d < nd, so only
			// queued and unreached vertices pass the first test; the
			// bound keeps every queued key within MaxDist.
			if nd < res.Dist[u] && nd <= bound && opt.admits(u) {
				res.Dist[u] = nd
				if res.Parent != nil {
					res.Parent[u] = v
				}
				q.Update(u, nd)
			}
		}
	}
	return ops
}

// radixBuckets is the number of radix-heap buckets: queued keys are
// below InfDist < 2^62, so key ^ last has at most 62 significant bits.
const radixBuckets = 63

// RadixHeap is the monotone priority queue of Ahuja, Mehlhorn, Orlin
// and Tarjan over vertex ids keyed by dist[v], the exact searches'
// queue wherever weights are too wide for the ring: Dijkstra and
// DijkstraTo on graphs with a weight above ringMaxWeight, and the
// dynamic overlay's patched search, which relaxes arcs no CSR holds
// and whose weights no graph bounds. Pops are monotone: every key passed to Update must be at least the
// last popped one, which positive weights guarantee.
//
// A queued key k sits in bucket bits.Len64(k ^ last), where last is
// the most recent popped minimum (bucket 0: k == last). Each bucket is
// a doubly linked list through next/prev headed by head[b], so
// decrease-key is O(1) and the queue never holds a stale entry or
// allocates per push. slot[v] is v's bucket plus one while queued, 0
// while unqueued, and settledSlot once popped.
type RadixHeap struct {
	dist       []graph.Dist
	slot       []int32
	next, prev []graph.V
	head       [radixBuckets]graph.V
	nonEmpty   uint64 // bit b set iff head[b] != NoVertex
	last       graph.Dist
}

// settledSlot marks a vertex RadixHeap.Pop has returned.
const settledSlot = -1

// NewRadixHeap lays an empty queue keyed by dist over buf, a zeroed
// buffer of 3·len(dist) entries (exec.Ctx.MarksZero), which the queue
// owns until the caller is done with it.
func NewRadixHeap(dist []graph.Dist, buf []int32) RadixHeap {
	n := len(dist)
	q := RadixHeap{dist: dist, slot: buf[:n], next: buf[n : 2*n], prev: buf[2*n : 3*n]}
	for b := range q.head {
		q.head[b] = graph.NoVertex
	}
	return q
}

// Empty reports whether no vertex is queued.
func (q *RadixHeap) Empty() bool { return q.nonEmpty == 0 }

func (q *RadixHeap) bucket(key graph.Dist) int32 {
	return int32(bits.Len64(uint64(key ^ q.last)))
}

func (q *RadixHeap) link(v graph.V, b int32) {
	h := q.head[b]
	q.next[v], q.prev[v] = h, graph.NoVertex
	if h != graph.NoVertex {
		q.prev[h] = v
	}
	q.head[b] = v
	q.nonEmpty |= 1 << uint(b)
	q.slot[v] = b + 1
}

func (q *RadixHeap) unlink(v graph.V, b int32) {
	nx, pv := q.next[v], q.prev[v]
	if nx != graph.NoVertex {
		q.prev[nx] = pv
	}
	if pv != graph.NoVertex {
		q.next[pv] = nx
		return
	}
	q.head[b] = nx
	if nx == graph.NoVertex {
		q.nonEmpty &^= 1 << uint(b)
	}
}

// Update queues an unsettled v whose dist[v] the caller has just set
// to key >= the last popped key: an unqueued v is linked into key's
// bucket, a queued one whose key was lowered moves there unless it is
// already in it.
func (q *RadixHeap) Update(v graph.V, key graph.Dist) {
	nb := q.bucket(key)
	if s := q.slot[v]; s != 0 {
		if s-1 == nb {
			return
		}
		q.unlink(v, s-1)
	}
	q.link(v, nb)
}

// Pop removes and returns a vertex of minimum key; the queue must not
// be Empty. When bucket 0 is empty, the lowest non-empty bucket's
// minimum becomes last and its members move to strictly lower
// buckets, filling bucket 0.
func (q *RadixHeap) Pop() graph.V {
	if q.head[0] == graph.NoVertex {
		b := int32(bits.TrailingZeros64(q.nonEmpty))
		m := graph.InfDist
		for v := q.head[b]; v != graph.NoVertex; v = q.next[v] {
			m = min(m, q.dist[v])
		}
		q.last = m
		v := q.head[b]
		q.head[b] = graph.NoVertex
		q.nonEmpty &^= 1 << uint(b)
		for v != graph.NoVertex {
			nx := q.next[v]
			q.link(v, q.bucket(q.dist[v]))
			v = nx
		}
	}
	v := q.head[0]
	q.unlink(v, 0)
	q.slot[v] = settledSlot
	return v
}

// HopLimited computes h-hop-limited distances dist^h_{E ∪ extra}(s, ·)
// by h synchronous Bellman–Ford rounds over the graph's edges plus the
// extra (hopset) edges. This is the defining quantity of Definition
// 2.4; the evaluation uses it to certify hopset quality. Each round is
// one depth unit of work O(m + |extra|).
func HopLimited(g *graph.Graph, extra []graph.Edge, sources []graph.V, hops int, cost *par.Cost) []graph.Dist {
	return HopLimitedOn(nil, g, extra, sources, hops, cost)
}

// HopLimitedOn is HopLimited on an execution context: the next-round
// scratch array comes from ec's arena and cancellation is polled per
// Bellman–Ford round. The returned distance array is freshly owned by
// the caller (release with ec.PutDists when done).
func HopLimitedOn(ec *exec.Ctx, g *graph.Graph, extra []graph.Edge, sources []graph.V, hops int, cost *par.Cost) []graph.Dist {
	n := g.NumVertices()
	dist := ec.Dists(int(n))
	for _, s := range sources {
		dist[s] = 0
	}
	next := ec.Dists(int(n))
	defer func() { ec.PutDists(next) }()
	edges := g.Edges()
	for round := 0; round < hops; round++ {
		if ec.Checkpoint() {
			break // canceled: partial, invalid
		}
		copy(next, dist)
		changed := false
		relax := func(u, v graph.V, w graph.W) {
			if dist[u] != graph.InfDist && dist[u]+w < next[v] {
				next[v] = dist[u] + w
				changed = true
			}
			if dist[v] != graph.InfDist && dist[v]+w < next[u] {
				next[u] = dist[v] + w
				changed = true
			}
		}
		for i := range edges {
			w := graph.W(1)
			if g.Weighted() {
				w = edges[i].W
			}
			relax(edges[i].U, edges[i].V, w)
		}
		for i := range extra {
			relax(extra[i].U, extra[i].V, extra[i].W)
		}
		cost.Round(int64(len(edges) + len(extra)))
		dist, next = next, dist
		if !changed {
			break
		}
	}
	return dist
}

// Eccentricity returns the maximum finite BFS distance from v (hop
// eccentricity). Used by diameter estimation.
func Eccentricity(g *graph.Graph, v graph.V) graph.Dist {
	res := BFS(g, []graph.V{v}, Options{})
	var ecc graph.Dist
	for _, d := range res.Dist {
		if d < graph.InfDist && d > ecc {
			ecc = d
		}
	}
	return ecc
}

// EstimateDiameter lower-bounds the hop diameter with the standard
// double-sweep heuristic: BFS from v0, then BFS from the farthest
// vertex found. Exact on trees; a good lower bound elsewhere.
func EstimateDiameter(g *graph.Graph, v0 graph.V) graph.Dist {
	if g.NumVertices() == 0 {
		return 0
	}
	res := BFS(g, []graph.V{v0}, Options{})
	far, fd := v0, graph.Dist(0)
	for v, d := range res.Dist {
		if d < graph.InfDist && d > fd {
			far, fd = graph.V(v), d
		}
	}
	return Eccentricity(g, far)
}
