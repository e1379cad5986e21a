// Package graph provides the graph substrate shared by every algorithm
// in this repository: a compact CSR (compressed sparse row)
// representation of undirected graphs with positive integer weights,
// together with builders, contraction (quotient graphs), connected
// components, synthetic generators, and (de)serialization.
//
// Conventions (used repository-wide):
//
//   - Vertices are V = int32 ids in [0, NumVertices()).
//   - Weights are W = int64 and strictly positive; an unweighted graph
//     reports weight 1 for every edge, which matches the paper's
//     normalization min w(e) = 1.
//   - The CSR stores each direction of an edge as an 8-byte Arc
//     {To, W} in one stream per vertex (Arcs), so a search reads the
//     head and the weight of an arc together. Unweighted graphs store
//     W = 1. A graph whose MaxWeight exceeds math.MaxUint32 also keeps
//     the full weights aligned with its arcs (Wide); every weighted
//     loop reads w := W(a.W) and overrides it with Wide's entry when
//     that slice is non-nil.
//   - Every undirected edge has a canonical edge id in [0, NumEdges())
//     referring to the Edges() list; the CSR carries the edge id
//     alongside each direction so subgraphs (spanners, hopsets) can be
//     described as subsets of edge ids.
//   - Dist is the distance type; InfDist is the "unreached" sentinel
//     and is safely addable to any real edge weight without overflow.
package graph

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/par"
)

// V is the vertex id type.
type V = int32

// W is the edge weight type. Weights are strictly positive integers.
type W = int64

// Dist is the path-distance type.
type Dist = int64

// InfDist is the "unreachable" distance sentinel. It is chosen so that
// InfDist + maxWeight cannot overflow int64.
const InfDist Dist = math.MaxInt64 / 4

// WeightCap is the largest edge weight an n-vertex graph accepts:
// w·max(n−1, 1) < InfDist. A shortest path has at most n−1 edges, so
// under the cap every finite distance stays below InfDist.
func WeightCap(n V) W { return (InfDist - 1) / W(max(n-1, 1)) }

// NoVertex marks the absence of a vertex (e.g. the parent of a root).
const NoVertex V = -1

// NoEdge marks the absence of an edge id.
const NoEdge int32 = -1

// Edge is one undirected edge in a graph's canonical edge list.
type Edge struct {
	U, V V
	W    W
}

// Arc is one direction of an edge in CSR order: the head vertex and
// the weight, 8 bytes together. W is the edge weight (1 on unweighted
// graphs), saturated at math.MaxUint32; on a graph with Wide arcs the
// full weight is the Wide entry aligned with the arc.
type Arc struct {
	To V
	W  uint32
}

// ArcWeight is the Arc.W stored for an edge of weight w >= 1.
func ArcWeight(w W) uint32 {
	return uint32(min(w, math.MaxUint32))
}

// Graph is an immutable undirected graph in CSR form.
type Graph struct {
	n    int32
	offs []int64 // len n+1; offs[v]..offs[v+1] index the CSR arrays
	arcs []Arc   // len 2m; head and (saturated) weight
	wide []W     // len 2m when maxW > math.MaxUint32, else nil
	eids []int32 // len 2m; canonical edge id of this direction

	edges []Edge // canonical undirected edge list, len m

	weighted   bool
	minW, maxW W

	// origEID maps this graph's edge ids to the edge ids of the graph
	// it was contracted from. Nil unless produced by Contract.
	origEID []int32

	// fpVal/fpOK cache Fingerprint: the graph is immutable, and the
	// digest walks the whole edge list, so compute it at most once.
	// fpVal is published before fpOK; a racing second computation
	// stores the same digest, so the pair needs no mutex.
	fpVal atomic.Uint64
	fpOK  atomic.Bool
}

// NumVertices returns n.
func (g *Graph) NumVertices() int32 { return g.n }

// NumEdges returns the number of undirected edges m.
func (g *Graph) NumEdges() int64 { return int64(len(g.edges)) }

// Weighted reports whether the graph carries explicit weights.
func (g *Graph) Weighted() bool { return g.weighted }

// MinWeight returns the smallest edge weight (1 for unweighted or
// empty graphs).
func (g *Graph) MinWeight() W {
	if !g.weighted || len(g.edges) == 0 {
		return 1
	}
	return g.minW
}

// MaxWeight returns the largest edge weight (1 for unweighted or empty
// graphs).
func (g *Graph) MaxWeight() W {
	if !g.weighted || len(g.edges) == 0 {
		return 1
	}
	return g.maxW
}

// WeightRatio returns U = MaxWeight/MinWeight, the quantity the
// paper's weighted spanner depth bound O(k log* n log U) depends on.
func (g *Graph) WeightRatio() float64 {
	return float64(g.MaxWeight()) / float64(g.MinWeight())
}

// Degree returns the number of incident edge endpoints at v.
func (g *Graph) Degree(v V) int32 {
	return int32(g.offs[v+1] - g.offs[v])
}

// Arcs returns v's arcs in CSR order. The caller must not modify it.
func (g *Graph) Arcs(v V) []Arc {
	return g.arcs[g.offs[v]:g.offs[v+1]]
}

// Wide returns the full weights aligned with Arcs(v) on a graph whose
// MaxWeight exceeds math.MaxUint32, and nil on every other graph,
// whose Arc.W already is the weight.
func (g *Graph) Wide(v V) []W {
	if g.wide == nil {
		return nil
	}
	return g.wide[g.offs[v]:g.offs[v+1]]
}

// AdjEdgeIDs returns the canonical edge ids aligned with Arcs(v).
func (g *Graph) AdjEdgeIDs(v V) []int32 {
	return g.eids[g.offs[v]:g.offs[v+1]]
}

// Edges returns the canonical undirected edge list. The caller must
// not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// EdgeWeight returns the weight of canonical edge id e.
func (g *Graph) EdgeWeight(e int32) W {
	if !g.weighted {
		return 1
	}
	return g.edges[e].W
}

// OrigEdgeID maps edge id e of a contracted graph back to the edge id
// in the graph it was contracted from. For graphs not produced by
// Contract it returns e unchanged.
func (g *Graph) OrigEdgeID(e int32) int32 {
	if g.origEID == nil {
		return e
	}
	return g.origEID[e]
}

// HasOrigEdgeIDs reports whether the graph carries a contraction
// back-mapping.
func (g *Graph) HasOrigEdgeIDs() bool { return g.origEID != nil }

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() W {
	var s W
	for i := range g.edges {
		if g.weighted {
			s += g.edges[i].W
		} else {
			s++
		}
	}
	return s
}

// FromEdges builds an undirected graph over n vertices from the given
// edge list. Self-loops are rejected; parallel edges are kept as-is
// (use Simplify first if the input may contain them). For unweighted
// graphs pass weighted=false and any W values are ignored (treated as
// 1). Panics on malformed input, a weight outside [1, WeightCap(n)]
// included: this is a programming error, not a runtime condition.
func FromEdges(n int32, edges []Edge, weighted bool) *Graph {
	return fromEdges(n, edges, weighted, WeightCap(n))
}

// Derive builds a weighted graph on g's vertices from edges derived
// from g's own: a subset of them, lighter copies, or g-paths such as
// hopset edges. Their weights passed g's checks or are lengths of
// paths in g, so they are held below InfDist rather than to
// WeightCap(n): a graph augmented with long shortcuts stays buildable.
func (g *Graph) Derive(edges []Edge) *Graph {
	return fromEdges(g.n, edges, true, InfDist-1)
}

// Augment returns g ∪ extra as a weighted graph: g's edges in order,
// then extra's. The extra edges must be g-paths, such as hopset edges,
// so the union has g's metric.
func (g *Graph) Augment(extra []Edge) *Graph {
	return g.Derive(append(append(make([]Edge, 0, len(g.edges)+len(extra)), g.edges...), extra...))
}

// fromEdges is FromEdges with maxW as the weight ceiling.
func fromEdges(n int32, edges []Edge, weighted bool, maxW W) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	m := len(edges)
	g := &Graph{
		n:        n,
		weighted: weighted,
		edges:    make([]Edge, m),
		minW:     math.MaxInt64,
		maxW:     0,
	}
	copy(g.edges, edges)
	if !weighted {
		for i := range g.edges {
			g.edges[i].W = 1
		}
	}
	for i := range g.edges {
		e := &g.edges[i]
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			panic(fmt.Sprintf("graph: edge %d endpoint out of range: (%d,%d) with n=%d", i, e.U, e.V, n))
		}
		if e.U == e.V {
			panic(fmt.Sprintf("graph: self-loop at vertex %d (edge %d)", e.U, i))
		}
		if weighted && e.W <= 0 {
			panic(fmt.Sprintf("graph: non-positive weight %d on edge %d", e.W, i))
		}
		if weighted && e.W > maxW {
			panic(fmt.Sprintf("graph: weight %d on edge %d exceeds the cap %d for n=%d", e.W, i, maxW, n))
		}
		if e.W < g.minW {
			g.minW = e.W
		}
		if e.W > g.maxW {
			g.maxW = e.W
		}
	}
	if m == 0 {
		g.minW, g.maxW = 1, 1
	}

	// Degree count, prefix sum, fill: the standard parallel CSR build.
	deg := make([]int32, n+1)
	for i := range g.edges {
		deg[g.edges[i].U]++
		deg[g.edges[i].V]++
	}
	offs := make([]int64, n+1)
	var run int64
	for v := int32(0); v < n; v++ {
		offs[v] = run
		run += int64(deg[v])
	}
	offs[n] = run
	g.offs = offs
	g.arcs = make([]Arc, run)
	g.eids = make([]int32, run)
	if g.maxW > math.MaxUint32 {
		g.wide = make([]W, run)
	}
	cursor := make([]int64, n)
	copy(cursor, offs[:n])
	for i := range g.edges {
		e := &g.edges[i]
		aw := ArcWeight(e.W)
		cu := cursor[e.U]
		g.arcs[cu] = Arc{To: e.V, W: aw}
		g.eids[cu] = int32(i)
		cv := cursor[e.V]
		g.arcs[cv] = Arc{To: e.U, W: aw}
		g.eids[cv] = int32(i)
		if g.wide != nil {
			g.wide[cu] = e.W
			g.wide[cv] = e.W
		}
		cursor[e.U]++
		cursor[e.V]++
	}
	return g
}

// FromEdgesOrig is FromEdges plus an explicit contraction
// back-mapping: the returned graph reports orig[e] from OrigEdgeID(e).
// Snapshot decoding uses it to restore quotient graphs produced by
// Contract with their back-references intact. orig may be nil (no
// mapping) or must have one entry per edge.
func FromEdgesOrig(n int32, edges []Edge, weighted bool, orig []int32) *Graph {
	if orig != nil && len(orig) != len(edges) {
		panic(fmt.Sprintf("graph: orig mapping length %d, want %d", len(orig), len(edges)))
	}
	g := FromEdges(n, edges, weighted)
	if orig != nil {
		// Preserve empty-but-present mappings (a quotient graph with no
		// surviving edges still reports HasOrigEdgeIDs).
		g.origEID = make([]int32, len(orig))
		copy(g.origEID, orig)
	}
	return g
}

// Simplify removes self-loops and merges parallel edges keeping the
// minimum weight, which is the quotient-graph convention the paper
// uses ("merging parallel edges by keeping the shortest edge"). The
// returned list is sorted by (min endpoint, max endpoint).
func Simplify(edges []Edge) []Edge {
	out := make([]Edge, 0, len(edges))
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		if out[i].V != out[j].V {
			return out[i].V < out[j].V
		}
		return out[i].W < out[j].W
	})
	w := 0
	for i := range out {
		if w > 0 && out[i].U == out[w-1].U && out[i].V == out[w-1].V {
			continue // duplicate; the kept one has the smaller weight
		}
		out[w] = out[i]
		w++
	}
	return out[:w]
}

// Validate checks internal CSR consistency; tests use it to guard the
// builders and transformations. It returns nil for a well-formed graph.
func (g *Graph) Validate() error {
	n := g.n
	if int64(len(g.offs)) != int64(n)+1 {
		return fmt.Errorf("offs length %d, want %d", len(g.offs), n+1)
	}
	if g.offs[0] != 0 {
		return fmt.Errorf("offs[0] = %d", g.offs[0])
	}
	want := int64(2 * len(g.edges))
	if g.offs[n] != want {
		return fmt.Errorf("offs[n] = %d, want 2m = %d", g.offs[n], want)
	}
	if int64(len(g.arcs)) != want || int64(len(g.eids)) != want {
		return fmt.Errorf("CSR array lengths %d/%d, want %d", len(g.arcs), len(g.eids), want)
	}
	if wantWide := g.weighted && g.maxW > math.MaxUint32; wantWide != (g.wide != nil) ||
		(wantWide && int64(len(g.wide)) != want) {
		return fmt.Errorf("wide weight array length %d (maxW %d)", len(g.wide), g.maxW)
	}
	dirCount := make([]int32, len(g.edges))
	for v := V(0); v < n; v++ {
		if g.offs[v] > g.offs[v+1] {
			return fmt.Errorf("offs not monotone at %d", v)
		}
		arcs := g.Arcs(v)
		ids := g.AdjEdgeIDs(v)
		wide := g.Wide(v)
		for i, a := range arcs {
			u := a.To
			if u < 0 || u >= n {
				return fmt.Errorf("neighbor %d of %d out of range", u, v)
			}
			if u == v {
				return fmt.Errorf("self-loop in CSR at %d", v)
			}
			e := ids[i]
			if e < 0 || int(e) >= len(g.edges) {
				return fmt.Errorf("edge id %d out of range at vertex %d", e, v)
			}
			ed := g.edges[e]
			if !((ed.U == v && ed.V == u) || (ed.U == u && ed.V == v)) {
				return fmt.Errorf("edge id %d at vertex %d does not match edge list (%d,%d)", e, v, ed.U, ed.V)
			}
			if a.W != ArcWeight(ed.W) || (wide != nil && wide[i] != ed.W) {
				return fmt.Errorf("CSR weight %d != edge list weight %d for edge %d", a.W, ed.W, e)
			}
			dirCount[e]++
		}
	}
	for e, c := range dirCount {
		if c != 2 {
			return fmt.Errorf("edge %d appears in %d directions, want 2", e, c)
		}
	}
	for i := range g.edges {
		if g.weighted && g.edges[i].W <= 0 {
			return fmt.Errorf("edge %d has non-positive weight", i)
		}
	}
	return nil
}

// SubgraphFromEdgeIDs builds a graph on the same vertex set containing
// exactly the given canonical edge ids of g. Spanner evaluation uses
// it to turn an edge-id set into a traversable graph.
func (g *Graph) SubgraphFromEdgeIDs(eids []int32) *Graph {
	sub := make([]Edge, len(eids))
	for i, e := range eids {
		sub[i] = g.edges[e]
	}
	return FromEdges(g.n, sub, g.weighted)
}

// InducedSubgraph builds the subgraph induced on the given vertices.
// It returns the subgraph (with local ids 0..len(vs)-1 in the order of
// vs) and origOf mapping local ids back to g's ids. Vertices must be
// distinct.
func (g *Graph) InducedSubgraph(vs []V) (*Graph, []V) {
	local := make(map[V]V, len(vs))
	origOf := make([]V, len(vs))
	for i, v := range vs {
		if _, dup := local[v]; dup {
			panic(fmt.Sprintf("graph: duplicate vertex %d in InducedSubgraph", v))
		}
		local[v] = V(i)
		origOf[i] = v
	}
	var sub []Edge
	for i := range g.edges {
		e := g.edges[i]
		lu, ok1 := local[e.U]
		lv, ok2 := local[e.V]
		if ok1 && ok2 {
			sub = append(sub, Edge{U: lu, V: lv, W: e.W})
		}
	}
	return FromEdges(V(len(vs)), sub, g.weighted), origOf
}

// Contract builds the quotient graph G/label: vertices with the same
// label merge into one vertex; self-loops vanish; parallel edges merge
// keeping the minimum weight (and that minimum edge's id). label must
// map every vertex of g into [0, k). The result carries OrigEdgeID
// back-references into g, already composed with g's own back-mapping
// so that chains of contractions resolve to the outermost ancestor.
//
// The result is always "weighted" in type even if g is unweighted so
// that contraction chains preserve weights uniformly; for an
// unweighted g all weights are 1.
func (g *Graph) Contract(label []V, k int32) *Graph {
	edges, orig := ContractEdges(g.edges, label, k)
	for i, e := range orig {
		orig[i] = g.OrigEdgeID(e)
	}
	q := FromEdges(k, edges, true)
	q.origEID = orig
	return q
}

// ContractEdges is the quotient step of Contract on a bare edge list:
// it maps every edge (u, v) to (a, b) = (label[u], label[v]) with
// a < b, drops the edges that become self-loops, and keeps, for each
// distinct (a, b), the lightest edge, the lowest index on weight ties.
// The result is in ascending (a, b) order; src[i] is the index into
// edges of the edge kept as result edge i. label must map every
// endpoint of a surviving edge into [0, k).
//
// Two stable counting-sort passes over the labels, first by b and
// then by a, put the candidates in (a, b, index) order, so the work is
// O(len(edges) + k) and no comparison sort is needed.
func ContractEdges(edges []Edge, label []V, k int32) (out []Edge, src []int32) {
	type cand struct {
		a, b V
		i    int32
	}
	cands := make([]cand, 0, len(edges))
	cntA := make([]int32, k+1)
	cntB := make([]int32, k+1)
	for i := range edges {
		e := &edges[i]
		a, b := label[e.U], label[e.V]
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if a < 0 || b >= k {
			panic(fmt.Sprintf("graph: label out of range in Contract: %d/%d with k=%d", a, b, k))
		}
		cands = append(cands, cand{a: a, b: b, i: int32(i)})
		cntA[a+1]++
		cntB[b+1]++
	}
	for c := int32(1); c <= k; c++ {
		cntA[c] += cntA[c-1]
		cntB[c] += cntB[c-1]
	}
	byB := make([]cand, len(cands))
	for _, c := range cands {
		byB[cntB[c.b]] = c
		cntB[c.b]++
	}
	for _, c := range byB {
		cands[cntA[c.a]] = c
		cntA[c.a]++
	}

	out = make([]Edge, 0, len(cands))
	src = make([]int32, 0, len(cands))
	for lo := 0; lo < len(cands); {
		a, b := cands[lo].a, cands[lo].b
		best := cands[lo].i
		hi := lo + 1
		for ; hi < len(cands) && cands[hi].a == a && cands[hi].b == b; hi++ {
			// Indices ascend within the run, so only a strictly
			// lighter edge displaces the current choice.
			if edges[cands[hi].i].W < edges[best].W {
				best = cands[hi].i
			}
		}
		out = append(out, Edge{U: a, V: b, W: edges[best].W})
		src = append(src, best)
		lo = hi
	}
	return out, src
}

// ---------------------------------------------------------------------------
// Connected components.

// Components labels each vertex with a component id in [0, count) via
// sequential BFS. This is the exact reference implementation used to
// validate ComponentsParallel.
func (g *Graph) Components() (comp []V, count int32) {
	comp = make([]V, g.n)
	for i := range comp {
		comp[i] = NoVertex
	}
	var queue []V
	for s := V(0); s < g.n; s++ {
		if comp[s] != NoVertex {
			continue
		}
		comp[s] = count
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, a := range g.Arcs(v) {
				if u := a.To; comp[u] == NoVertex {
					comp[u] = count
					queue = append(queue, u)
				}
			}
		}
		count++
	}
	return comp, count
}

// ComponentsParallel labels components with a deterministic
// Shiloach–Vishkin style hook-and-compress algorithm: O(log n) rounds
// of hooking tree roots to smaller-labeled neighbors followed by
// pointer jumping. It substitutes for Gazit's randomized parallel
// connectivity used by the paper's Appendix B (same depth contract).
// Work and rounds are recorded in cost (which may be nil).
func (g *Graph) ComponentsParallel(cost *par.Cost) (comp []V, count int32) {
	n := int(g.n)
	p := make([]V, n)
	for i := range p {
		p[i] = V(i)
	}
	if n == 0 {
		return p, 0
	}
	for {
		changed := false
		// Hook phase: every edge tries to hang the larger root under
		// the smaller. Processing edges once per round keeps the
		// round structure of the PRAM algorithm.
		for i := range g.edges {
			u, v := g.edges[i].U, g.edges[i].V
			pu, pv := p[u], p[v]
			if pu == pv {
				continue
			}
			// Hook only roots (p[x] == x) to keep forests shallow.
			if pv < pu && p[pu] == pu {
				p[pu] = pv
				changed = true
			} else if pu < pv && p[pv] == pv {
				p[pv] = pu
				changed = true
			}
		}
		// Shortcut phase: halve every path.
		for i := range p {
			for p[i] != p[p[i]] {
				p[i] = p[p[i]]
			}
		}
		cost.Round(int64(len(g.edges) + n))
		cost.AddDepth(1) // the pointer-jumping sub-round
		if !changed {
			break
		}
	}
	// Relabel roots densely.
	comp = make([]V, n)
	for i := range comp {
		comp[i] = NoVertex
	}
	for i := range p {
		r := p[i]
		if comp[r] == NoVertex {
			comp[r] = count
			count++
		}
	}
	for i := range p {
		comp[i] = comp[p[i]]
	}
	cost.Round(int64(n))
	return comp, count
}
