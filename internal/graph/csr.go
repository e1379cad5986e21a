package graph

// CSR export/import for the flat oracle arena (internal/flat): a built
// graph's internal arrays can be handed out for zero-copy
// serialization and adopted back without re-running the FromEdges CSR
// construction. This is what turns a snapshot load into "point slices
// at mapped memory" instead of "rebuild every adjacency structure".

// CSRView is a zero-copy view of a graph's internal arrays plus the
// scalar metadata needed to reconstruct it. The slices alias the
// graph's own storage — callers must treat them as read-only.
type CSRView struct {
	N        int32
	Weighted bool
	// MinW/MaxW are the cached weight extrema (1/1 for unweighted or
	// edgeless graphs, matching FromEdges).
	MinW, MaxW W
	// Edges is the canonical undirected edge list (len m). For
	// unweighted graphs the W fields are the materialized 1s.
	Edges []Edge
	// Offs/Arcs/Eids are the CSR arrays (len n+1 / 2m / 2m); Wide is
	// the full weight per arc (len 2m) when MaxW exceeds
	// math.MaxUint32, nil otherwise.
	Offs []int64
	Arcs []Arc
	Wide []W
	Eids []int32
	// OrigEID is the contraction back-map (len m), nil when absent.
	OrigEID []int32
}

// CSRView exports g's internal arrays without copying.
func (g *Graph) CSRView() CSRView {
	return CSRView{
		N:        g.n,
		Weighted: g.weighted,
		MinW:     g.minW,
		MaxW:     g.maxW,
		Edges:    g.edges,
		Offs:     g.offs,
		Arcs:     g.arcs,
		Wide:     g.wide,
		Eids:     g.eids,
		OrigEID:  g.origEID,
	}
}

// FromCSRView adopts the view's slices as a graph without copying or
// validating them. The caller owns correctness: the view must describe
// a graph FromEdges would have produced (internal/flat validates every
// array against the CSR invariants before calling this). The adopted
// slices may alias read-only memory (an mmap'd snapshot arena); the
// graph never mutates them after construction.
func FromCSRView(v CSRView) *Graph {
	return &Graph{
		n:        v.N,
		weighted: v.Weighted,
		minW:     v.MinW,
		maxW:     v.MaxW,
		edges:    v.Edges,
		offs:     v.Offs,
		arcs:     v.Arcs,
		wide:     v.Wide,
		eids:     v.Eids,
		origEID:  v.OrigEID,
	}
}
