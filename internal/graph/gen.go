package graph

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// This file contains the synthetic workload generators. The paper
// proves worst-case / with-high-probability bounds that hold for every
// input, so the reproduction sweeps structurally different families:
//
//   - RandomGNM: Erdős–Rényi G(n,m); low diameter, uniform degrees.
//   - RMAT: skewed power-law-ish degrees (social-network stand-in).
//   - Grid2D / Torus2D: high diameter, constant degree (road stand-in).
//   - Hypercube: logarithmic diameter, log-degree.
//   - Path / Cycle / Star / Complete: extreme cases for tests.
//   - PreferentialAttachment: heavy-tailed degrees, guaranteed connected.
//
// All generators are deterministic given their seed. Weighted variants
// are produced by attaching weights with UniformWeights or
// ExponentialWeights (multi-scale, exercises the Appendix B machinery).

// RandomGNM returns an Erdős–Rényi style multigraph-free G(n, m): m
// distinct uniformly random edges (no self-loops, no parallels). For
// m close to the maximum possible this degrades gracefully by
// rejection sampling. Panics if m exceeds n*(n-1)/2.
func RandomGNM(n int32, m int64, seed uint64) *Graph {
	maxM := int64(n) * int64(n-1) / 2
	if m > maxM {
		panic(fmt.Sprintf("graph: RandomGNM m=%d exceeds max %d for n=%d", m, maxM, n))
	}
	r := rng.New(seed)
	seen := make(map[uint64]struct{}, m)
	edges := make([]Edge, 0, m)
	for int64(len(edges)) < m {
		u := r.Int31n(n)
		v := r.Int31n(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := uint64(u)<<32 | uint64(uint32(v))
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		edges = append(edges, Edge{U: u, V: v, W: 1})
	}
	return FromEdges(n, edges, false)
}

// RandomConnectedGNM returns a connected G(n, m)-style graph: a random
// spanning tree (uniform attachment) plus m-(n-1) extra random edges.
// It panics if m < n-1. Most experiments use this so that every s-t
// query has a finite answer.
func RandomConnectedGNM(n int32, m int64, seed uint64) *Graph {
	if int64(n)-1 > m {
		panic(fmt.Sprintf("graph: RandomConnectedGNM needs m >= n-1 (n=%d, m=%d)", n, m))
	}
	maxM := int64(n) * int64(n-1) / 2
	if m > maxM {
		panic(fmt.Sprintf("graph: RandomConnectedGNM m=%d exceeds max %d", m, maxM))
	}
	r := rng.New(seed)
	seen := make(map[uint64]struct{}, m)
	edges := make([]Edge, 0, m)
	add := func(u, v V) bool {
		if u == v {
			return false
		}
		if u > v {
			u, v = v, u
		}
		key := uint64(u)<<32 | uint64(uint32(v))
		if _, dup := seen[key]; dup {
			return false
		}
		seen[key] = struct{}{}
		edges = append(edges, Edge{U: u, V: v, W: 1})
		return true
	}
	// Random recursive tree: vertex i attaches to a uniform earlier
	// vertex. Randomize ids with a permutation so vertex 0 is not
	// special.
	perm := r.Perm(int(n))
	for i := int32(1); i < n; i++ {
		j := r.Int31n(i)
		add(perm[i], perm[j])
	}
	for int64(len(edges)) < m {
		add(r.Int31n(n), r.Int31n(n))
	}
	return FromEdges(n, edges, false)
}

// RMAT returns a recursive-matrix random graph with 2^scale vertices
// and (approximately) m distinct edges, with partition probabilities
// (a, b, c, d=1-a-b-c). The classic parameters a=0.57, b=c=0.19 give a
// skewed, power-law-like degree distribution. Self-loops and parallel
// edges are rejected, so extremely dense requests may fall slightly
// short; the actual edge count is len(Edges()).
func RMAT(scale int, m int64, a, b, c float64, seed uint64) *Graph {
	if scale < 1 || scale > 30 {
		panic("graph: RMAT scale out of range [1,30]")
	}
	if a <= 0 || b < 0 || c < 0 || a+b+c >= 1 {
		panic("graph: RMAT probabilities invalid")
	}
	n := int32(1) << scale
	r := rng.New(seed)
	seen := make(map[uint64]struct{}, m)
	edges := make([]Edge, 0, m)
	attempts := int64(0)
	maxAttempts := m * 64
	for int64(len(edges)) < m && attempts < maxAttempts {
		attempts++
		var u, v int32
		for bit := scale - 1; bit >= 0; bit-- {
			p := r.Float64()
			switch {
			case p < a:
				// top-left: no bits set
			case p < a+b:
				v |= 1 << bit
			case p < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u == v {
			u, v = 0, 0
			continue
		}
		uu, vv := u, v
		if uu > vv {
			uu, vv = vv, uu
		}
		key := uint64(uu)<<32 | uint64(uint32(vv))
		if _, dup := seen[key]; dup {
			u, v = 0, 0
			continue
		}
		seen[key] = struct{}{}
		edges = append(edges, Edge{U: uu, V: vv, W: 1})
		u, v = 0, 0
	}
	return FromEdges(n, edges, false)
}

// Grid2D returns the rows x cols grid graph (4-neighborhood). Vertex
// (r, c) has id r*cols + c. Diameter is rows+cols-2: the high-diameter
// regime where hopsets matter most.
func Grid2D(rows, cols int32) *Graph {
	n := rows * cols
	edges := make([]Edge, 0, int64(2*rows)*int64(cols))
	id := func(r, c int32) V { return r*cols + c }
	for r := int32(0); r < rows; r++ {
		for c := int32(0); c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, Edge{U: id(r, c), V: id(r, c+1), W: 1})
			}
			if r+1 < rows {
				edges = append(edges, Edge{U: id(r, c), V: id(r+1, c), W: 1})
			}
		}
	}
	return FromEdges(n, edges, false)
}

// Torus2D returns the rows x cols grid with wraparound edges.
// rows and cols must be at least 3 so no wrap edge is a parallel or
// self edge.
func Torus2D(rows, cols int32) *Graph {
	if rows < 3 || cols < 3 {
		panic("graph: Torus2D needs rows, cols >= 3")
	}
	n := rows * cols
	edges := make([]Edge, 0, 2*int64(n))
	id := func(r, c int32) V { return (r%rows)*cols + (c % cols) }
	for r := int32(0); r < rows; r++ {
		for c := int32(0); c < cols; c++ {
			edges = append(edges, Edge{U: id(r, c), V: id(r, c+1), W: 1})
			edges = append(edges, Edge{U: id(r, c), V: id(r+1, c), W: 1})
		}
	}
	return FromEdges(n, edges, false)
}

// Path returns the path graph on n vertices: the maximum-diameter
// extreme case.
func Path(n int32) *Graph {
	edges := make([]Edge, 0, n-1)
	for i := int32(0); i+1 < n; i++ {
		edges = append(edges, Edge{U: i, V: i + 1, W: 1})
	}
	return FromEdges(n, edges, false)
}

// Cycle returns the cycle graph on n >= 3 vertices.
func Cycle(n int32) *Graph {
	if n < 3 {
		panic("graph: Cycle needs n >= 3")
	}
	edges := make([]Edge, 0, n)
	for i := int32(0); i < n; i++ {
		edges = append(edges, Edge{U: i, V: (i + 1) % n, W: 1})
	}
	return FromEdges(n, edges, false)
}

// Star returns the star graph: vertex 0 adjacent to all others.
func Star(n int32) *Graph {
	edges := make([]Edge, 0, n-1)
	for i := int32(1); i < n; i++ {
		edges = append(edges, Edge{U: 0, V: i, W: 1})
	}
	return FromEdges(n, edges, false)
}

// Complete returns K_n. Quadratic size: test-scale only.
func Complete(n int32) *Graph {
	edges := make([]Edge, 0, int64(n)*int64(n-1)/2)
	for i := int32(0); i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, Edge{U: i, V: j, W: 1})
		}
	}
	return FromEdges(n, edges, false)
}

// Hypercube returns the d-dimensional hypercube (n = 2^d vertices,
// diameter d).
func Hypercube(d int) *Graph {
	if d < 1 || d > 24 {
		panic("graph: Hypercube dimension out of range [1,24]")
	}
	n := int32(1) << d
	edges := make([]Edge, 0, int64(n)*int64(d)/2)
	for v := int32(0); v < n; v++ {
		for b := 0; b < d; b++ {
			u := v ^ (1 << b)
			if v < u {
				edges = append(edges, Edge{U: v, V: u, W: 1})
			}
		}
	}
	return FromEdges(n, edges, false)
}

// PreferentialAttachment returns a Barabási–Albert style graph: each
// new vertex attaches deg edges to existing vertices chosen
// proportionally to degree. Connected by construction; heavy-tailed
// degree distribution.
func PreferentialAttachment(n int32, deg int, seed uint64) *Graph {
	if deg < 1 {
		panic("graph: PreferentialAttachment needs deg >= 1")
	}
	if int64(n) < int64(deg)+1 {
		panic("graph: PreferentialAttachment needs n > deg")
	}
	r := rng.New(seed)
	// targets holds one entry per edge endpoint, so sampling a uniform
	// element of it is degree-proportional sampling.
	targets := make([]V, 0, 2*int64(n)*int64(deg))
	edges := make([]Edge, 0, int64(n)*int64(deg))
	// Seed clique on deg+1 vertices.
	for i := int32(0); i <= int32(deg); i++ {
		for j := i + 1; j <= int32(deg); j++ {
			edges = append(edges, Edge{U: i, V: j, W: 1})
			targets = append(targets, i, j)
		}
	}
	for v := int32(deg) + 1; v < n; v++ {
		chosen := make(map[V]struct{}, deg)
		for len(chosen) < deg {
			u := targets[r.Intn(len(targets))]
			if u == v {
				continue
			}
			chosen[u] = struct{}{}
		}
		for u := range chosen {
			edges = append(edges, Edge{U: v, V: u, W: 1})
			targets = append(targets, v, u)
		}
	}
	return FromEdges(n, edges, false)
}

// UniformWeights returns a weighted copy of g with i.i.d. uniform
// integer weights in [1, maxW].
func UniformWeights(g *Graph, maxW W, seed uint64) *Graph {
	if maxW < 1 {
		panic("graph: UniformWeights needs maxW >= 1")
	}
	r := rng.New(seed)
	edges := make([]Edge, len(g.edges))
	copy(edges, g.edges)
	for i := range edges {
		edges[i].W = 1 + r.Int63n(maxW)
	}
	return FromEdges(g.n, edges, true)
}

// ExponentialWeights returns a weighted copy of g whose weights span
// many scales: w = ⌊base^(U*scales)⌋ for uniform U in [0,1), clamped to
// [1, WeightCap(n)]. This produces the large weight-ratio instances
// that exercise the bucketing machinery (weighted spanner groups,
// Appendix B decomposition).
func ExponentialWeights(g *Graph, base float64, scales float64, seed uint64) *Graph {
	if base <= 1 || scales <= 0 {
		panic("graph: ExponentialWeights needs base > 1 and scales > 0")
	}
	r := rng.New(seed)
	maxW := WeightCap(g.n)
	edges := make([]Edge, len(g.edges))
	copy(edges, g.edges)
	for i := range edges {
		u := r.Float64()
		w := W(math.Min(math.Pow(base, u*scales), float64(maxW)))
		edges[i].W = max(min(w, maxW), 1)
	}
	return FromEdges(g.n, edges, true)
}
