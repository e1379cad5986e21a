// Package sparsify implements the spectral sparsification algorithm
// of Koutis (SPAA 2014), which Section 2.2 of the paper names as a
// direct application of its spanner routine: "Such routines are also
// directly applicable to the graph sparsification algorithm by
// Koutis".
//
// Koutis' algorithm is a simple iteration. In each round, compute a
// t-bundle spanner of the current graph — the union of t spanners,
// each built on the graph with the previous spanners' edges removed —
// and move its edges to the output. Every remaining edge is kept for
// the next round with probability 1/2 at doubled weight (preserving
// the Laplacian in expectation) or discarded. After O(log n) rounds
// the remainder is empty and the output is a spectral sparsifier with
// O(t·n^{1+1/k}·log n) edges; larger bundles give better spectral
// approximation.
//
// This package exists to demonstrate the application: the spanner
// subroutine is exactly internal/spanner's EST construction, so each
// round is O(m) work and O(k log* n ·t) depth.
package sparsify

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/spanner"
)

// Options configures Spectral.
type Options struct {
	// K is the spanner stretch parameter (spanner size ~n^{1+1/k}).
	K int
	// BundleSize is t, the number of disjoint spanners per round.
	BundleSize int
	// MaxRounds bounds the sampling rounds (the remainder halves per
	// round in expectation, so ~log2(m) rounds suffice).
	MaxRounds int
	// Seed drives spanner randomness and edge sampling.
	Seed uint64
	// Cost accumulates work/depth (may be nil).
	Cost *par.Cost
}

// Result is a sparsifier: a reweighted edge list over g's vertices.
type Result struct {
	// Edges is the sparsifier (weights are rescaled; they no longer
	// match g's).
	Edges []graph.Edge
	// Rounds is the number of sampling rounds performed.
	Rounds int
	// BundleEdges counts edges contributed by spanner bundles.
	BundleEdges int
}

// Graph materializes the sparsifier.
func (r *Result) Graph(n graph.V) *graph.Graph {
	return graph.FromEdges(n, r.Edges, true)
}

// Spectral runs Koutis' sparsification on g.
func Spectral(g *graph.Graph, opt Options) *Result {
	if opt.K < 1 {
		panic(fmt.Sprintf("sparsify: K = %d", opt.K))
	}
	if opt.BundleSize < 1 {
		opt.BundleSize = 1
	}
	if opt.MaxRounds < 1 {
		opt.MaxRounds = 1
	}
	r := rng.New(opt.Seed)
	res := &Result{}

	// Working edge list with evolving weights.
	cur := make([]graph.Edge, 0, g.NumEdges())
	for _, e := range g.Edges() {
		w := e.W
		if !g.Weighted() {
			w = 1
		}
		cur = append(cur, graph.Edge{U: e.U, V: e.V, W: w})
	}

	for round := 0; round < opt.MaxRounds && len(cur) > 0; round++ {
		res.Rounds++
		work := graph.FromEdges(g.NumVertices(), cur, true)

		// t-bundle: t spanners on successively peeled graphs. The
		// spanners of a bundle are edge-disjoint by construction.
		inBundle := make([]bool, len(cur))
		peel := work
		peelIDs := make([]int32, len(cur)) // peel edge id -> cur index
		for i := range peelIDs {
			peelIDs[i] = int32(i)
		}
		for b := 0; b < opt.BundleSize && peel.NumEdges() > 0; b++ {
			sp := spanner.Weighted(peel, opt.K, r.Uint64(), spanner.Options{Cost: opt.Cost})
			if sp.Size() == 0 {
				break
			}
			spSet := make(map[int32]bool, sp.Size())
			for _, e := range sp.EdgeIDs {
				spSet[e] = true
				inBundle[peelIDs[e]] = true
			}
			// Peel the spanner off for the next bundle layer.
			var restEdges []graph.Edge
			var restIDs []int32
			for e := int32(0); int64(e) < peel.NumEdges(); e++ {
				if spSet[e] {
					continue
				}
				restEdges = append(restEdges, peel.Edges()[e])
				restIDs = append(restIDs, peelIDs[e])
			}
			peel = graph.FromEdges(g.NumVertices(), restEdges, true)
			peelIDs = restIDs
		}

		// Bundle edges graduate to the output; the rest are sampled.
		var next []graph.Edge
		for i, e := range cur {
			if inBundle[i] {
				res.Edges = append(res.Edges, e)
				res.BundleEdges++
				continue
			}
			if r.Bernoulli(0.5) {
				next = append(next, graph.Edge{U: e.U, V: e.V, W: 2 * e.W})
			}
		}
		opt.Cost.Round(int64(len(cur)))
		cur = next
	}
	// Whatever survives the final round joins the output.
	res.Edges = append(res.Edges, cur...)
	return res
}

// QuadraticForm evaluates x^T L x = Σ_e w(e)·(x_u − x_v)² for the
// Laplacian of the given edge list — the quantity a spectral
// sparsifier preserves.
func QuadraticForm(edges []graph.Edge, x []float64) float64 {
	var s float64
	for _, e := range edges {
		d := x[e.U] - x[e.V]
		s += float64(e.W) * d * d
	}
	return s
}
