// Package wscale implements the Appendix B preprocessing of the paper
// (Lemma 5.1): a hierarchical weight-class decomposition that reduces
// shortest-path queries on graphs with arbitrary positive weights to
// queries on instances whose weight ratio is polynomially bounded —
// the assumption Section 5's hopset construction needs.
//
// Edges are grouped into categories E_i = {e : B^i ≤ w(e)/minW <
// B^{i+1}} with B = n/ε. For every non-empty category level j, the
// decomposition records the connected components of the prefix graph
// (all edges in categories ≤ q(j)) and materializes a query instance
// that keeps categories q(j)−1, q(j), q(j)+1 and contracts the
// components formed by categories ≤ q(j)−2 to points: contracted
// edges are ≥ two category factors lighter than the level-q(j) edge
// every routed path contains, so a ≤ n-edge path loses at most an ε
// fraction, while categories ≥ q(j)+2 exceed any distance realizable
// at this level. Each instance's weight ratio is ≤ B³ = O((n/ε)³),
// the paper's polynomial bound.
//
// A query (s, t) routes to the lowest level at which s and t are
// connected — a predecessor search over the monotone component
// hierarchy, standing in for the paper's parallel-tree-contraction LCA
// (see DESIGN.md) — and the instance's distance is a
// (1−ε)-approximation of the true distance (Lemma 5.1).
package wscale

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/sssp"
)

// Decomposition is the preprocessed hierarchy for one graph.
type Decomposition struct {
	// Base is the decomposed graph.
	Base *graph.Graph
	// Eps is the approximation parameter ε.
	Eps float64
	// B is the category base n/ε.
	B float64
	// Cats holds, per non-empty category level j ascending, the
	// category index q(j).
	Cats []int
	// Levels[j] are the connected-component labels of the prefix
	// graph through category q(j); LevelCounts[j] the component count.
	Levels      [][]graph.V
	LevelCounts []int32
	// Instances[j] answers queries whose lowest connecting level is j.
	Instances []*Instance
}

// Instance is one polynomially-bounded-ratio query instance.
type Instance struct {
	// G is the quotient instance graph.
	G *graph.Graph
	// Label maps base-graph vertices to instance vertices.
	Label []graph.V
	// Level is the decomposition level this instance serves.
	Level int
}

// catOf returns the category index of weight w under base b and
// minimum weight minW: floor(log_b(w/minW)).
func catOf(w graph.W, minW graph.W, b float64) int {
	ratio := float64(w) / float64(minW)
	if ratio < b {
		return 0
	}
	c := int(math.Log(ratio) / math.Log(b))
	// Guard against float boundary error.
	for math.Pow(b, float64(c+1)) <= ratio {
		c++
	}
	for c > 0 && math.Pow(b, float64(c)) > ratio {
		c--
	}
	return c
}

// Build preprocesses g. eps must be in (0, 1). Work is
// O(#categories · m); the per-level connectivity uses the
// hook-and-compress parallel components routine, so the model depth is
// O(#categories · log n) (the paper's divide-and-conquer shaves that
// to O(log³ n); see DESIGN.md for the substitution note).
func Build(g *graph.Graph, eps float64, cost *par.Cost) *Decomposition {
	if eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("wscale: eps = %v, want (0,1)", eps))
	}
	n := g.NumVertices()
	b := float64(n) / eps
	if b < 2 {
		b = 2
	}
	d := &Decomposition{Base: g, Eps: eps, B: b}
	if n == 0 || g.NumEdges() == 0 {
		return d
	}
	minW := g.MinWeight()

	// Group edge ids by category.
	byCat := map[int][]int32{}
	for e := int32(0); int64(e) < g.NumEdges(); e++ {
		c := catOf(g.EdgeWeight(e), minW, b)
		byCat[c] = append(byCat[c], e)
	}
	for c := range byCat {
		d.Cats = append(d.Cats, c)
	}
	sort.Ints(d.Cats)

	// Prefix components per level.
	var prefix []int32
	for _, c := range d.Cats {
		prefix = append(prefix, byCat[c]...)
		pg := g.SubgraphFromEdgeIDs(prefix)
		comp, count := pg.ComponentsParallel(cost)
		d.Levels = append(d.Levels, comp)
		d.LevelCounts = append(d.LevelCounts, count)
	}

	// Query instances per level. A level-j query is answered on the
	// instance that keeps categories q(j)−1, q(j), q(j)+1 and
	// contracts everything in categories ≤ q(j)−2: the paper's error
	// analysis needs two category levels (factor (n/ε)²) between the
	// guaranteed level-q(j) path edge and the heaviest contracted
	// edge, so that an n-edge path loses at most an ε fraction.
	// Categories ≥ q(j)+2 exceed any distance realizable at level j.
	for j, c := range d.Cats {
		ids := append([]int32(nil), byCat[c]...)
		if prev, ok := byCat[c-1]; ok {
			ids = append(ids, prev...)
		}
		if next, ok := byCat[c+1]; ok {
			ids = append(ids, next...)
		}
		// Contraction state: the deepest recorded level whose
		// category is ≤ q(j)−2.
		contractLevel := -1
		for jj := j - 1; jj >= 0; jj-- {
			if d.Cats[jj] <= c-2 {
				contractLevel = jj
				break
			}
		}
		var label []graph.V
		var count int32
		if contractLevel < 0 {
			label = make([]graph.V, n)
			for i := range label {
				label[i] = graph.V(i)
			}
			count = n
		} else {
			label = d.Levels[contractLevel]
			count = d.LevelCounts[contractLevel]
		}
		sub := g.SubgraphFromEdgeIDs(ids)
		inst := sub.Contract(label, count)
		cost.AddWork(int64(len(ids)) + int64(n))
		cost.AddDepth(int64(math.Ceil(math.Log2(float64(n + 1)))))
		d.Instances = append(d.Instances, &Instance{G: inst, Label: label, Level: j})
	}
	return d
}

// LevelOf returns the lowest level at which s and t are connected, or
// -1 if they are disconnected in the whole graph. Component labels
// only merge as levels increase, so a binary search applies (this is
// the LCA query of the paper's decomposition tree).
func (d *Decomposition) LevelOf(s, t graph.V) int {
	k := len(d.Levels)
	if k == 0 || d.Levels[k-1][s] != d.Levels[k-1][t] {
		return -1
	}
	lo, hi := 0, k-1
	for lo < hi {
		mid := (lo + hi) / 2
		if d.Levels[mid][s] == d.Levels[mid][t] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// InstanceFor returns the query instance and mapped endpoints for an
// (s, t) query, or nil when s and t are disconnected.
func (d *Decomposition) InstanceFor(s, t graph.V) (*Instance, graph.V, graph.V) {
	j := d.LevelOf(s, t)
	if j < 0 {
		return nil, graph.NoVertex, graph.NoVertex
	}
	inst := d.Instances[j]
	return inst, inst.Label[s], inst.Label[t]
}

// Query returns a (1−ε)-approximate s-t distance by routing to the
// right instance and running an exact search there (Lemma 5.1). The
// result is ≤ the true distance and ≥ (1−ε) times it. Callers wanting
// the full parallel pipeline run the Section 5 hopset on the instance
// instead; tests use Query to validate the decomposition itself.
func (d *Decomposition) Query(s, t graph.V, cost *par.Cost) graph.Dist {
	if s == t {
		return 0
	}
	inst, is, it := d.InstanceFor(s, t)
	if inst == nil {
		return graph.InfDist
	}
	if is == it {
		// Unreachable for a correctly-routed query (the LCA level
		// guarantees s and t are separated two categories down), but
		// kept as a safe degenerate answer.
		return 0
	}
	return sssp.DijkstraTo(inst.G, is, it, sssp.Options{Cost: cost})
}

// MaxInstanceRatio returns the largest weight ratio over all
// instances — the quantity Lemma 5.1 bounds by O((n/ε)³).
func (d *Decomposition) MaxInstanceRatio() float64 {
	worst := 1.0
	for _, inst := range d.Instances {
		if inst.G.NumEdges() == 0 {
			continue
		}
		if r := inst.G.WeightRatio(); r > worst {
			worst = r
		}
	}
	return worst
}

// TotalInstanceEdges returns the summed instance sizes; each base
// edge appears in at most three instances (its own category and the
// neighboring ones), so this is ≤ 3m.
func (d *Decomposition) TotalInstanceEdges() int64 {
	var total int64
	for _, inst := range d.Instances {
		total += inst.G.NumEdges()
	}
	return total
}
