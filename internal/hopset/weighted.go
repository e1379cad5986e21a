package hopset

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/rng"
)

// WeightedParams extends Params with the Section 5 knobs: distance
// estimates are tried in powers of n^Eta, and edge weights are rounded
// to multiples of ŵ = Zeta·d/n before racing (Lemma 5.2 keeps the
// distortion ≤ Zeta per band).
type WeightedParams struct {
	Params
	// Eta is the band granularity η: a band covers distances
	// [d, d·n^Eta).
	Eta float64
	// Zeta is the rounding distortion ζ ∈ (0, 1).
	Zeta float64
	// Escalation is the query hop-budget growth factor per round
	// (default 8). Small factors probe tightly but pay more rounds;
	// large factors overshoot the rounding granularity. The ablation
	// experiment sweeps this.
	Escalation float64
	// InitialHopBudget is the query's first hop budget (default 16).
	// Setting it to the Lemma 4.2 bound disables the adaptive
	// small-start; the ablation shows that costs orders of magnitude
	// of query depth because a huge budget forces fine rounding.
	InitialHopBudget float64
}

// DefaultWeightedParams mirrors DefaultParams with the concrete
// example constants of Corollary 5.4 scaled to laptop instances.
func DefaultWeightedParams(seed uint64) WeightedParams {
	return WeightedParams{
		Params: DefaultParams(seed),
		Eta:    0.15,
		Zeta:   0.25,
	}
}

func (wp WeightedParams) normalized() WeightedParams {
	wp.Params = wp.Params.normalized()
	if wp.Eta <= 0 || wp.Eta > 1 {
		panic(fmt.Sprintf("hopset: Eta = %v, want (0,1]", wp.Eta))
	}
	if wp.Zeta <= 0 || wp.Zeta >= 1 {
		panic(fmt.Sprintf("hopset: Zeta = %v, want (0,1)", wp.Zeta))
	}
	if wp.Escalation < 2 {
		wp.Escalation = 8
	}
	if wp.InitialHopBudget < 1 {
		wp.InitialHopBudget = 16
	}
	return wp
}

// Scale is one distance band of the Section 5 construction.
type Scale struct {
	// D is the top of the band: the band is responsible for s-t pairs
	// with dist(s,t) ∈ [D/n^Eta, D].
	D float64
	// WHat is the rounding granularity used when building this band's
	// hopset (1 = no rounding).
	WHat graph.W
	// Res is the hopset built on the rounded graph; its edges carry
	// true (unrounded) path weights.
	Res *Result
}

// Scaled is a queryable multi-scale hopset (the full Section 5
// object): per-band hopsets plus the machinery to answer approximate
// s-t distance queries with hop/level-limited searches.
type Scaled struct {
	// Base is the graph the hopset was built for.
	Base *graph.Graph
	// Scales are the distance bands, ascending by D.
	Scales []Scale
	// Params echoes the construction parameters.
	Params WeightedParams

	mu   sync.Mutex
	plan *queryPlan // built on first use
}

// queryPlan is what every query reads and no query changes.
type queryPlan struct {
	aug   *graph.Graph // Base ∪ all hopset edges
	step  float64      // n^Eta, at least 2: band D's floor is D/step
	hbMax []float64    // per-band hop-budget ceilings
	hbTop float64      // the largest ceiling, at least 16
}

// NewScaled assembles a queryable Scaled from already-built parts —
// the snapshot reader's entry point. The caller guarantees the scales
// were produced by BuildScaled over base with wp (the reader verifies
// structural invariants; semantic fidelity is the writer's job).
// The query plan (augmented graph included) starts cold and is
// rebuilt lazily, exactly as after a fresh build.
func NewScaled(base *graph.Graph, scales []Scale, wp WeightedParams) *Scaled {
	return &Scaled{Base: base, Scales: scales, Params: wp}
}

// Results returns the distinct band hopsets in band order and, for
// each band, its index into them. BuildScaled makes a band whose
// rounding collapses to ŵ = 1 over the previous band's edges reuse
// that band's Result; this is the one place that sharing is found
// again.
func (s *Scaled) Results() (results []*Result, index []uint32) {
	index = make([]uint32, len(s.Scales))
	for i := range s.Scales {
		res := s.Scales[i].Res
		k := slices.Index(results, res)
		if k < 0 {
			k = len(results)
			results = append(results, res)
		}
		index[i] = uint32(k)
	}
	return results, index
}

// Edges returns the union of all bands' hopset edges, a shared band's
// hopset once.
func (s *Scaled) Edges() []graph.Edge {
	results, _ := s.Results()
	var out []graph.Edge
	for _, res := range results {
		out = append(out, res.Edges...)
	}
	return out
}

// Size returns the total hopset size over the distinct band hopsets.
func (s *Scaled) Size() int {
	results, _ := s.Results()
	total := 0
	for _, res := range results {
		total += res.Size()
	}
	return total
}

// BuildScaled constructs the Section 5 multi-scale hopset. For every
// distance band d = n^{Eta·j} it rounds weights to multiples of
// ŵ = Zeta·d/n (Lemma 5.2 with k = n, c = n^Eta) and runs Algorithm 4
// on the rounded graph with weighted clustering and weighted searches.
// Bands whose rounding granularity collapses to ŵ = 1 share a single
// build (they would race identical graphs).
//
// On an unweighted graph this degenerates to the single Theorem 4.4
// construction plus the band bookkeeping used by queries
// (Corollary 4.5).
func BuildScaled(g *graph.Graph, wp WeightedParams, cost *par.Cost) *Scaled {
	wp = wp.normalized()
	n := int(g.NumVertices())
	s := &Scaled{Base: g, Params: wp}
	if n == 0 || g.NumEdges() == 0 {
		return s
	}
	nf := float64(n)
	minW := float64(g.MinWeight())
	maxDist := nf * float64(g.MaxWeight()) // upper bound on any finite distance
	step := math.Pow(nf, wp.Eta)
	if step < 2 {
		step = 2
	}

	// Enumerate bands: D values step× apart covering [minW, maxDist].
	// Bands wholly below the lightest edge can contain no distance
	// and are skipped — with the Appendix B preprocessing this is
	// what keeps the band count O(1/η) even when absolute weights are
	// astronomically large.
	var ds []float64
	for d := step; ; d *= step {
		if d >= minW {
			ds = append(ds, d)
		}
		if d >= maxDist {
			break
		}
	}
	r := rng.New(wp.Seed)
	type job struct {
		d      float64
		wHat   graph.W
		edges  int // number of band-relevant edges (dedupe key)
		seed   uint64
		reuse  bool
		filter []graph.Edge
	}
	// Band-relevant edges: an edge heavier than ~2·D cannot lie on a
	// path this band is responsible for (weight ≤ (1+distortion)·D),
	// so it is dropped before rounding. This caps the rounded weight
	// range at O(n·step/ζ) regardless of the absolute weight scale.
	relevant := func(d float64) []graph.Edge {
		capW := 2 * d
		var out []graph.Edge
		for _, e := range g.Edges() {
			w := e.W
			if !g.Weighted() {
				w = 1
			}
			if float64(w) <= capW {
				out = append(out, graph.Edge{U: e.U, V: e.V, W: w})
			}
		}
		return out
	}
	jobs := make([]job, 0, len(ds))
	for _, d := range ds {
		wHat := graph.W(math.Floor(wp.Zeta * d / nf))
		if wHat < 1 {
			wHat = 1
		}
		filter := relevant(d)
		jb := job{d: d, wHat: wHat, edges: len(filter), seed: r.Uint64(), filter: filter}
		if len(jobs) > 0 {
			prev := jobs[len(jobs)-1]
			if prev.wHat == 1 && wHat == 1 && prev.edges == len(filter) {
				// Identical rounded graph as the previous band: reuse
				// its hopset.
				jb.reuse = true
				jb.filter = nil
			}
		}
		jobs = append(jobs, jb)
	}

	// The bands are independent: they run side by side in the model.
	ec := wp.Exec
	costs := make([]*par.Cost, len(jobs))
	scales := make([]Scale, len(jobs))
	for i, jb := range jobs {
		if ec.Canceled() {
			// Abandon the remaining bands; the partial Scaled is
			// invalid and must be discarded by the Ctx owner.
			break
		}
		if jb.reuse {
			continue // resolved after the parallel phase
		}
		costs[i] = par.NewCost()
		gTrue := g.Derive(jb.filter)
		gWork := roundGraph(gTrue, jb.wHat)
		p := wp.Params
		p.Seed = jb.seed
		res := buildOn(gWork, gTrue, p, costs[i])
		scales[i] = Scale{D: jb.d, WHat: jb.wHat, Res: res}
	}
	cost.JoinMax(costs...)
	for i, jb := range jobs {
		if jb.reuse && scales[i-1].Res != nil {
			scales[i] = Scale{D: jb.d, WHat: 1, Res: scales[i-1].Res}
		}
	}
	s.Scales = scales
	return s
}

// roundGraph returns a copy of g with weights ⌈w/wHat⌉ (Lemma 5.2's
// rounding), preserving the canonical edge order so edge ids align.
func roundGraph(g *graph.Graph, wHat graph.W) *graph.Graph {
	if wHat <= 1 {
		if g.Weighted() {
			return g
		}
		// Promote an unweighted graph to an explicit unit-weight
		// graph so that augmented searches handle it uniformly.
		return g.Derive(g.Edges())
	}
	edges := make([]graph.Edge, len(g.Edges()))
	copy(edges, g.Edges())
	for i := range edges {
		w := edges[i].W
		edges[i].W = (w + wHat - 1) / wHat
	}
	return g.Derive(edges)
}

// Augmented returns (and caches) Base ∪ the distinct band hopsets'
// edges, with true weights. Because hopset edges are real path
// weights, the augmented graph has exactly the same shortest-path
// metric as Base.
func (s *Scaled) Augmented() *graph.Graph { return s.queryPlan().aug }

// queryPlan returns (and caches) the query plan: the augmented graph,
// and each band's hop-budget ceiling — Lemma 4.2's bound in
// build-rounded units, with the paper's 4x Markov slack, clamped to
// [16, n].
func (s *Scaled) queryPlan() *queryPlan {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.plan != nil {
		return s.plan
	}
	n := int(s.Base.NumVertices())
	p := &queryPlan{step: max(math.Pow(float64(n), s.Params.Eta), 2),
		hbMax: make([]float64, len(s.Scales)), hbTop: 16}
	for i, sc := range s.Scales {
		hb := min(max(4*s.Params.ExpectedHops(n, 2*sc.D/float64(sc.WHat)), 16), float64(n))
		p.hbMax[i] = hb
		if hb > p.hbTop {
			p.hbTop = hb
		}
	}
	p.aug = s.Base.Augment(s.Edges())
	s.plan = p
	return p
}
