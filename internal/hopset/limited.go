package hopset

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/rng"
)

// Limited implements the Appendix C scheme for pushing the query depth
// to Õ(n^α) for arbitrary α > 0 (Theorem C.2): instead of shortcutting
// paths of up to n hops in one shot, run 1/η rounds (η = α/2) where
// each round shortcuts n^{2η}-hop paths down to n^η hops (Lemma C.1)
// and feeds its hopset edges back into the working graph, so the next
// round composes over the shortened paths.
//
// Per Lemma C.1 each round uses δ = 2/η, n_final = n^{η/2}, and
// β_0 = ε/n^{3η} after rounding to granularity ŵ = d·n^{-2η}, for all
// band estimates d; our rounds reuse BuildScaled with exactly those
// parameters.
//
// The returned Result accumulates the edges added across all rounds
// (all with true path weights, so the metric is preserved).
func Limited(g *graph.Graph, alpha float64, eps float64, seed uint64, cost *par.Cost) *Result {
	if alpha <= 0 || alpha >= 2 {
		panic(fmt.Sprintf("hopset: Limited alpha = %v, want (0,2)", alpha))
	}
	if eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("hopset: Limited eps = %v, want (0,1)", eps))
	}
	n := int(g.NumVertices())
	res := &Result{}
	if n < 2 || g.NumEdges() == 0 {
		return res
	}
	eta := alpha / 2
	rounds := int(math.Ceil(1 / eta))
	if rounds < 1 {
		rounds = 1
	}
	if rounds > 8 {
		rounds = 8 // diminishing returns; keeps laptop runs bounded
	}
	r := rng.New(seed)

	// Per-round parameters following Lemma C.1 (clamped to the Params
	// validity domain for small instances). Lemma C.1's δ = 2/η
	// presumes ρ = (K ε^{-1} log n)^δ stays polylogarithmic; at small
	// n a large δ would push the large-cluster threshold |V|/ρ below
	// one vertex and the clique step would degenerate to all-pairs,
	// so δ is clamped — the iteration count, not δ, carries the
	// Appendix C depth argument at this scale.
	delta := 2 / eta
	if delta <= 1 {
		delta = 1.5
	}
	if delta > 3 {
		delta = 3
	}
	gamma1 := eta / 2
	gamma2 := 3 * eta
	if gamma2 >= 1 {
		gamma2 = 0.9
	}
	if gamma1 >= gamma2 {
		gamma1 = gamma2 / 2
	}
	perRoundEps := eps / float64(rounds)
	if perRoundEps <= 0.01 {
		perRoundEps = 0.01
	}

	cur := g
	for round := 0; round < rounds; round++ {
		wp := WeightedParams{
			Params: Params{
				Epsilon:  perRoundEps,
				Delta:    delta,
				Gamma1:   gamma1,
				Gamma2:   gamma2,
				K:        2,
				MinFinal: 8,
				Seed:     r.Uint64(),
			},
			Eta:  eta,
			Zeta: perRoundEps,
		}
		roundCost := par.NewCost()
		s := BuildScaled(cur, wp, roundCost)
		cost.AddSequential(roundCost)
		added := s.Edges()
		if len(added) == 0 {
			break
		}
		res.Edges = append(res.Edges, added...)
		res.Levels++
		// Feed the shortcuts back: the next round shortcuts paths in
		// the augmented graph.
		cur = cur.Augment(added)
	}
	return res
}
