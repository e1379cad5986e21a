package hopset

import (
	"math"
	"math/bits"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/sssp"
)

// QueryResult reports an approximate s-t distance query answered
// through the hopset (the Klein–Subramanian query stage the paper
// composes with in Theorems 1.2 / 5.3).
type QueryResult struct {
	// Dist is the returned estimate; always ≥ the true distance
	// (rounding only rounds up, and hopset edges are real paths), and
	// ≤ (1+ζ)·(1+construction distortion)·true once the sweep hits
	// the right band.
	Dist graph.Dist
	// Scale is the index of the band that answered, or -1 when the
	// exact fallback answered.
	Scale int
	// Fallback reports whether the deterministic Dijkstra fallback
	// was used (level budgets exhausted on every band).
	Fallback bool
	// Levels is the total number of synchronous search levels
	// consumed across all attempted searches — the query depth.
	Levels int64
	// Work is the total relaxation work across attempted searches.
	Work int64
}

// Query answers an approximate s-t distance query following Section 5.
// The paper races the O(1/η) distance-band estimates in parallel ("we
// can just try ... O(3/η) estimates, incurring a factor of O(3/η) in
// the work"): in every round, each band runs a level-capped weighted
// parallel BFS over the augmented graph with every weight rounded up
// to a multiple of a granularity ŵ ≤ ζ·d/h (Lemma 5.2, with d the band
// floor so the additive error ζ·d ≤ ζ·dist; the search rounds each arc
// as it relaxes it). Each band takes ŵ = 2^⌊log₂(ζ·d/h)⌋, the power of
// two in (ζ·d/(2h), ζ·d/h], or 1 below that: the error bound holds as
// before, the band's level count at most doubles, and the rounding is
// a shift.
//
// Here the bands of a round run one after another in index order, each
// a point-to-point search that stops once t settles. Powers of two make
// the bands comparable: when ŵ_j ≥ ŵ_i, ŵ_i divides ŵ_j, so every arc
// satisfies ŵ_j·⌈w/ŵ_j⌉ ≥ ŵ_i·⌈w/ŵ_i⌉ and band j's answer is never
// below band i's exact one. So once band i answers, every later band
// with ŵ_j ≥ ŵ_i is skipped. A later band with a finer ŵ (possible when
// the round clamps band i's hop budget below the later band's) runs
// capped at ⌊(D−1)/ŵ⌋ levels, D the best answer so far, or is skipped
// when that cap is below 1: it could only tie or lose to D. The answer
// is the same best band the full race picks, but since a band's cap
// depends on the bands before it, the round is costed as the serial
// sweep it is: Levels is the sum of the levels every band actually
// ran, and depth composes band by band (par.Cost.AddSequential).
//
// The hop budget h escalates geometrically across rounds up to the
// Lemma 4.2 bound: the bound is a with-high-probability worst case,
// while the realized shortcut path is usually much shorter, and a
// too-large budget would round too finely and waste depth. Escalation
// costs a constant factor in depth (geometric sum) and keeps the
// per-round level caps at O(n^η · h / ζ) — the Lemma 5.2 level count.
//
// If every band exhausts its budget — a probabilistic event — Query
// falls back to an exact Dijkstra on the augmented graph, so the
// answer is always finite iff s and t are connected.
func (s *Scaled) Query(src, dst graph.V, cost *par.Cost) QueryResult {
	return s.QueryOn(nil, src, dst, cost)
}

// QueryOn is Query on an execution context: every band search draws
// its arrays from ec's arenas and releases them before it returns, so
// steady-state query traffic stops allocating O(n) buffers per band
// per query, and the augmented graph is fetched once per query. The
// context must never be canceled (use exec.Ctx.Detached from a build
// context): queries have no notion of a partial answer.
func (s *Scaled) QueryOn(ec *exec.Ctx, src, dst graph.V, cost *par.Cost) QueryResult {
	if src == dst {
		return QueryResult{Dist: 0, Scale: -1}
	}
	n := int(s.Base.NumVertices())
	step := math.Pow(float64(n), s.Params.Eta)
	if step < 2 {
		step = 2
	}
	zeta := s.Params.Zeta
	aug := s.Augmented()
	var total QueryResult

	// Per-band hop-budget ceilings (Lemma 4.2 in build-rounded units,
	// with the paper's 4x Markov slack, clamped to n).
	hbMax := make([]float64, len(s.Scales))
	globalMax := 16.0
	for i, sc := range s.Scales {
		hb := 4 * s.Params.ExpectedHops(n, 2*sc.D/float64(sc.WHat))
		if hb < 16 {
			hb = 16
		}
		if hb > float64(n) {
			hb = float64(n)
		}
		hbMax[i] = hb
		if hb > globalMax {
			globalMax = hb
		}
	}

	esc := s.Params.Escalation
	if esc < 2 {
		esc = 8
	}
	hb0 := s.Params.InitialHopBudget
	if hb0 < 1 {
		hb0 = 16
	}
	prev := make([]float64, len(s.Scales)) // last budget attempted per band
	for hb := hb0; ; hb *= esc {
		if hb > globalMax {
			hb = globalMax
		}
		bestDist := graph.Dist(-1)
		bestScale := -1
		var bestShift uint // log₂ ŵ of the band that set bestDist
		for idx := range s.Scales {
			b := hb
			if b > hbMax[idx] {
				b = hbMax[idx]
			}
			if b <= prev[idx] {
				continue // this band is already exhausted
			}
			prev[idx] = b
			sc := s.Scales[idx]
			floor := sc.D / step
			var shift uint // ŵ = 2^shift ≤ ζ·floor/b, or 1
			if q := zeta * floor / b; q >= 2 {
				shift = uint(bits.Len64(uint64(q))) - 1
			}
			if bestDist >= 0 && shift >= bestShift {
				continue // a multiple of the answer's ŵ: it can only tie or lose
			}
			// A relevant shortcut path has ≤ b hops and weight ≤
			// ~2·sc.D; rounded, it fits in 2·D/ŵ + b levels.
			levelCap := graph.Dist(math.Ceil(2*sc.D/float64(graph.W(1)<<shift))) +
				graph.Dist(math.Ceil(b)) + 16
			if bestDist >= 0 {
				// Only a rounded distance d with ŵ·d < bestDist can
				// beat the round's answer so far.
				levelCap = min(levelCap, (bestDist-1)>>shift)
				if levelCap < 1 {
					continue
				}
			}
			bandCost := par.NewCost()
			d := sssp.DialTo(aug, src, dst, sssp.Options{
				Cost:    bandCost,
				MaxDist: levelCap,
				Exec:    ec,
				Shift:   shift,
			})
			total.Levels += bandCost.Depth()
			total.Work += bandCost.Work()
			cost.AddSequential(bandCost)
			if d < graph.InfDist { // the cap admits only a better answer
				bestDist, bestScale, bestShift = d<<shift, idx, shift
			}
		}
		if bestDist >= 0 {
			total.Dist = bestDist
			total.Scale = bestScale
			return total
		}
		if hb >= globalMax {
			break
		}
	}

	// Deterministic fallback: exact on the augmented graph (same
	// metric as the base graph).
	fb := par.NewCost()
	res := sssp.Dijkstra(aug, []graph.V{src}, sssp.Options{Cost: fb, Exec: ec})
	cost.AddSequential(fb)
	total.Levels += fb.Depth()
	total.Work += fb.Work()
	total.Dist = res.Dist[dst]
	total.Scale = -1
	total.Fallback = true
	res.Release(ec)
	return total
}

// ExactDistance returns the true s-t distance via Dijkstra on the base
// graph; tests and benchmarks use it as ground truth.
func (s *Scaled) ExactDistance(src, dst graph.V) graph.Dist {
	res := sssp.Dijkstra(s.Base, []graph.V{src}, sssp.Options{})
	return res.Dist[dst]
}
