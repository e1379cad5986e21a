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
// falls back to an exact point-to-point Dijkstra on the base graph
// (hopset edges are real paths, so the base graph has the same
// metric), and the answer is always finite iff s and t are connected.
//
// Every band search draws its arrays from ec's arenas (nil included)
// and releases them before it returns, so steady-state query traffic
// stops allocating O(n) buffers per band per query, and the augmented
// graph and hop-budget ceilings are fetched once per query (see
// queryPlan). ec must never be canceled (use exec.Ctx.Detached from a
// build context): queries have no notion of a partial answer.
func (s *Scaled) Query(ec *exec.Ctx, src, dst graph.V, cost *par.Cost) QueryResult {
	if src == dst {
		return QueryResult{Dist: 0, Scale: -1}
	}
	plan := s.queryPlan()
	zeta := s.Params.Zeta
	var total QueryResult

	esc := s.Params.Escalation
	if esc < 2 {
		esc = 8
	}
	hb0 := s.Params.InitialHopBudget
	if hb0 < 1 {
		hb0 = 16
	}
	// hb grows every round, so a band has nothing new to try once its
	// ceiling is at most the previous round's budget.
	prevHB := 0.0
	for hb := hb0; ; hb *= esc {
		if hb > plan.hbTop {
			hb = plan.hbTop
		}
		bestDist := graph.Dist(-1)
		bestScale := -1
		var bestShift uint // log₂ ŵ of the band that set bestDist
		for idx := range s.Scales {
			if plan.hbMax[idx] <= prevHB {
				continue // this band is already exhausted
			}
			b := min(hb, plan.hbMax[idx])
			sc := s.Scales[idx]
			floor := sc.D / plan.step
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
			d := sssp.DialTo(plan.aug, src, dst, sssp.Options{
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
		if hb >= plan.hbTop {
			break
		}
		prevHB = hb
	}

	// Deterministic fallback: exact on the base graph.
	fb := par.NewCost()
	total.Dist = sssp.DijkstraTo(s.Base, src, dst, sssp.Options{Cost: fb, Exec: ec})
	cost.AddSequential(fb)
	total.Levels += fb.Depth()
	total.Work += fb.Work()
	total.Scale = -1
	total.Fallback = true
	return total
}

// ExactDistance returns the true s-t distance via DijkstraTo on the
// base graph; tests and benchmarks use it as ground truth.
func (s *Scaled) ExactDistance(src, dst graph.V) graph.Dist {
	return sssp.DijkstraTo(s.Base, src, dst, sssp.Options{})
}
