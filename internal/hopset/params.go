// Package hopset implements the paper's hopset constructions (Sections
// 4 and 5, Appendix C) and the baselines of Figure 2.
//
// A hopset for G = (V, E) is an extra edge set E' such that the h-hop
// distance in E ∪ E' approximates the true distance (Definition 2.4).
// Every hopset edge produced by this package carries the exact weight
// of a concrete path in G (property 2 of the definition), so adding
// hopset edges never shrinks distances — it only shrinks hop counts.
//
// The paper's construction (Algorithm 4) recursively applies
// exponential start time clustering with geometrically increasing β.
// Clusters holding at least a 1/ρ fraction of their subgraph are
// "large": each gets a star to its center, and large-cluster centers
// are pairwise connected with clique edges. Small clusters are
// recursed on. The parameters below control the recursion exactly as
// in Theorem 4.4.
package hopset

import (
	"fmt"
	"math"

	"repro/internal/exec"
)

// Params are the knobs of Algorithm 4 / Theorem 4.4.
//
// With β_0 = n^{-Gamma2}, n_final = n^{Gamma1}, and
// ρ = (K·ln(n)/Epsilon)^Delta, the paper proves the construction yields
// an (ε·log n, h, O(n))-hopset with h = n^{1 + 1/δ + γ1(1−1/δ) − γ2},
// built in O(n^{γ2} log² n log* n) depth and O(m·log^{1+δ} n·ε^{-δ})
// work.
type Params struct {
	// Epsilon is the per-level distortion parameter ε ∈ (0, 1); the
	// end-to-end distortion is O(ε · log_ρ n).
	Epsilon float64
	// Delta is δ > 1, the exponent separating the cluster-size decay
	// rate ρ from the β growth rate.
	Delta float64
	// Gamma1 sets the recursion base case n_final = n^{Gamma1}
	// (clamped below by MinFinal).
	Gamma1 float64
	// Gamma2 sets the top-level decomposition parameter
	// β_0 = n^{-Gamma2}; γ1 < γ2 < 1.
	Gamma2 float64
	// K is the success-probability constant of Lemma 2.1 (diameter
	// bound k·β^{-1}·log n holds with probability 1 − n^{1−k}).
	K float64
	// MinFinal is the smallest allowed base-case size; recursing
	// below a handful of vertices is pure overhead.
	MinFinal int
	// Seed drives all randomness.
	Seed uint64
	// Exec is the execution context the construction runs on: its
	// worker cap bounds the recursion fan-out, the clustering bucket
	// expansions, and the clique searches; its arenas back the mark
	// array and search scratch; its cancellation is polled at
	// recursion and band boundaries (a canceled build's result is
	// invalid — check Exec.Err()). Nil keeps legacy behavior
	// (sequential, plain allocation). On a parallel context the
	// construction's hot loops run on actual goroutines: every
	// clustering bucket expands concurrently and the center-to-center
	// clique searches fan out across sources, each one the sequential
	// Dial race. The result — recursion tree, star edges, clique edges
	// and their weights — is bit-identical to the sequential build.
	Exec *exec.Ctx
}

// DefaultParams returns the parameter point used by most experiments:
// a mid-range γ2 so that laptop-scale graphs show both the depth
// reduction and the size bound (the paper's concrete example, γ2 =
// 0.96, δ = 1.1, only separates from the baselines at astronomically
// large n).
func DefaultParams(seed uint64) Params {
	return Params{
		Epsilon:  0.5,
		Delta:    1.5,
		Gamma1:   0.15,
		Gamma2:   0.5,
		K:        2,
		MinFinal: 8,
		Seed:     seed,
	}
}

// normalized validates and fills defaults.
func (p Params) normalized() Params {
	if p.Epsilon <= 0 || p.Epsilon >= 1 {
		panic(fmt.Sprintf("hopset: Epsilon = %v, want (0,1)", p.Epsilon))
	}
	if p.Delta <= 1 {
		panic(fmt.Sprintf("hopset: Delta = %v, want > 1", p.Delta))
	}
	if p.Gamma1 <= 0 || p.Gamma2 <= p.Gamma1 || p.Gamma2 >= 1 {
		panic(fmt.Sprintf("hopset: need 0 < Gamma1 < Gamma2 < 1, got %v, %v", p.Gamma1, p.Gamma2))
	}
	if p.K < 1 {
		p.K = 2
	}
	if p.MinFinal < 2 {
		p.MinFinal = 8
	}
	return p
}

// BetaStep returns the per-level β multiplier K·ε^{-1}·ln n
// (Claim 4.1: β_i = (K ε^{-1} log n)^i · β_0).
func (p Params) BetaStep(n int) float64 {
	if n < 3 {
		n = 3
	}
	return p.K * math.Log(float64(n)) / p.Epsilon
}

// Rho returns the large-cluster threshold divisor
// ρ = (K·ε^{-1}·ln n)^δ.
func (p Params) Rho(n int) float64 {
	return math.Pow(p.BetaStep(n), p.Delta)
}

// Beta0 returns the top-level decomposition parameter n^{-γ2}.
func (p Params) Beta0(n int) float64 {
	if n < 2 {
		return 1
	}
	return math.Pow(float64(n), -p.Gamma2)
}

// NFinal returns the base-case size max(MinFinal, n^{γ1}).
func (p Params) NFinal(n int) int {
	nf := int(math.Pow(float64(n), p.Gamma1))
	if nf < p.MinFinal {
		nf = p.MinFinal
	}
	return nf
}

// MaxLevels bounds the recursion depth log_ρ(n / n_final) with slack;
// the implementation enforces it as a safety net.
func (p Params) MaxLevels(n int) int {
	rho := p.Rho(n)
	if rho <= 1.0001 {
		return 64
	}
	l := int(math.Log(float64(n))/math.Log(rho)) + 8
	if l < 4 {
		l = 4
	}
	return l
}

// ExpectedHops returns the Lemma 4.2 hop bound
// h = n^{1/δ} · n_final^{1−1/δ} · β_0 · d for a distance-d pair.
func (p Params) ExpectedHops(n int, d float64) float64 {
	nf := float64(p.NFinal(n))
	return math.Pow(float64(n), 1/p.Delta) *
		math.Pow(nf, 1-1/p.Delta) * p.Beta0(n) * d
}

// ExpectedDistortion returns the Lemma 4.2 multiplicative distortion
// envelope 1 + O(ε·log_ρ n); the constant is the shortcut count per
// level times the diameter slack, ≤ 4K in the paper's proof.
func (p Params) ExpectedDistortion(n int) float64 {
	rho := p.Rho(n)
	levels := 1.0
	if rho > 1.0001 {
		levels = math.Log(float64(n)) / math.Log(rho)
		if levels < 1 {
			levels = 1
		}
	}
	return 1 + 4*p.K*p.Epsilon*levels
}
