// Package spanhop is a from-scratch Go implementation of
//
//	Gary L. Miller, Richard Peng, Adrian Vladu, Shen Chen Xu:
//	"Improved Parallel Algorithms for Spanners and Hopsets", SPAA 2015.
//
// It provides exponential start time (EST) clustering, the paper's
// O(k)-stretch spanner constructions for unweighted and weighted
// graphs, its hopset constructions (single-scale, multi-scale weighted
// with Klein–Subramanian rounding, and the low-depth Appendix C
// variant), the Appendix B weight-class decomposition, the baselines
// the paper compares against (Baswana–Sen and greedy spanners, the
// KS97 √n hopset, a Cohen-style hierarchy hopset), and a PRAM
// work/depth cost model in which all of the paper's complexity claims
// are measured.
//
// This package is the public facade: it re-exports the core types and
// serves s-t distances through DistanceOracle. By default the oracle
// is exact (point-to-point Dijkstra, nothing built);
// OracleOptions{Hopset: true} selects the end-to-end
// (1+ε)-approximate shortest-path pipeline of Theorem 1.2, the
// paper's low-depth mode. The implementation lives in the
// internal packages (internal/core is the clustering at the heart of
// everything; see DESIGN.md for the full inventory).
//
// # Quick start
//
//	g := spanhop.RandomGraph(10_000, 40_000, 42)
//	sp := spanhop.UnweightedSpannerOn(g, 3, 1, nil, nil) // O(k)-stretch spanner
//	oracle := spanhop.NewDistanceOracleOpts(g, 0.25, 2,
//		spanhop.OracleOptions{}) // exact, builds nothing
//	d, _ := oracle.Query(0, 9_999) // exact distance
//	hop := spanhop.NewDistanceOracleOpts(g, 0.25, 2,
//		spanhop.OracleOptions{Hopset: true}) // Theorem 1.2 hopset
//	a, _ := hop.Query(0, 9_999) // (1±ε) distance
//
// Each paper construction has one entry point. Those that take an
// *ExecCtx return the same answer for any context, nil included (each
// says what nil runs); every *Cost parameter may be nil to skip
// accounting.
package spanhop

import (
	"context"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/hopset"
	"repro/internal/par"
	"repro/internal/spanner"
	"repro/internal/sssp"
)

// Re-exported fundamental types. Vertices are int32 ids, weights are
// positive int64 with w·max(n−1, 1) < InfDist, so every finite distance
// stays below InfDist, which marks unreachable.
type (
	// Graph is an immutable undirected graph in CSR form.
	Graph = graph.Graph
	// Edge is one undirected edge (endpoints and weight).
	Edge = graph.Edge
	// V is the vertex id type.
	V = graph.V
	// W is the edge weight type.
	W = graph.W
	// Dist is the path distance type.
	Dist = graph.Dist
	// Cost accumulates PRAM work and depth for a computation.
	Cost = par.Cost
	// Clustering is the result of EST clustering: per-vertex centers,
	// spanning trees, and cluster groupings.
	Clustering = core.Result
	// Spanner is a spanner construction result (edge-id subset).
	Spanner = spanner.Result
	// Hopset is a single-scale hopset construction result.
	Hopset = hopset.Result
	// HopsetParams are the Algorithm 4 / Theorem 4.4 knobs.
	HopsetParams = hopset.Params
	// ScaledHopset is the queryable multi-scale hopset of Section 5.
	ScaledHopset = hopset.Scaled
	// ScaledHopsetParams extend HopsetParams with the Section 5
	// band/rounding knobs.
	ScaledHopsetParams = hopset.WeightedParams
	// PathResult holds per-vertex distances and parents of a search.
	PathResult = sssp.Result
	// ExecCtx is the unified execution context (internal/exec): a
	// pooled-worker cap, scratch arenas, cancellation, and per-stage
	// telemetry shared by every layer. Every function that takes one
	// accepts nil.
	ExecCtx = exec.Ctx
	// ExecTelemetry accumulates per-stage build statistics.
	ExecTelemetry = exec.Telemetry
	// ExecStageStats is one telemetry stage snapshot.
	ExecStageStats = exec.StageStats
)

// InfDist is the "unreachable" distance sentinel.
const InfDist = graph.InfDist

// NewCost returns a fresh work/depth accumulator. Pass it as the cost
// argument of a construction (or nil to skip accounting).
func NewCost() *Cost { return par.NewCost() }

// NewExecCtx builds an execution context: ctx supplies cancellation
// (nil = never canceled), workers caps the pooled fan-out (0 =
// GOMAXPROCS, 1 = sequential). Every build and search routed through
// the context reuses arena scratch buffers and aborts at the next
// round boundary once ctx is canceled.
func NewExecCtx(ctx context.Context, workers int) *ExecCtx {
	return exec.New(exec.Options{Context: ctx, Workers: workers})
}

// SequentialExec returns a never-canceled workers=1 context: the
// reference-oracle execution shape, but allocation-free on repeated
// calls thanks to the arenas.
func SequentialExec() *ExecCtx { return exec.Sequential() }

// ParallelExec returns a never-canceled context capped at workers
// pooled goroutines (0 = GOMAXPROCS).
func ParallelExec(workers int) *ExecCtx { return exec.Parallel(workers) }

// ---------------------------------------------------------------------------
// Graph construction.

// NewGraph builds an undirected graph over n vertices from an edge
// list. Pass weighted=false to ignore weights (unit lengths). It panics
// on a malformed edge, a weight w ≤ 0 or w·max(n−1, 1) ≥ InfDist
// included.
func NewGraph(n V, edges []Edge, weighted bool) *Graph {
	return graph.FromEdges(n, edges, weighted)
}

// RandomGraph returns a connected Erdős–Rényi style graph with n
// vertices and m edges (m ≥ n−1), deterministic in seed.
func RandomGraph(n V, m int64, seed uint64) *Graph {
	return graph.RandomConnectedGNM(n, m, seed)
}

// GridGraph returns the rows×cols grid — the high-diameter family
// where hopsets matter most.
func GridGraph(rows, cols V) *Graph { return graph.Grid2D(rows, cols) }

// RMATGraph returns a recursive-matrix random graph with 2^scale
// vertices and ~m edges using the classic skew parameters — a
// social-network stand-in with heavy-tailed degrees.
func RMATGraph(scale int, m int64, seed uint64) *Graph {
	return graph.RMAT(scale, m, 0.57, 0.19, 0.19, seed)
}

// WithUniformWeights attaches i.i.d. uniform integer weights in
// [1, maxW] to a graph.
func WithUniformWeights(g *Graph, maxW W, seed uint64) *Graph {
	return graph.UniformWeights(g, maxW, seed)
}

// WithMultiScaleWeights attaches weights spanning base^scales — the
// regime that exercises the weighted spanner bucketing and the
// Appendix B decomposition.
func WithMultiScaleWeights(g *Graph, base, scales float64, seed uint64) *Graph {
	return graph.ExponentialWeights(g, base, scales, seed)
}

// ---------------------------------------------------------------------------
// Exponential start time clustering (the paper's §2.1 key routine).

// ESTClusterOn partitions g into clusters using exponential start time
// clustering with parameter beta: every vertex joins the cluster of
// the vertex u maximizing δ_u − dist(u, v), δ_u ~ Exp(beta). Cluster
// radii are O(β^{-1} log n) with high probability (Lemma 2.1) and
// every edge is cut with probability ≤ β·w(e) (Corollary 2.3).
//
// The race runs on ec: a nil ec runs it sequentially; a parallel ec
// expands every bucket on its pooled workers (the multicore
// realization of the CRCW frontier step) with arena-backed scratch and
// aborts at the next bucket once ec is canceled (check ec.Err() before
// using the result). The clustering is bit-identical for any ec and
// the same seed. A nil cost skips accounting. It panics on beta <= 0;
// every weight a Graph holds is accepted.
func ESTClusterOn(g *Graph, beta float64, seed uint64, ec *ExecCtx, cost *Cost) *Clustering {
	return core.Cluster(g, beta, seed, core.Options{Cost: cost, Exec: ec})
}

// ---------------------------------------------------------------------------
// Spanners (§3). Each construction runs on ec (nil = sequential; a
// parallel ec runs the clustering races and boundary sweeps on its
// workers under its cap) and yields the same edge set for any ec. A
// nil cost skips accounting.

// UnweightedSpannerOn builds an O(k)-stretch spanner of expected size
// O(n^{1+1/k}) in O(m) work (Algorithm 2 / Lemma 3.2 / Theorem 1.1).
func UnweightedSpannerOn(g *Graph, k int, seed uint64, ec *ExecCtx, cost *Cost) *Spanner {
	return spanner.Unweighted(g, k, seed, spanner.Options{Cost: cost, Exec: ec})
}

// WeightedSpannerOn builds an O(k)-stretch spanner of expected size
// O(n^{1+1/k} log k) for weighted graphs (Theorem 3.3): power-of-two
// weight buckets dealt into O(log k) well-separated groups, each
// processed by hierarchical contraction (Algorithm 3). On a parallel
// ec the groups also run side by side.
func WeightedSpannerOn(g *Graph, k int, seed uint64, ec *ExecCtx, cost *Cost) *Spanner {
	return spanner.Weighted(g, k, seed, spanner.Options{Cost: cost, Exec: ec})
}

// BaswanaSenSpanner builds the (2k−1)-stretch baseline spanner of
// Baswana and Sen [BS07] (Figure 1 comparison row). A nil cost skips
// accounting.
func BaswanaSenSpanner(g *Graph, k int, seed uint64, cost *Cost) *Spanner {
	return spanner.BaswanaSen(g, k, seed, cost)
}

// GreedySpanner builds the greedy (2k−1)-spanner of Althöfer et al.
// [ADD+93]: smallest sizes, O(m·n)-ish work; small inputs only.
func GreedySpanner(g *Graph, k int) *Spanner {
	return spanner.Greedy(g, k, nil)
}

// ---------------------------------------------------------------------------
// Hopsets (§4, §5, Appendix C).

// DefaultHopsetParams returns the experiment-default Algorithm 4
// parameters.
func DefaultHopsetParams(seed uint64) HopsetParams { return hopset.DefaultParams(seed) }

// DefaultScaledHopsetParams returns the experiment-default Section 5
// parameters.
func DefaultScaledHopsetParams(seed uint64) ScaledHopsetParams {
	return hopset.DefaultWeightedParams(seed)
}

// BuildHopset runs Algorithm 4 once on g (any integer weights),
// returning hopset edges whose weights are exact path weights in g.
// A nil cost skips accounting.
func BuildHopset(g *Graph, p HopsetParams, cost *Cost) *Hopset {
	return hopset.Build(g, p, cost)
}

// BuildScaledHopset constructs the queryable multi-scale hopset of
// Section 5 (per-band Klein–Subramanian rounding plus Algorithm 4).
// A nil cost skips accounting.
func BuildScaledHopset(g *Graph, p ScaledHopsetParams, cost *Cost) *ScaledHopset {
	return hopset.BuildScaled(g, p, cost)
}

// KS97Hopset builds the √n-sampling exact hopset baseline [KS97/SS99]
// (Figure 2 comparison row).
func KS97Hopset(g *Graph, seed uint64) *Hopset {
	return hopset.KS97(g, seed, nil)
}

// CohenStyleHopset builds the hierarchical-sampling hopset standing in
// for Cohen's construction [Coh00] (Figure 2 comparison row; see
// DESIGN.md for the substitution note).
func CohenStyleHopset(g *Graph, levels int, seed uint64) *Hopset {
	return hopset.CohenStyle(g, levels, seed, nil)
}

// LimitedHopset runs the Appendix C iterated scheme targeting query
// depth Õ(n^alpha) with distortion ≤ (1+eps·polylog).
func LimitedHopset(g *Graph, alpha, eps float64, seed uint64) *Hopset {
	return hopset.Limited(g, alpha, eps, seed, nil)
}

// ---------------------------------------------------------------------------
// Searches.

// ShortestPaths runs exact Dijkstra from src (the sequential
// reference): on Dial's bucket ring when every weight is at most 4095,
// on the radix heap otherwise, with the same distances either way. Its
// queue buffers come from the process-wide arenas, so a call allocates
// only the result it returns.
func ShortestPaths(g *Graph, src V) *PathResult {
	return sssp.Dijkstra(g, []V{src}, sssp.Options{})
}

// ParallelBFS runs level-synchronous BFS from src over unit edge
// costs, recording one depth unit per level in cost (may be nil).
func ParallelBFS(g *Graph, src V, cost *Cost) *PathResult {
	return sssp.BFS(g, []V{src}, sssp.Options{Cost: cost})
}

// ConcurrentBFS is ParallelBFS with the frontier expanded by actual
// goroutines (CAS-claimed vertices, the arbitrary-CRCW semantics);
// distances equal ParallelBFS's, wall-clock scales with GOMAXPROCS.
func ConcurrentBFS(g *Graph, src V, cost *Cost) *PathResult {
	return sssp.BFSParallel(g, []V{src}, sssp.Options{Cost: cost})
}

// WeightedParallelBFSOn runs the Dial bucket-queue search from src —
// exact for integer weights, with depth equal to the distance range
// swept (the quantity Section 5's rounding shrinks). On a non-nil ec
// the result and scratch arrays come from ec's arenas (release with
// PathResult.Release) and a canceled ec aborts the sweep at the next
// distance level. A nil cost skips accounting.
func WeightedParallelBFSOn(g *Graph, src V, ec *ExecCtx, cost *Cost) *PathResult {
	return sssp.Dial(g, []V{src}, sssp.Options{Cost: cost, Exec: ec})
}

// ParallelShortestPathsOn runs Δ-stepping from src — the weighted
// counterpart of ConcurrentBFS. Every frontier is expanded by
// concurrent goroutines with CAS-claimed relaxations: under ec's worker
// cap, or over GOMAXPROCS on a nil ec. On a non-nil ec the O(n) result and scratch
// arrays come from its arenas: release the result with
// PathResult.Release(ec) once consumed to make repeated searches
// allocation-free. Distances are exact and bit-identical to
// ShortestPaths for any ec. A nil cost skips accounting.
func ParallelShortestPathsOn(g *Graph, src V, ec *ExecCtx, cost *Cost) *PathResult {
	return sssp.DeltaStepping(g, []V{src}, sssp.Options{Cost: cost, Exec: ec})
}

// HopLimitedDistances returns dist^h_{E∪extra}(src, ·): the h-hop
// limited distances of Definition 2.4, via h Bellman–Ford rounds.
func HopLimitedDistances(g *Graph, extra []Edge, src V, hops int) []Dist {
	return sssp.HopLimited(nil, g, extra, []V{src}, hops, nil)
}

// ParallelHopLimitedDistances is HopLimitedDistances with every
// Bellman–Ford round scanned by concurrent goroutines (CAS min-update
// relaxations); the output is bit-identical.
func ParallelHopLimitedDistances(g *Graph, extra []Edge, src V, hops int) []Dist {
	return sssp.HopLimitedParallel(nil, g, extra, []V{src}, hops, nil)
}
