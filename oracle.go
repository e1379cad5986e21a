package spanhop

import (
	"fmt"
	"math"

	"repro/internal/exec"
	"repro/internal/flat"
	"repro/internal/hopset"
	"repro/internal/par"
	"repro/internal/sssp"
	"repro/internal/wscale"
)

// DistanceOracle answers s-t distance queries on a non-negatively
// weighted undirected graph with one of two engines, chosen once by
// OracleOptions.Hopset.
//
// Exact, the zero value and the default, builds nothing: every query
// runs point-to-point Dijkstra on the graph (sssp.DijkstraTo),
// stopping once t settles, and every answer is exact. On every graph
// measured on 2 vCPUs this beats the hopset in wall time (DESIGN.md,
// "Known deviations").
//
// Hopset is the end-to-end Theorem 1.2 pipeline, the paper's
// low-depth mode: preprocess the graph so that (1+ε)-approximate s-t
// distances can be answered with low parallel depth. Preprocessing
// composes the paper's two reductions:
//
//  1. If the graph's weight ratio exceeds the polynomial bound the
//     Section 5 construction assumes, the Appendix B weight-class
//     decomposition splits it into instances of ratio O((n/ε)³),
//     losing at most an ε fraction of any queried distance
//     (Lemma 5.1).
//  2. Every instance gets a multi-scale hopset (Section 5): per
//     distance band, Klein–Subramanian rounding plus the Algorithm 4
//     EST-clustering recursion.
//
// Hopset queries route through the decomposition to the right
// instance and run the level-capped weighted parallel BFS of the
// hopset query engine; answers are within [(1−ε)·d, (1+ε̃)·d] where ε̃
// is the hopset construction's distortion envelope.
type DistanceOracle struct {
	g    *Graph
	eps  float64
	seed uint64

	// hopset selects the engine (OracleOptions.Hopset): false answers
	// every query with exact search on g and builds nothing.
	hopset bool

	// degenerate marks an oracle over a graph too small to route
	// (n < 2 or no edges): no hopset is built and every s ≠ t query
	// answers InfDist by definition rather than by zero-value
	// fallthrough.
	degenerate bool

	// A hopset oracle is either direct (poly-bounded ratio) ...
	direct *hopset.Scaled
	// ... or decomposed: one scaled hopset per wscale instance.
	dec       *wscale.Decomposition
	instances []*hopset.Scaled

	// queryEc is the execution context queries run on: same worker
	// cap and arenas as the build context but detached from its
	// cancellation, because a query must never return a truncated
	// answer.
	queryEc *exec.Ctx

	// arena pins the flat-snapshot mapping this oracle's arrays alias
	// (OpenOracleFile); nil for built or stream-loaded oracles. The GC
	// does not trace mmap'd memory through the aliasing slices, so the
	// oracle itself must keep the mapping reachable.
	arena *flat.Mapping
}

// OracleOptions tune DistanceOracle preprocessing.
type OracleOptions struct {
	// Hopset selects the query engine. The zero value is exact: the
	// oracle builds nothing and answers every query with point-to-point
	// Dijkstra, so its stretch envelope is [1, 1]. True builds the
	// Theorem 1.2 hopset pipeline and answers (1±ε̃)-approximately with
	// low parallel depth. Snapshot loads ignore it: the arena records
	// the engine it was saved with.
	Hopset bool
	// Cost, when non-nil, accumulates the PRAM work/depth of the
	// preprocessing.
	Cost *Cost
	// Exec is the execution context the build runs on: worker cap,
	// scratch arenas, cancellation (polled at band/recursion/bucket
	// boundaries — a canceled build's oracle is invalid and must be
	// discarded after checking Exec.Err()), and per-stage telemetry.
	// Queries run on a detached copy that ignores the cancellation.
	// Nil keeps legacy behavior (sequential, no cancellation, no
	// telemetry; scratch still comes from the process-wide arenas).
	Exec *ExecCtx
	// QueryExec overrides the execution context queries run on
	// (default: Exec.Detached()). The serving layer passes a
	// never-canceled parallel context here so that query throughput is
	// independent of the build's worker cap. It must never be
	// cancelable: queries have no notion of a partial answer.
	QueryExec *ExecCtx
}

// NewDistanceOracleOpts returns an oracle over g. The zero
// OracleOptions give the exact engine, which builds nothing; opt
// selects the hopset engine (Hopset), cost accounting of the
// preprocessing and machine-parallel construction. eps ∈ (0, 1) is
// recorded for a hopset rebuild or snapshot; with the hopset engine it
// controls both the decomposition loss and the hopset rounding.
func NewDistanceOracleOpts(g *Graph, eps float64, seed uint64, opt OracleOptions) *DistanceOracle {
	if eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("spanhop: DistanceOracle eps = %v, want (0,1)", eps))
	}
	cost := opt.Cost
	ec := opt.Exec
	queryEc := opt.QueryExec
	if queryEc == nil {
		queryEc = ec.Detached()
	}
	o := &DistanceOracle{g: g, eps: eps, seed: seed, hopset: opt.Hopset,
		queryEc: queryEc, degenerate: degenerateGraph(g)}
	if o.degenerate || !o.hopset {
		return o
	}
	wp := hopset.DefaultWeightedParams(seed)
	wp.Zeta = eps
	wp.Exec = ec
	n := float64(g.NumVertices())
	polyBound := math.Pow(n/eps, 3)
	if g.WeightRatio() <= polyBound {
		stop := ec.Stage("hopset-build", cost)
		o.direct = hopset.BuildScaled(g, wp, cost)
		stop()
		return o
	}
	stop := ec.Stage("wscale-decompose", cost)
	o.dec = wscale.Build(g, eps, cost)
	stop()
	// Instances are independent: side by side in the model.
	stop = ec.Stage("hopset-build", cost)
	costs := make([]*par.Cost, len(o.dec.Instances))
	o.instances = make([]*hopset.Scaled, len(o.dec.Instances))
	for i, inst := range o.dec.Instances {
		costs[i] = par.NewCost()
		if ec.Canceled() {
			break // the partial oracle is discarded by the Ctx owner
		}
		p := wp
		p.Seed = wp.Seed + uint64(i)*0x9e3779b97f4a7c15
		o.instances[i] = hopset.BuildScaled(inst.G, p, costs[i])
	}
	cost.JoinMax(costs...)
	stop()
	return o
}

// degenerateGraph reports whether g is too small to route: fewer than
// two vertices, or no edges.
func degenerateGraph(g *Graph) bool { return g.NumVertices() < 2 || g.NumEdges() == 0 }

// Decomposed reports whether the oracle needed the Appendix B
// weight-class decomposition.
func (o *DistanceOracle) Decomposed() bool { return o.dec != nil }

// Degenerate reports whether the graph was too small to preprocess
// (n < 2 or no edges); such oracles answer 0 for s == t and InfDist
// for every other in-range pair.
func (o *DistanceOracle) Degenerate() bool { return o.degenerate }

// Eps returns the accuracy parameter the oracle was built with.
func (o *DistanceOracle) Eps() float64 { return o.eps }

// Seed returns the seed the oracle was built (or restored) with.
func (o *DistanceOracle) Seed() uint64 { return o.seed }

// StretchEnvelope returns the multiplicative envelope [lo·d, hi·d]
// every answered distance provably lies in: lo = 1−ε from the
// Klein–Subramanian rounding floor, hi = (1+ε)·D(n) where D(n) is the
// hopset construction's per-level distortion compounded over the
// EST-clustering recursion depth (Lemma 4.2 via
// hopset.Params.ExpectedDistortion). The bound is the theorem's — in
// practice observed stretch concentrates far inside it; the serving
// layer's answer auditor alarms only when an answer escapes this
// envelope, because that can never happen in a correct build.
// Degenerate oracles answer exactly (0 or InfDist), so hi is 1. An
// exact oracle's envelope is [1, 1].
func (o *DistanceOracle) StretchEnvelope() (lo, hi float64) {
	if !o.hopset {
		return 1, 1
	}
	lo = 1 - o.eps
	if lo < 0 {
		lo = 0
	}
	if o.degenerate {
		return lo, 1
	}
	wp := hopset.DefaultWeightedParams(o.seed)
	wp.Zeta = o.eps
	hi = (1 + o.eps) * wp.Params.ExpectedDistortion(int(o.g.NumVertices()))
	if hi < 1 {
		hi = 1
	}
	return lo, hi
}

// Graph returns the base graph the oracle answers queries on. For a
// snapshot-restored oracle this is the caller-supplied graph when one
// was passed to LoadOracle, or the snapshot's embedded copy otherwise.
func (o *DistanceOracle) Graph() *Graph { return o.g }

// NumVertices returns the vertex count of the preprocessed graph
// (the valid query id range is [0, NumVertices)).
func (o *DistanceOracle) NumVertices() int32 { return o.g.NumVertices() }

// InstanceCount returns how many hopset instances back the oracle:
// 1 when the weight ratio was polynomially bounded (direct build),
// the number of Appendix B weight-class instances when decomposed,
// and 0 for a degenerate or exact oracle.
func (o *DistanceOracle) InstanceCount() int {
	switch {
	case o.direct != nil:
		return 1
	case o.dec != nil:
		return len(o.instances)
	default:
		return 0
	}
}

// HopsetSize returns the total number of hopset edges across all
// instances (0 for an exact oracle).
func (o *DistanceOracle) HopsetSize() int {
	if o.direct != nil {
		return o.direct.Size()
	}
	total := 0
	for _, s := range o.instances {
		total += s.Size()
	}
	return total
}

// QueryStats carries the answer and the parallel cost of one query.
type QueryStats struct {
	// Dist is the distance estimate (InfDist when disconnected).
	Dist Dist
	// Levels is the query's parallel depth in synchronous rounds (0
	// on an exact oracle, whose search reports no hopset depth).
	Levels int64
	// Fallback reports whether the probabilistic search budget was
	// exhausted and the deterministic fallback answered (always false
	// on an exact oracle).
	Fallback bool
}

// Query returns the s-t distance: exact, or (1±ε̃)-approximate on a
// hopset oracle.
func (o *DistanceOracle) Query(s, t V) (Dist, error) {
	st, err := o.QueryStats(s, t)
	return st.Dist, err
}

// QueryStats is Query with cost diagnostics.
func (o *DistanceOracle) QueryStats(s, t V) (QueryStats, error) {
	n := o.g.NumVertices()
	if s < 0 || s >= n || t < 0 || t >= n {
		return QueryStats{}, fmt.Errorf("spanhop: query (%d,%d) out of range n=%d", s, t, n)
	}
	if s == t {
		return QueryStats{Dist: 0}, nil
	}
	if o.degenerate {
		// No edges (or a single vertex): distinct in-range vertices
		// are unreachable by definition.
		return QueryStats{Dist: InfDist}, nil
	}
	if !o.hopset {
		return QueryStats{Dist: o.ExactDistance(s, t)}, nil
	}
	if o.direct != nil {
		q := o.direct.Query(o.queryEc, s, t, nil)
		return QueryStats{Dist: q.Dist, Levels: q.Levels, Fallback: q.Fallback}, nil
	}
	inst, is, it := o.dec.InstanceFor(s, t)
	if inst == nil {
		return QueryStats{Dist: InfDist}, nil
	}
	if is == it {
		return QueryStats{Dist: 0}, nil
	}
	q := o.instances[inst.Level].Query(o.queryEc, is, it, nil)
	return QueryStats{Dist: q.Dist, Levels: q.Levels, Fallback: q.Fallback}, nil
}

// QueryBatch answers many s-t queries, fanning them across the pooled
// workers (bounded by the oracle's execution context, or par.Workers()
// when it was built without one). The oracle is read-mostly after
// preprocessing — an exact search draws its scratch from the
// process-wide arenas, and the only lazy state is each hopset's
// augmented graph, built once under its mutex — so queries run concurrently
// without coordination; this is the serving shape of the Theorem 1.2
// pipeline: preprocess once, answer query traffic in parallel. Results
// are positionally aligned with pairs and identical to issuing each
// Query sequentially. The first invalid pair reported by index order
// fails the whole batch.
func (o *DistanceOracle) QueryBatch(pairs [][2]V) ([]QueryStats, error) {
	out := make([]QueryStats, len(pairs))
	errs := make([]error, len(pairs))
	o.queryEc.DoN(len(pairs), func(i int) {
		out[i], errs[i] = o.QueryStats(pairs[i][0], pairs[i][1])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ExactDistance runs exact point-to-point Dijkstra on the base graph
// (ground truth for tests and benchmarks), stopping once t settles.
func (o *DistanceOracle) ExactDistance(s, t V) Dist {
	return sssp.DijkstraTo(o.g, s, t, sssp.Options{Exec: o.queryEc})
}
