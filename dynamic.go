package spanhop

import (
	"context"
	"time"

	"repro/internal/dynamic"
	"repro/internal/exec"
	"repro/internal/graph"
)

// This file is the facade over internal/dynamic: a DynamicOracle
// wraps a built DistanceOracle with a versioned delta-overlay so the
// served graph can absorb edge insertions, deletions, and reweights
// between rebuilds, and a background rebuild scheduler that folds the
// mutation journal into a from-scratch oracle (built through the
// internal/exec engine, cancelable) and atomically swaps generations.
// See internal/dynamic's package comment for the query algorithm and
// its approximation bound.

// DynamicUpdate is one requested mutation against a DynamicOracle.
type DynamicUpdate = dynamic.Update

// UpdateOp is a mutation kind.
type UpdateOp = dynamic.Op

// Mutation kinds: insert a currently-absent pair edge, delete a
// currently-present one, or change a present pair's weight.
const (
	UpdateInsert   = dynamic.OpInsert
	UpdateDelete   = dynamic.OpDelete
	UpdateReweight = dynamic.OpReweight
)

// ParseUpdateOp resolves the wire name of an op
// ("insert"/"delete"/"reweight").
func ParseUpdateOp(s string) (UpdateOp, error) { return dynamic.ParseOp(s) }

// Typed dynamic errors, re-exported for callers that switch on them.
var (
	// ErrBadUpdate wraps every mutation validation failure.
	ErrBadUpdate = dynamic.ErrBadUpdate
	// ErrCompactedGen reports a QueryAt generation already folded into
	// the base oracle by a rebuild.
	ErrCompactedGen = dynamic.ErrCompactedGen
	// ErrFutureGen reports a QueryAt generation not yet applied.
	ErrFutureGen = dynamic.ErrFutureGen
)

// RebuildPolicy tunes the DynamicOracle's background rebuild
// scheduler. Zero values take defaults; negative values disable the
// corresponding trigger.
type RebuildPolicy struct {
	// MaxJournal rebuilds once this many journal entries are pending
	// (default 256).
	MaxJournal int
	// MaxPatchFraction rebuilds once overlay pairs exceed this
	// fraction of the base edge count (default 0.10).
	MaxPatchFraction float64
	// MaxStaleness rebuilds once the oldest pending mutation is older
	// than this (default: disabled).
	MaxStaleness time.Duration
	// Workers caps the execution context rebuilds run on (0 =
	// GOMAXPROCS, 1 = the sequential reference build). Rebuilds are
	// always cancelable and arena-backed.
	Workers int
	// Disabled turns automatic rebuilds off entirely; only
	// ForceRebuild compacts the journal.
	Disabled bool
	// Labels, when non-nil, carries runtime/pprof profiler labels
	// (pprof.WithLabels) adopted by the pooled helper goroutines of
	// every rebuild's execution context, so rebuild CPU samples carry
	// the owning graph's identity. Only its label set is read.
	Labels context.Context
}

func (p RebuildPolicy) inner() dynamic.Policy {
	return dynamic.Policy{
		MaxJournal:       p.MaxJournal,
		MaxPatchFraction: p.MaxPatchFraction,
		MaxStaleness:     p.MaxStaleness,
	}
}

// baseAdapter exposes a DistanceOracle as the overlay's base Querier
// while keeping the full oracle reachable for introspection.
type baseAdapter struct{ o *DistanceOracle }

func (b baseAdapter) Query(s, t V) (Dist, error) { return b.o.Query(s, t) }

// DynamicOracle is a DistanceOracle that accepts live edge mutations.
// Queries reflect every applied update immediately (Query), or any
// pinned generation still in the journal window (QueryAt); the
// scheduler rebuilds the underlying static oracle in the background
// once the policy triggers and atomically swaps it in, after which
// answers exactly match a from-scratch oracle built on the mutated
// graph with the same engine, eps and seed. All methods are safe for
// concurrent use.
type DynamicOracle struct {
	ov  *dynamic.Oracle
	sch *dynamic.Scheduler

	eps      float64
	seed     uint64
	disabled bool
}

// NewDynamicOracle wraps a built oracle. The oracle's graph, engine,
// eps, and seed carry over; rebuilds reuse them, so a rebuilt oracle
// is reproducible from (mutated graph, engine, eps, seed) alone.
func NewDynamicOracle(o *DistanceOracle, pol RebuildPolicy) *DynamicOracle {
	return newDynamicOracleAt(o, pol, 0)
}

// newDynamicOracleAt is NewDynamicOracle starting at an explicit base
// generation (snapshot restore).
func newDynamicOracleAt(o *DistanceOracle, pol RebuildPolicy, floor uint64) *DynamicOracle {
	d := &DynamicOracle{
		ov:       dynamic.New(baseAdapter{o}, o.Graph(), floor),
		eps:      o.Eps(),
		seed:     o.Seed(),
		disabled: pol.Disabled,
	}
	workers := pol.Workers
	// Rebuilt oracles must answer queries on the SAME execution
	// context the original oracle was configured with (e.g. the
	// server's query-worker cap), not the rebuild's build cap —
	// otherwise the first rebuild would silently change query fan-out.
	queryEc := o.queryEc
	hop := o.hopset
	d.sch = dynamic.NewScheduler(d.ov, pol.inner(),
		func(ctx context.Context, g *graph.Graph) (dynamic.Querier, error) {
			ec := exec.New(exec.Options{Context: ctx, Workers: workers, Labels: pol.Labels})
			no := NewDistanceOracleOpts(g, d.eps, d.seed, OracleOptions{
				Hopset:    hop,
				Exec:      ec,
				QueryExec: queryEc,
			})
			if err := ec.Err(); err != nil {
				return nil, err
			}
			return baseAdapter{no}, nil
		})
	return d
}

// Oracle returns the current static base oracle (the freshly rebuilt
// one after a swap) — introspection only; queries must go through the
// DynamicOracle so pending mutations are honored.
func (d *DynamicOracle) Oracle() *DistanceOracle {
	return d.ov.Base().(baseAdapter).o
}

// Introspect returns the current static oracle and its base graph as
// one consistent pair (a rebuild swap replaces both together; calling
// Oracle() and Graph() separately could mix generations).
func (d *DynamicOracle) Introspect() (*DistanceOracle, *Graph) {
	base, g, _, _ := d.ov.PersistState()
	return base.(baseAdapter).o, g
}

// Gauges returns the overlay's observability gauges as one consistent
// snapshot (generation window, pending journal, overlay size,
// staleness clock).
func (d *DynamicOracle) Gauges() dynamic.Gauges { return d.ov.Gauges() }

// Graph returns the base graph of the current static oracle (the
// graph as of BaseGeneration; pending mutations are not
// materialized). Use MutatedGraph for the live view.
func (d *DynamicOracle) Graph() *Graph { return d.ov.BaseGraph() }

// MutatedGraph materializes the graph at the latest generation.
func (d *DynamicOracle) MutatedGraph() *Graph { return d.ov.MutatedGraph() }

// NumVertices returns the (fixed) vertex count.
func (d *DynamicOracle) NumVertices() int32 { return d.ov.BaseGraph().NumVertices() }

// Eps returns the accuracy parameter rebuilds preserve.
func (d *DynamicOracle) Eps() float64 { return d.eps }

// Generation returns the latest applied generation.
func (d *DynamicOracle) Generation() uint64 { return d.ov.Generation() }

// BaseGeneration returns the generation the current static oracle
// reflects; QueryAt accepts [BaseGeneration, Generation].
func (d *DynamicOracle) BaseGeneration() uint64 { return d.ov.FloorGen() }

// PendingUpdates returns the journal length awaiting a rebuild.
func (d *DynamicOracle) PendingUpdates() int { return d.ov.Pending() }

// OverlayEdges returns how many vertex pairs currently diverge from
// the base graph.
func (d *DynamicOracle) OverlayEdges() int { return d.ov.OverlayEdges() }

// Staleness returns the age of the oldest pending mutation (0 when
// the journal is empty).
func (d *DynamicOracle) Staleness() time.Duration {
	oldest := d.ov.OldestPending()
	if oldest.IsZero() {
		return 0
	}
	return time.Since(oldest)
}

// Journal returns a copy of the pending mutation journal
// (persistence; see SaveDynamicOracle).
func (d *DynamicOracle) Journal() []dynamic.Entry { return d.ov.Journal() }

// RebuildStats reports the scheduler's counters.
func (d *DynamicOracle) RebuildStats() dynamic.Stats { return d.sch.Snapshot() }

// RebuildEvent is one scheduler lifecycle notification (rebuild
// start / swap / fail); see SetRebuildObserver.
type RebuildEvent = dynamic.Event

// SetRebuildObserver registers a hook receiving every rebuild
// lifecycle event — the serving layer's observability turns these
// into structured log records and event counters. The hook runs on
// the rebuild goroutine and must be cheap and thread-safe.
func (d *DynamicOracle) SetRebuildObserver(f func(RebuildEvent)) { d.sch.SetOnEvent(f) }

// SetRebuildInstrument registers a wrapper around the expensive build
// step of every rebuild — the serving layer's cost accountant measures
// the wrapped section's CPU time and allocations and attributes them
// to the owning graph. The wrapper must call do() exactly once,
// synchronously (do returns the build's error); it runs on the rebuild
// goroutine.
func (d *DynamicOracle) SetRebuildInstrument(f func(cause string, do func() error)) {
	d.sch.SetInstrument(f)
}

// TraceInfo reports the overlay regime ("clean" or "degrading") and
// the latest applied generation — the two facts a request trace pins
// so a slow query can be attributed to the overlay state it actually
// ran under.
func (d *DynamicOracle) TraceInfo() (regime string, gen uint64) { return d.ov.Regime() }

// ApplyUpdates applies a batch of mutations atomically (all or none),
// returning the generation of the last one. Each update is stamped
// with its own generation; the scheduler re-evaluates its policy
// afterwards and may start a background rebuild.
func (d *DynamicOracle) ApplyUpdates(us []DynamicUpdate) (uint64, error) {
	gen, err := d.ov.Apply(us)
	if err != nil {
		return 0, err
	}
	if !d.disabled {
		d.sch.Notify()
	}
	return gen, nil
}

// Query estimates the s-t distance on the latest generation's graph.
// See internal/dynamic for the bound: while no pair diverges from the
// base graph the static (1±ε̃) envelope holds verbatim; once any
// insert, delete, or reweight diverges the answer is exact.
func (d *DynamicOracle) Query(s, t V) (Dist, error) { return d.ov.Query(s, t) }

// QueryAt is Query pinned at a generation in
// [BaseGeneration, Generation] — the optimistic-concurrency shape: a
// client that captured gen G can keep reading a consistent graph
// while writers advance, until a rebuild compacts G away
// (ErrCompactedGen).
func (d *DynamicOracle) QueryAt(gen uint64, s, t V) (Dist, error) {
	return d.ov.QueryAt(gen, s, t)
}

// ExactDistanceAt computes the exact s-t distance at a pinned
// generation via point-to-point Dijkstra over the patched adjacency —
// no hopset approximation on any path, in any regime, whatever the
// engine. Its cost is one O(n) scratch reset plus the searched ball,
// and it exists for answer auditing: the serving layer shadow-samples
// served answers and re-checks them against this ground truth.
// Returns ErrCompactedGen when a rebuild folded gen into the base.
func (d *DynamicOracle) ExactDistanceAt(gen uint64, s, t V) (Dist, error) {
	return d.ov.ExactDistanceAt(gen, s, t)
}

// StretchEnvelope returns the multiplicative answer envelope the
// current base oracle promises (see DistanceOracle.StretchEnvelope).
// A clean overlay's answers come from the base oracle and lie inside
// it; a dirty (degrading) overlay answers exactly (ratio 1 by
// construction). An exact oracle's envelope is [1, 1] in both
// regimes.
func (d *DynamicOracle) StretchEnvelope() (lo, hi float64) {
	return d.Oracle().StretchEnvelope()
}

// QueryStats mirrors DistanceOracle.QueryStats. While the overlay
// is clean (no pair diverges from the base graph) the full static
// diagnostics pass through; once it is dirty the exact patched search
// answers and Levels/Fallback read zero (that search has no hopset
// depth to report), as they always do on an exact oracle.
func (d *DynamicOracle) QueryStats(s, t V) (QueryStats, error) {
	if reg, _ := d.ov.Regime(); reg == "clean" {
		return d.Oracle().QueryStats(s, t)
	}
	dist, err := d.ov.Query(s, t)
	if err != nil {
		return QueryStats{}, err
	}
	return QueryStats{Dist: dist}, nil
}

// QueryBatch answers many s-t queries, fanning them across the
// current base oracle's query execution context. Results are
// positionally aligned with pairs and identical to issuing each
// QueryStats sequentially; the first invalid pair by index order
// fails the whole batch.
func (d *DynamicOracle) QueryBatch(pairs [][2]V) ([]QueryStats, error) {
	out := make([]QueryStats, len(pairs))
	errs := make([]error, len(pairs))
	d.Oracle().queryEc.DoN(len(pairs), func(i int) {
		out[i], errs[i] = d.QueryStats(pairs[i][0], pairs[i][1])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SetOnRebuild registers a hook invoked after every completed rebuild
// swap, background or forced. The serving layer uses it to rewrite
// the persisted snapshot. A swap keeps every exact answer; on a hopset
// oracle it may change answers within the envelope.
func (d *DynamicOracle) SetOnRebuild(f func()) { d.sch.SetOnSwap(f) }

// ForceRebuild synchronously folds the pending journal into a fresh
// static oracle regardless of policy (waits out an in-flight
// background rebuild first). After it returns, BaseGeneration ==
// Generation as of the call and answers match a from-scratch oracle
// on MutatedGraph.
func (d *DynamicOracle) ForceRebuild(ctx context.Context) error {
	return d.sch.Force(ctx)
}

// Close cancels any in-flight rebuild and stops the scheduler. The
// oracle stays queryable; further ApplyUpdates still land in the
// journal but no automatic rebuild will absorb them.
func (d *DynamicOracle) Close() { d.sch.Close() }
