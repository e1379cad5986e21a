// Package exec is the unified execution substrate every layer of the
// repository runs on: one Ctx carries (a) the worker cap imposed on
// the shared goroutine pool of internal/par, (b) size-keyed scratch
// arenas that let repeated SSSP/clustering rounds and oracle builds
// reuse their O(n) dist/parent/frontier/mark buffers instead of
// churning the GC, (c) context.Context cancellation checked at
// round/bucket boundaries, and (d) per-stage telemetry (work, depth,
// rounds, wall time) for long builds.
//
// A Ctx replaces the Parallel bool knobs that used to be duplicated
// across sssp.Options, core.Options, spanner.Options, and
// hopset.Params: algorithms take an optional *Ctx and derive their
// parallelism, scratch space, and cancellation from it.
//
// # Nil semantics
//
// All methods are safe on a nil *Ctx, which means "legacy behavior":
// For/Do/DoN delegate to the package-level par entry points (full
// GOMAXPROCS fan-out on the shared pool), cancellation never fires, and
// telemetry is off. The arenas are process-wide, so a nil Ctx draws
// scratch from the same pools as any other. A sequential or cancelable
// run is therefore an explicit choice — exec.Sequential() — not the nil
// default.
//
// # Cancellation contract
//
// Algorithms poll Checkpoint() (or Canceled()) at synchronous round
// boundaries — a BFS level, a Δ-stepping bucket, a clustering bucket,
// a Bellman–Ford round, a recursion entry. On cancellation they
// return immediately with a partial, INVALID result; only the
// top-level caller that owns the Ctx (the registry build loop, a
// command main) may decide what to do with it, and the rule is: check
// Err() and discard. Query paths must therefore run on a Ctx that is
// never canceled (see Detached).
package exec

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/par"
)

// Options configure a Ctx.
type Options struct {
	// Context supplies cancellation; nil means never canceled.
	Context context.Context
	// Workers caps the parallelism of every For/Do/DoN issued through
	// the Ctx: 0 means runtime.GOMAXPROCS(0) resolved per call, 1
	// means run inline (sequential), n > 1 caps the shared pool
	// fan-out at n.
	Workers int
	// Telemetry, when non-nil, accumulates per-stage build statistics
	// (see Ctx.Stage).
	Telemetry *Telemetry
	// OnStage, when non-nil, additionally receives every closed stage
	// record as it completes — the observability layer turns build
	// stages into trace spans without exec importing it. Called from
	// whichever goroutine closes the stage; must be cheap and
	// thread-safe. Only fires when Telemetry is also set (stages are
	// not measured otherwise).
	OnStage func(StageStats)
	// Labels, when non-nil, carries runtime/pprof profiler labels
	// (built with pprof.WithLabels) that shared-pool helper goroutines
	// adopt while executing this Ctx's parallel regions. Only its
	// label set is read — cancellation and values are ignored — so it
	// is deliberately a separate field from Context: a query Ctx wants
	// labels but must never inherit a build's cancellation. The
	// calling goroutine's own labels are untouched; wrap the top-level
	// work in pprof.Do for those.
	Labels context.Context
}

// Ctx is one execution context. The zero value is not useful; build
// one with New, Sequential, or Parallel, or pass nil for legacy
// behavior.
type Ctx struct {
	done     <-chan struct{}
	err      func() error
	workers  int
	limiter  *par.Limiter
	tel      *Telemetry
	onStage  func(StageStats)
	labels   context.Context
	canceled atomic.Bool
	rounds   atomic.Int64
}

// New builds a Ctx from Options. A finite cap (Workers > 1) is
// enforced as an aggregate budget across every loop nested under the
// Ctx — workers−1 shared helper tokens plus the calling goroutine —
// not merely per call, so `-workers 2` really means at most two
// goroutines of that build in flight however the recursion nests.
func New(opt Options) *Ctx {
	e := &Ctx{workers: opt.Workers, tel: opt.Telemetry, onStage: opt.OnStage,
		labels: opt.Labels}
	if opt.Workers < 0 {
		e.workers = 0
	}
	if e.workers > 1 {
		e.limiter = par.NewLimiter(e.workers - 1)
	}
	if opt.Context != nil {
		e.done = opt.Context.Done()
		e.err = opt.Context.Err
	}
	return e
}

// Sequential returns a Ctx that runs everything inline (workers = 1)
// with no cancellation: the reference-oracle shape.
func Sequential() *Ctx { return New(Options{Workers: 1}) }

// Parallel returns a Ctx capped at the given worker count (0 =
// GOMAXPROCS) with no cancellation.
func Parallel(workers int) *Ctx { return New(Options{Workers: workers}) }

// defaultCtx is the shared process-wide parallel context behind the
// facade's *Parallel helpers.
var defaultCtx = Parallel(0)

// Default returns the shared full-parallelism Ctx (GOMAXPROCS workers,
// never canceled).
func Default() *Ctx { return defaultCtx }

// Detached returns a Ctx with the same worker cap and labels but no
// cancellation, no telemetry, and its own fresh helper budget:
// the shape query paths want, where a canceled build must never
// truncate a search that is computing a user-visible answer. Safe on
// nil (returns nil).
func (e *Ctx) Detached() *Ctx {
	if e == nil {
		return nil
	}
	d := &Ctx{workers: e.workers, labels: e.labels}
	if d.workers > 1 {
		d.limiter = par.NewLimiter(d.workers - 1)
	}
	return d
}

// Workers returns the effective worker cap: GOMAXPROCS for a nil Ctx
// or an unset cap.
func (e *Ctx) Workers() int {
	if e == nil || e.workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.workers
}

// IsParallel reports whether the Ctx asks for multicore execution. A
// nil Ctx reports false: legacy call sites gate their parallel
// variants on the deprecated bools instead.
func (e *Ctx) IsParallel() bool {
	return e != nil && e.Workers() > 1
}

// Err returns the cancellation cause, or nil.
func (e *Ctx) Err() error {
	if e == nil || e.err == nil {
		return nil
	}
	return e.err()
}

// Canceled reports whether the Ctx has been canceled. The check is a
// sticky-flag fast path plus one non-blocking channel poll — cheap
// enough for every round boundary.
func (e *Ctx) Canceled() bool {
	if e == nil || e.done == nil {
		return false
	}
	if e.canceled.Load() {
		return true
	}
	select {
	case <-e.done:
		e.canceled.Store(true)
		return true
	default:
		return false
	}
}

// Checkpoint marks one synchronous round boundary: it counts the round
// for telemetry and reports whether the computation should abort. The
// idiom at every bucket/level/round loop head is
//
//	if ec.Checkpoint() { return res } // res is invalid on this path
func (e *Ctx) Checkpoint() bool {
	if e == nil {
		return false
	}
	e.rounds.Add(1)
	return e.Canceled()
}

// Rounds returns the number of checkpoints passed so far.
func (e *Ctx) Rounds() int64 {
	if e == nil {
		return 0
	}
	return e.rounds.Load()
}

// Telemetry returns the Ctx's telemetry sink (nil when off).
func (e *Ctx) Telemetry() *Telemetry {
	if e == nil {
		return nil
	}
	return e.tel
}

// Stage opens a named telemetry stage, snapshotting the given cost
// accumulator (may be nil) and the round counter; the returned func
// closes the stage, recording the deltas plus wall time. Stages
// accumulate by name, so a stage run once per band sums across bands.
// No-op on a nil Ctx or when telemetry is off.
func (e *Ctx) Stage(name string, cost *par.Cost) func() {
	if e == nil || e.tel == nil {
		return func() {}
	}
	w0, d0 := cost.Snapshot()
	r0 := e.rounds.Load()
	t0 := time.Now()
	return func() {
		w1, d1 := cost.Snapshot()
		st := StageStats{
			Name:   name,
			Work:   w1 - w0,
			Depth:  d1 - d0,
			Rounds: e.rounds.Load() - r0,
			WallMS: float64(time.Since(t0).Microseconds()) / 1000,
		}
		e.tel.record(st)
		if e.onStage != nil {
			e.onStage(st)
		}
	}
}

// ---------------------------------------------------------------------------
// Fork-join through the shared pool, honoring the worker cap.

// For executes body(lo, hi) over a partition of [0, n) with at most
// Workers() chunks in flight. Nil Ctx = par.For (full GOMAXPROCS).
func (e *Ctx) For(n, grain int, body func(lo, hi int)) {
	if e == nil {
		par.For(n, grain, body)
		return
	}
	par.ForLabeled(e.labels, e.limiter, e.workers, n, grain, body)
}

// ForIdx executes body(i) for every i in [0, n) in parallel chunks.
func (e *Ctx) ForIdx(n, grain int, body func(i int)) {
	e.For(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// DoN runs body(i) for i in [0, n), at most Workers() concurrently.
// Bodies may nest further For/DoN calls (caller-runs when saturated).
func (e *Ctx) DoN(n int, body func(i int)) {
	if e == nil {
		par.DoN(n, body)
		return
	}
	par.DoNLabeled(e.labels, e.limiter, e.workers, n, body)
}

// Do runs the thunks in parallel and waits.
func (e *Ctx) Do(thunks ...func()) {
	if e == nil {
		par.Do(thunks...)
		return
	}
	e.DoN(len(thunks), func(i int) { thunks[i]() })
}
