// Package par provides the "machine" on which the paper's algorithms
// are measured: a PRAM-style work/depth cost model together with a
// small goroutine substrate for actually running independent chunks in
// parallel.
//
// The paper (Miller, Peng, Vladu, Xu, SPAA 2015) analyzes every
// algorithm in the standard PRAM model: work is the total number of
// operations, depth is the longest chain of dependent operations. This
// repository reproduces those quantities directly rather than proxying
// them with wall-clock time on a particular machine: every parallel
// routine threads a *Cost through its call tree and reports
//
//   - Work:  total primitive operations performed (edge relaxations,
//     vertex settlements, bucket scans, ...), and
//   - Depth: total synchronous rounds on the critical path. Following
//     the paper's own convention (Appendix A), the O(log* n) CRCW
//     per-round overhead is treated as a model constant and a round
//     costs 1 unless the caller says otherwise.
//
// Sequential composition adds both work and depth; parallel composition
// adds work but takes the maximum depth. Cost supports both: AddWork /
// AddDepth for sequential accumulation inside a routine, and JoinMax
// for combining the costs of children that execute side by side (e.g.
// the recursive hopset calls on sibling clusters in Algorithm 4).
//
// All methods are safe for concurrent use and are no-ops on a nil
// receiver, so cost tracking can be switched off by passing nil.
//
// # Conventions for goroutine-parallel routines
//
// Routines that realize the model on actual cores (sssp.BFSParallel,
// sssp.DeltaStepping, sssp.HopLimitedParallel, the Parallel modes of
// core.Cluster and the spanner/hopset builders) account cost by the
// model, not by the machine:
//
//   - One synchronous frontier phase — a BFS level, a Δ-stepping light
//     iteration or heavy relaxation, a Bellman–Ford round, a cluster
//     bucket expansion — is one depth unit (Cost.Round), regardless of
//     how many goroutines executed it or what GOMAXPROCS was.
//   - Work counts primitive operations (edge scans, relaxations,
//     settlements) by the same rule as the sequential implementations:
//     a CAS relaxation is one work unit whether it wins or loses.
//     Deterministic-schedule routines (core.Cluster, the spanner
//     builders) therefore report work identical to their sequential
//     mode; label-correcting ones (DeltaStepping) count their
//     re-relaxations too, which is real extra work the Δ parameter
//     trades against depth.
//   - Coordination overhead — goroutine scheduling, worker-local
//     buffer merges, the CAS retry loop — is machine detail outside
//     the model and is never recorded.
//
// Consequently a routine reports the same (work, depth) whether it
// runs on a sequential or a parallel execution context; only
// wall-clock changes. Benchmarks
// (BenchmarkWeightedSSSP and friends) measure the wall-clock side —
// the "does the PRAM model translate to cores" check.
//
// # Inherited-pool semantics
//
// For, Do, and DoN no longer spawn fresh goroutines per call:
// chunks are handed to a process-wide pool of long-lived workers
// (lazily grown to the largest parallelism ever requested) and the
// calling goroutine always participates in its own loop. A handoff is
// attempted only to an idle worker; when the pool is saturated — e.g.
// a nested For issued from inside a DoN body that already occupies
// every worker — the caller simply runs the remaining chunks inline.
// This caller-runs rule makes nested fork-join deadlock-free by
// construction and means a parallel region never waits on goroutine
// creation or destruction, which is what keeps repeated frontier
// phases allocation-free.
//
// The package-level entry points size their fan-out at
// runtime.GOMAXPROCS(0). Routines running under an execution context
// (internal/exec) instead go through ForLabeled and DoNLabeled, which
// honor the context's worker cap and helper budget: an
// exec.Ctx with Workers = 4 fans every For under it across at most 4
// chunks-in-flight, GOMAXPROCS notwithstanding, and a cap of 1 runs
// the body inline with no pool traffic at all. Cost accounting is
// unaffected by the cap — the model's (work, depth) never depends on
// how many physical workers realized a round.
package par

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
)

// Cost accumulates PRAM work and depth for one (sub)computation.
type Cost struct {
	work  atomic.Int64
	depth atomic.Int64
}

// NewCost returns a fresh zeroed cost accumulator.
func NewCost() *Cost { return &Cost{} }

// AddWork records n units of work. Safe on nil.
func (c *Cost) AddWork(n int64) {
	if c == nil || n == 0 {
		return
	}
	c.work.Add(n)
}

// AddDepth records d units of critical-path depth (d synchronous
// rounds). Safe on nil.
func (c *Cost) AddDepth(d int64) {
	if c == nil || d == 0 {
		return
	}
	c.depth.Add(d)
}

// Round records one synchronous round doing n units of work: the usual
// shape of a frontier step in parallel BFS. Safe on nil.
func (c *Cost) Round(n int64) {
	if c == nil {
		return
	}
	c.work.Add(n)
	c.depth.Add(1)
}

// Work returns the accumulated work. Safe on nil (returns 0).
func (c *Cost) Work() int64 {
	if c == nil {
		return 0
	}
	return c.work.Load()
}

// Depth returns the accumulated depth. Safe on nil (returns 0).
func (c *Cost) Depth() int64 {
	if c == nil {
		return 0
	}
	return c.depth.Load()
}

// AddSequential composes child after the work recorded so far: work
// and depth both accumulate. Safe on nil receiver and nil child.
func (c *Cost) AddSequential(child *Cost) {
	if c == nil || child == nil {
		return
	}
	c.work.Add(child.work.Load())
	c.depth.Add(child.depth.Load())
}

// JoinMax composes the children as a parallel block executed after the
// work recorded so far: their works sum, and the block contributes the
// maximum child depth to the critical path. Safe on nil.
func (c *Cost) JoinMax(children ...*Cost) {
	if c == nil {
		return
	}
	var w, d int64
	for _, ch := range children {
		if ch == nil {
			continue
		}
		w += ch.work.Load()
		if cd := ch.depth.Load(); cd > d {
			d = cd
		}
	}
	c.work.Add(w)
	c.depth.Add(d)
}

// Snapshot returns the current (work, depth) pair.
func (c *Cost) Snapshot() (work, depth int64) {
	return c.Work(), c.Depth()
}

// ---------------------------------------------------------------------------
// Goroutine substrate: the shared worker pool.

// Workers returns the degree of parallelism used by For and friends
// when no explicit worker cap is given.
func Workers() int { return runtime.GOMAXPROCS(0) }

// The pool: long-lived workers blocked on an unbuffered task channel.
// Handoffs use a non-blocking send, so a task is only ever given to a
// worker that is actually parked in receive; otherwise the caller runs
// the work itself. The pool grows lazily to the largest parallelism
// requested so far and never shrinks — parked workers cost one idle
// goroutine each and keep every later parallel region spawn-free.
var (
	poolTasks = make(chan func())
	poolMu    sync.Mutex
	poolSize  int
)

// ensureWorkers grows the pool to at least want workers.
func ensureWorkers(want int) {
	if want <= int(atomic.LoadInt64(&poolSizeAtomic)) {
		return
	}
	poolMu.Lock()
	for poolSize < want {
		go func() {
			for t := range poolTasks {
				t()
			}
		}()
		poolSize++
	}
	atomic.StoreInt64(&poolSizeAtomic, int64(poolSize))
	poolMu.Unlock()
}

// poolSizeAtomic mirrors poolSize for ensureWorkers' lock-free check.
var poolSizeAtomic int64

// Limiter is a shared helper-goroutine budget: one execution context
// (internal/exec) holds a Limiter with workers−1 tokens, and every
// For/DoN issued through that context — however deeply nested —
// acquires its helpers from the same budget. The per-call worker cap
// alone would let nested fan-out multiply (an outer DoN capped at N
// whose bodies each run a For capped at N can occupy up to N² pool
// workers); the shared budget bounds the whole region at N goroutines:
// the root caller plus at most workers−1 helpers in flight.
type Limiter struct {
	tokens chan struct{}
}

// NewLimiter returns a budget of n helper tokens (nil when n <= 0,
// which fanOut treats as unlimited — the process-wide pool size is
// then the only bound).
func NewLimiter(n int) *Limiter {
	if n <= 0 {
		return nil
	}
	l := &Limiter{tokens: make(chan struct{}, n)}
	for i := 0; i < n; i++ {
		l.tokens <- struct{}{}
	}
	return l
}

func (l *Limiter) tryAcquire() bool {
	if l == nil {
		return true
	}
	select {
	case <-l.tokens:
		return true
	default:
		return false
	}
}

func (l *Limiter) release() {
	if l != nil {
		l.tokens <- struct{}{}
	}
}

// fanOut hands up to helpers copies of run to idle pool workers and
// runs run on the calling goroutine too, returning when every copy
// has finished. Each helper costs one token from l (nil = unlimited);
// tokens are held until the whole region completes, so nested regions
// under the same Limiter degrade to caller-runs once the budget is
// spent. run must be safe for concurrent invocation and must return
// when the shared work supply is exhausted.
//
// lctx, when non-nil, carries runtime/pprof profiler labels that each
// POOL helper adopts for the duration of its task and clears before
// parking again. Pool workers are long-lived process-wide goroutines,
// so without this hand-off CPU profile samples of pooled work would
// carry no labels at all; the caller-runs share needs no treatment —
// the submitting goroutine already wears whatever labels its request
// or build wrapped it in (and clearing them here would strip the
// caller mid-request).
func fanOut(lctx context.Context, l *Limiter, helpers int, run func()) {
	if helpers > 0 {
		ensureWorkers(helpers)
	}
	helperRun := run
	if lctx != nil {
		helperRun = func() {
			pprof.SetGoroutineLabels(lctx)
			defer pprof.SetGoroutineLabels(context.Background())
			run()
		}
	}
	var wg sync.WaitGroup
	granted := 0
handoff:
	for i := 0; i < helpers; i++ {
		if !l.tryAcquire() {
			break
		}
		wg.Add(1)
		task := func() {
			defer wg.Done()
			helperRun()
		}
		select {
		case poolTasks <- task:
			granted++
		default:
			// No worker is parked right now (pool saturated by outer
			// parallelism). Caller-runs: skip the remaining handoffs.
			wg.Done()
			l.release()
			break handoff
		}
	}
	run()
	wg.Wait()
	for ; granted > 0; granted-- {
		l.release()
	}
}

// minGrain is the smallest range worth shipping to other goroutines
// when the caller lets For pick the grain; below this For runs inline
// to avoid scheduling overhead dominating cheap per-element bodies
// (the reductions below). It deliberately does NOT apply to explicit
// grains: a caller that names a chunk size is asserting that chunks
// of that size carry enough work (an adjacency scan, an edge
// relaxation batch) to be worth a goroutine — frontier expansions of
// a few hundred vertices must still fan out.
const minGrain = 512

// For executes body(lo, hi) over a partition of [0, n) using up to
// Workers() chunks in flight on the shared worker pool. body must be
// safe to call concurrently on disjoint ranges. grain is the target
// chunk size; pass 0 for an automatic choice (which also applies a
// minGrain cutoff suited to cheap bodies). An explicit grain > 0 is
// authoritative: For fans out whenever n exceeds it, however small n
// is. For blocks until all chunks complete.
//
// For models one parallel step: callers that want the step accounted
// should call cost.AddDepth(1) (or Round) themselves, since only the
// caller knows the per-element work performed inside body.
func For(n, grain int, body func(lo, hi int)) {
	ForLabeled(nil, nil, 0, n, grain, body)
}

// ForLabeled is For under an execution context's limits: at most p
// chunks run simultaneously (p <= 0 means Workers()), and helpers are
// drawn from the shared Limiter l (nil = unbounded), so the per-call
// cap bounds one loop's fan-out while l bounds the aggregate across
// every loop nested under the same context (internal/exec). Helpers
// pulled from the shared pool wear lctx's profiler labels while
// running this loop's chunks (see fanOut), so CPU profile samples of
// pooled work attribute to the graph/operation that submitted it; a
// nil lctx leaves them unlabeled.
func ForLabeled(lctx context.Context, l *Limiter, p, n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if p <= 0 {
		p = Workers()
	}
	if grain <= 0 {
		if n <= minGrain {
			body(0, n)
			return
		}
		grain = n/(4*p) + 1
	}
	if p == 1 || n <= grain {
		body(0, n)
		return
	}
	chunks := (n + grain - 1) / grain
	if chunks > 4*p {
		// Re-balance so that tiny grains never turn into absurd
		// numbers of chunk handoffs.
		grain = (n + 4*p - 1) / (4 * p)
		chunks = (n + grain - 1) / grain
	}
	var next atomic.Int64
	run := func() {
		for {
			i := next.Add(1) - 1
			lo := int(i) * grain
			if lo >= n {
				return
			}
			hi := lo + grain
			if hi > n {
				hi = n
			}
			body(lo, hi)
		}
	}
	helpers := p
	if helpers > chunks {
		helpers = chunks
	}
	fanOut(lctx, l, helpers-1, run)
}

// Do runs the given thunks in parallel and waits for all of them; it is
// the fork-join primitive used for "recurse on each cluster in
// parallel" (Algorithm 4 line 10).
func Do(thunks ...func()) {
	DoN(len(thunks), func(i int) { thunks[i]() })
}

// DoN runs body(i) for i in [0, n) in parallel and waits, limiting the
// number of simultaneously running invocations to Workers(). Unlike
// For it gives every i its own invocation even when n is small, which
// is what recursive algorithm fan-out wants.
func DoN(n int, body func(i int)) {
	DoNLabeled(nil, nil, 0, n, body)
}

// DoNLabeled is DoN under an execution context's limits and pprof
// labels (see ForLabeled). Bodies may themselves issue nested For/DoN
// calls: when the pool is saturated the nested call runs inline on
// the same goroutine, so recursive fan-out (the hopset recursion) can
// never deadlock on pool capacity.
func DoNLabeled(lctx context.Context, l *Limiter, p, n int, body func(i int)) {
	if n <= 0 {
		return
	}
	if n == 1 {
		body(0)
		return
	}
	if p <= 0 {
		p = Workers()
	}
	if p == 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var next atomic.Int64
	run := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			body(i)
		}
	}
	helpers := p
	if helpers > n {
		helpers = n
	}
	fanOut(lctx, l, helpers-1, run)
}
