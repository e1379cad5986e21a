package server

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	spanhop "repro"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Typed executor errors; the HTTP layer maps ErrOverloaded to 503.
var (
	ErrOverloaded = errors.New("server: query queue full")
	ErrClosed     = errors.New("server: shutting down")
)

// Executor answers queries for one ready graph: single queries
// through an LRU result cache, and every cache miss or explicit batch
// through one compute section — wait on the caller's goroutine for a
// slot of the bounded worker pool, then run
// DynamicOracle.QueryBatch (the parallel fan-out) on it. A single
// query is a batch of one, and QueryBatch is positionally identical
// to serial Query calls, so every answer is bit-identical to a serial
// DistanceOracle.Query.
//
// Backpressure: at most QueryQueue callers, single and batch alike,
// may wait for a pool slot; beyond that a call fails fast with
// ErrOverloaded instead of piling up goroutines, and a canceled ctx
// abandons the wait.
type Executor struct {
	oracle *spanhop.DynamicOracle
	n      graph.V

	sem   chan struct{} // worker-pool slots
	cache *lruCache
	stats *GraphStats

	// Cost-attribution hooks, set once by instrument() before the
	// registry publishes the entry (its mutex provides the
	// happens-before); all nil/zero on bare executors (tests, library
	// use), which then pay nothing on these paths.
	id       string
	workload *obs.Workload
	acct     *obs.Accountant
	aud      *obs.Auditor
	lblQuery context.Context // pprof labels for single-query compute
	lblBatch context.Context // pprof labels for explicit-batch compute
	// corrupt, when set (tests only), rewrites computed results before
	// caching, auditing, and response delivery — the fault-injection
	// hook that proves the answer auditor catches a wrong served
	// distance end to end. Atomic so -race tests can arm it while the
	// executor serves.
	corrupt atomic.Pointer[func(s, t graph.V, st spanhop.QueryStats) spanhop.QueryStats]
	// waiters counts calls parked on the pool, bounded by maxWaiters.
	waiters    atomic.Int64
	maxWaiters int64

	quit      chan struct{} // closed by Close: stop accepting
	closeOnce sync.Once
}

// newExecutor serves a ready oracle.
func newExecutor(oracle *spanhop.DynamicOracle, cfg Config, stats *GraphStats) *Executor {
	cfg = cfg.withDefaults()
	return &Executor{
		oracle:     oracle,
		n:          oracle.NumVertices(),
		sem:        make(chan struct{}, cfg.QueryWorkers),
		cache:      newLRUCache(cfg.CacheSize),
		stats:      stats,
		maxWaiters: int64(cfg.QueryQueue),
		quit:       make(chan struct{}),
	}
}

// instrument attaches the executor to the serving observability: the
// graph id (as profiled and accounted), the per-graph workload
// analytics, the cost accountant, and precomputed pprof label sets for
// the compute sections. The label contexts are built once here so the
// hot path never calls pprof.WithLabels (which allocates); applying a
// prebuilt context via pprof.SetGoroutineLabels is allocation-free.
func (x *Executor) instrument(id string, wl *obs.Workload, acct *obs.Accountant, aud *obs.Auditor) {
	x.id = id
	x.workload = wl
	x.acct = acct
	x.aud = aud
	x.lblQuery = pprof.WithLabels(context.Background(),
		pprof.Labels("graph", id, "op", obs.OpQuery))
	x.lblBatch = pprof.WithLabels(context.Background(),
		pprof.Labels("graph", id, "op", obs.OpBatch))
}

// checkPair validates ids up front, so a malformed query fails alone
// and before it waits for a pool slot.
func (x *Executor) checkPair(s, t graph.V) error {
	if s < 0 || s >= x.n || t < 0 || t >= x.n {
		return fmt.Errorf("server: query (%d,%d) out of range n=%d", s, t, x.n)
	}
	return nil
}

// Query answers one s-t query through the cache, and on a miss as a
// batch of one. The returned stats are bit-identical to a direct
// serial DistanceOracle.Query.
func (x *Executor) Query(ctx context.Context, s, t graph.V) (spanhop.QueryStats, error) {
	x.stats.requests.Add(1)
	if err := x.checkPair(s, t); err != nil {
		x.stats.failures.Add(1)
		return spanhop.QueryStats{}, err
	}
	select {
	case <-x.quit:
		return spanhop.QueryStats{}, ErrClosed
	default:
	}
	// The sketch sees every valid demanded pair — before the cache and
	// the pool — so /debug/workload reports the offered workload, not
	// just the computed remainder.
	x.workload.ObservePair(int32(s), int32(t))
	tr := obs.FromContext(ctx)
	start := time.Now()
	if st, ok := x.cache.get([2]graph.V{s, t}); ok {
		x.stats.cacheHits.Add(1)
		x.stats.lat.Record(time.Since(start))
		tr.SpanSince("cache", start)
		tr.Annotate("cache", "hit")
		return st, nil
	}
	tr.Annotate("cache", "miss")
	res, err := x.compute(ctx, tr, [][2]graph.V{{s, t}}, obs.OpQuery, x.lblQuery)
	if err != nil {
		return spanhop.QueryStats{}, err
	}
	x.stats.lat.Record(time.Since(start))
	return res[0], nil
}

// Batch answers an explicit batch request in one compute section. The
// caller already batched, so no pair is looked up in the cache; the
// call shares the single-query path's waiter bound and fail-fast
// contract.
func (x *Executor) Batch(ctx context.Context, pairs [][2]graph.V) ([]spanhop.QueryStats, error) {
	for _, p := range pairs {
		if err := x.checkPair(p[0], p[1]); err != nil {
			x.stats.failures.Add(1)
			return nil, err
		}
	}
	if x.workload != nil {
		for _, p := range pairs {
			x.workload.ObservePair(int32(p[0]), int32(p[1]))
		}
	}
	start := time.Now()
	res, err := x.compute(ctx, obs.FromContext(ctx), pairs, obs.OpBatch, x.lblBatch)
	if err != nil {
		return nil, err
	}
	x.stats.batchCalls.Add(1)
	x.stats.batchQueries.Add(int64(len(pairs)))
	x.stats.lat.Record(time.Since(start))
	return res, nil
}

// compute is the one path to QueryBatch. It waits on the caller's
// goroutine for a pool slot (failing fast past the waiter bound),
// pins the overlay generation for auditing, runs the batch inside an
// accountant section under the op's pprof labels, then offers audit
// samples and fills the cache before releasing the slot.
func (x *Executor) compute(ctx context.Context, tr *obs.Trace, pairs [][2]graph.V,
	op string, lbl context.Context) ([]spanhop.QueryStats, error) {
	if x.waiters.Add(1) > x.maxWaiters {
		x.waiters.Add(-1)
		x.stats.rejects.Add(1)
		return nil, ErrOverloaded
	}
	enq := time.Now()
	select {
	case x.sem <- struct{}{}:
		x.waiters.Add(-1)
	case <-x.quit:
		x.waiters.Add(-1)
		return nil, ErrClosed
	case <-ctx.Done():
		x.waiters.Add(-1)
		tr.Annotate("cancel_stage", "queue-wait")
		return nil, ctx.Err()
	}
	defer func() { <-x.sem }()
	tr.SpanSince("queue-wait", enq)
	tr.Annotate("batch_size", len(pairs))
	// Capture the cache epoch and the overlay (regime, generation)
	// before computing: if a mutation commits while QueryBatch runs,
	// the results belong to the old generation and are neither
	// re-cached nor audited.
	epoch := x.cache.epoch()
	var regime string
	var gen uint64
	if tr != nil || x.aud != nil {
		regime, gen = x.oracle.TraceInfo()
		tr.Annotate("regime", regime)
		tr.Annotate("generation", gen)
	}
	start := time.Now()
	x.stats.batches.Add(1)
	x.stats.batchedQueries.Add(int64(len(pairs)))
	cs := x.acct.Begin()
	if lbl != nil {
		// Prebuilt label context: the compute section's CPU samples
		// carry {graph, op}. Restored to the request context's labels
		// afterwards — this goroutine belongs to the HTTP server pool.
		pprof.SetGoroutineLabels(lbl)
	}
	res, err := x.oracle.QueryBatch(pairs)
	if lbl != nil {
		pprof.SetGoroutineLabels(ctx)
	}
	x.acct.End(cs, x.id, op, len(pairs), err != nil)
	tr.SpanSince("exec", start)
	if err != nil {
		x.stats.failures.Add(1)
		return nil, err
	}
	if f := x.corrupt.Load(); f != nil {
		for i := range res {
			res[i] = (*f)(pairs[i][0], pairs[i][1], res[i])
		}
	}
	if x.aud != nil {
		x.auditOffer(regime, gen, pairs, res, tr)
	}
	for i, p := range pairs {
		x.cache.put(p, res[i], epoch)
	}
	return res, nil
}

// auditOffer shadow-samples a computed batch into the auditor: every
// pair of a traced request, the rest on the deterministic every-Nth
// grid. The pre-compute (regime, gen) pin is re-read here — if either
// moved, a mutation or rebuild landed while the batch computed, and
// the answers cannot be attributed to a single generation; the whole
// batch is skipped (this is sampling, not proof, and a torn pin would
// manufacture false violations). Generations only increase, so
// equality means no mutation committed in between.
func (x *Executor) auditOffer(regime string, gen uint64, pairs [][2]graph.V,
	res []spanhop.QueryStats, tr *obs.Trace) {
	if r2, g2 := x.oracle.TraceInfo(); r2 != regime || g2 != gen {
		return
	}
	for i := range pairs {
		if tr == nil && !x.aud.SampleHit() {
			continue
		}
		s := obs.AuditSample{
			Graph:       x.id,
			S:           int32(pairs[i][0]),
			T:           int32(pairs[i][1]),
			Answer:      int64(res[i].Dist),
			Unreachable: res[i].Dist >= graph.InfDist,
			Regime:      regime,
			Gen:         gen,
		}
		if tr != nil {
			s.TraceID = tr.ID()
		}
		if x.aud.Offer(s) && tr != nil {
			tr.Annotate("audit", "sampled")
		}
	}
}

// flushCache drops every cached result. The registry calls it after a
// mutation batch commits: cached answers reflect an older generation.
func (x *Executor) flushCache() { x.cache.flush() }

// Close fails every caller still waiting for a pool slot with
// ErrClosed, then takes every slot, so it returns only once in-flight
// compute sections have finished. Safe to call more than once.
func (x *Executor) Close() {
	x.closeOnce.Do(func() {
		close(x.quit)
		for i := 0; i < cap(x.sem); i++ {
			x.sem <- struct{}{}
		}
	})
}

// ---------------------------------------------------------------------------
// LRU result cache.

// lruCache memoizes QueryStats keyed on the ordered (s, t) pair.
// Answers are exact distances at the current generation, so a cached
// result is exactly what re-running the query would return — until a
// mutation batch changes the graph, which flushes the cache and bumps
// its epoch; writers that captured an older epoch before computing
// stand down, so a batch in flight across a flush can never re-insert
// a pre-mutation answer. A rebuild swap changes no generation and no
// answer, so it keeps the cache. cap <= 0 disables caching.
type lruCache struct {
	mu  sync.Mutex
	cap int
	gen uint64 // epoch: bumped by flush
	m   map[[2]graph.V]*list.Element
	l   *list.List // front = most recently used
}

type cacheEnt struct {
	k  [2]graph.V
	st spanhop.QueryStats
}

func newLRUCache(capacity int) *lruCache {
	c := &lruCache{cap: capacity}
	if capacity > 0 {
		c.m = make(map[[2]graph.V]*list.Element, capacity)
		c.l = list.New()
	}
	return c
}

func (c *lruCache) get(k [2]graph.V) (spanhop.QueryStats, bool) {
	if c.cap <= 0 {
		return spanhop.QueryStats{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		return spanhop.QueryStats{}, false
	}
	c.l.MoveToFront(el)
	return el.Value.(*cacheEnt).st, true
}

// epoch returns the current flush epoch; capture it before computing
// a result that will be put().
func (c *lruCache) epoch() uint64 {
	if c.cap <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

func (c *lruCache) put(k [2]graph.V, st spanhop.QueryStats, epoch uint64) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch != c.gen {
		return // computed against a pre-flush generation
	}
	if el, ok := c.m[k]; ok {
		el.Value.(*cacheEnt).st = st
		c.l.MoveToFront(el)
		return
	}
	c.m[k] = c.l.PushFront(&cacheEnt{k: k, st: st})
	for c.l.Len() > c.cap {
		oldest := c.l.Back()
		c.l.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEnt).k)
	}
}

// flush empties the cache and bumps the epoch, invalidating puts
// computed before the flush. The map keeps its buckets, so a flush on
// every mutation batch allocates nothing.
func (c *lruCache) flush() {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	clear(c.m)
	c.l.Init()
}

// len reports the current cache size (tests).
func (c *lruCache) len() int {
	if c.cap <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.l.Len()
}
