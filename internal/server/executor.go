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

// servingOracle is the query surface the executor batches over — both
// the static spanhop.DistanceOracle and the mutation-absorbing
// spanhop.DynamicOracle implement it. The registry always hands the
// executor a dynamic oracle so mutations are visible to queries the
// moment ApplyUpdates returns.
type servingOracle interface {
	QueryStats(s, t graph.V) (spanhop.QueryStats, error)
	QueryBatch(pairs [][2]graph.V) ([]spanhop.QueryStats, error)
	NumVertices() int32
}

// request is one single query waiting to be coalesced.
type request struct {
	s, t graph.V
	ch   chan response
	enq  time.Time
	// tr is the request's trace, nil on the untraced hot path — the
	// dispatch loop checks the pointer once per request and otherwise
	// touches nothing.
	tr *obs.Trace
}

// traceInfoer is the optional oracle surface traces read for overlay
// attribution. The dynamic facade implements it; bare static oracles
// (reference tests) need not.
type traceInfoer interface {
	TraceInfo() (regime string, gen uint64)
}

type response struct {
	st  spanhop.QueryStats
	err error
}

// Executor turns concurrently arriving single queries into QueryBatch
// fan-outs. A collector goroutine takes the first queued request,
// waits for a free slot of the bounded worker pool, and only then
// gathers whatever else queued meanwhile (up to MaxBatch) into one
// micro-batch; the pool runs DistanceOracle.QueryBatch (the parallel
// fan-out) and distributes results. The collector never waits while a
// slot is free, so an idle executor answers a miss at once, and
// batches form exactly when the pool is busy. Because QueryBatch is
// positionally identical to serial Query calls, coalescing changes
// wall-clock shape only, never an answer.
//
// Backpressure: the request queue is a bounded channel and Query never
// blocks on a full one — it fails fast with ErrOverloaded. When every
// pool worker is busy the collector itself blocks waiting for a slot,
// the queue fills, and overload propagates to callers as typed errors
// rather than unbounded goroutine pileup.
type Executor struct {
	oracle servingOracle
	n      graph.V
	maxB   int

	reqs  chan request
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
	lblQuery context.Context // pprof labels for coalesced-batch compute
	lblBatch context.Context // pprof labels for explicit-batch compute
	// corrupt, when set (tests only), rewrites computed results before
	// caching, auditing, and response delivery — the fault-injection
	// hook that proves the answer auditor catches a wrong served
	// distance end to end. Atomic so -race tests can arm it while the
	// executor serves.
	corrupt atomic.Pointer[func(s, t graph.V, st spanhop.QueryStats) spanhop.QueryStats]
	// batchWaiters bounds explicit Batch calls parked on the pool, so
	// batch traffic gets the same fail-fast contract as the coalesced
	// path instead of unbounded goroutine pileup.
	batchWaiters atomic.Int64
	maxWaiters   int64

	quit chan struct{} // closed by Close: stop accepting
	done chan struct{} // closed when the collector has drained
	wg   sync.WaitGroup

	closeOnce sync.Once
}

// newExecutor starts the collector for a ready oracle.
func newExecutor(oracle servingOracle, cfg Config, stats *GraphStats) *Executor {
	cfg = cfg.withDefaults()
	x := &Executor{
		oracle: oracle,
		n:      oracle.NumVertices(),
		maxB:   cfg.MaxBatch,
		reqs:   make(chan request, cfg.QueryQueue),
		sem:    make(chan struct{}, cfg.QueryWorkers),
		cache:  newLRUCache(cfg.CacheSize),
		stats:  stats,
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	x.maxWaiters = int64(cfg.QueryQueue)
	go x.collect()
	return x
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

// recordQuery feeds the workload analytics' RED counters with one
// completed single-query operation. The count reflects demanded
// queries — failures count too — matching ObservePair's at-entry
// semantics.
func (x *Executor) recordQuery(d time.Duration, failed bool) {
	x.workload.RecordOp(obs.OpQuery, 1, d, failed)
}

// checkPair validates ids before enqueueing, so one malformed query
// can never poison the whole micro-batch it would have joined
// (QueryBatch fails a batch on its first invalid pair).
func (x *Executor) checkPair(s, t graph.V) error {
	if s < 0 || s >= x.n || t < 0 || t >= x.n {
		return fmt.Errorf("server: query (%d,%d) out of range n=%d", s, t, x.n)
	}
	return nil
}

// Query answers one s-t query through the cache and the coalescing
// path. The returned stats are bit-identical to a direct serial
// DistanceOracle.Query.
func (x *Executor) Query(ctx context.Context, s, t graph.V) (spanhop.QueryStats, error) {
	x.stats.requests.Add(1)
	if err := x.checkPair(s, t); err != nil {
		x.stats.failures.Add(1)
		x.recordQuery(0, true)
		return spanhop.QueryStats{}, err
	}
	select {
	case <-x.quit:
		return spanhop.QueryStats{}, ErrClosed
	default:
	}
	// The sketch sees every valid demanded pair — before the cache and
	// the queue — so /debug/workload reports the offered workload, not
	// just the computed remainder.
	x.workload.ObservePair(int32(s), int32(t))
	tr := obs.FromContext(ctx)
	start := time.Now()
	if st, ok := x.cache.get([2]graph.V{s, t}); ok {
		x.stats.cacheHits.Add(1)
		x.stats.lat.Record(time.Since(start))
		x.recordQuery(time.Since(start), false)
		tr.SpanSince("cache", start)
		tr.Annotate("cache", "hit")
		return st, nil
	}
	tr.Annotate("cache", "miss")
	r := request{s: s, t: t, ch: make(chan response, 1), enq: start, tr: tr}
	select {
	case x.reqs <- r:
	default:
		x.stats.rejects.Add(1)
		x.recordQuery(time.Since(start), true)
		return spanhop.QueryStats{}, ErrOverloaded
	}
	select {
	case resp := <-r.ch:
		if resp.err != nil {
			x.stats.failures.Add(1)
			x.recordQuery(time.Since(start), true)
			return spanhop.QueryStats{}, resp.err
		}
		x.stats.lat.Record(time.Since(start))
		x.recordQuery(time.Since(start), false)
		return resp.st, nil
	case <-ctx.Done():
		// The response channel is buffered, so the batch worker that
		// eventually answers doesn't leak; the result is dropped. The
		// queue-wait span is recorded at dispatch, so its absence means
		// the request died waiting for a pool slot.
		if tr.HasSpan("queue-wait") {
			tr.Annotate("cancel_stage", "exec")
		} else {
			tr.Annotate("cancel_stage", "queue-wait")
		}
		x.recordQuery(time.Since(start), true)
		return spanhop.QueryStats{}, ctx.Err()
	case <-x.done:
		// Collector exited; a response may still have raced in (or may
		// yet arrive from an in-flight batch — shutdown forfeits it).
		select {
		case resp := <-r.ch:
			return resp.st, resp.err
		default:
			return spanhop.QueryStats{}, ErrClosed
		}
	}
}

// Batch answers an explicit batch request through the worker pool
// (bounded like the coalesced path, but bypassing the collector — the
// caller already batched). At most QueryQueue batch calls may
// wait for a pool slot; beyond that Batch fails fast with
// ErrOverloaded, and a canceled ctx abandons the wait.
func (x *Executor) Batch(ctx context.Context, pairs [][2]graph.V) ([]spanhop.QueryStats, error) {
	for _, p := range pairs {
		if err := x.checkPair(p[0], p[1]); err != nil {
			x.stats.failures.Add(1)
			x.workload.RecordOp(obs.OpBatch, len(pairs), 0, true)
			return nil, err
		}
	}
	if x.workload != nil {
		for _, p := range pairs {
			x.workload.ObservePair(int32(p[0]), int32(p[1]))
		}
	}
	if x.batchWaiters.Add(1) > x.maxWaiters {
		x.batchWaiters.Add(-1)
		x.stats.rejects.Add(1)
		x.workload.RecordOp(obs.OpBatch, len(pairs), 0, true)
		return nil, ErrOverloaded
	}
	defer x.batchWaiters.Add(-1)
	tr := obs.FromContext(ctx)
	enq := time.Now()
	select {
	case <-x.quit:
		return nil, ErrClosed
	case <-ctx.Done():
		tr.Annotate("cancel_stage", "queue-wait")
		x.workload.RecordOp(obs.OpBatch, len(pairs), time.Since(enq), true)
		return nil, ctx.Err()
	case x.sem <- struct{}{}:
	}
	defer func() { <-x.sem }()
	tr.SpanSince("queue-wait", enq)
	tr.Annotate("batch_size", len(pairs))
	x.annotateOracle(tr)
	start := time.Now()
	x.stats.batchCalls.Add(1)
	x.stats.batchQueries.Add(int64(len(pairs)))
	// Capture the cache epoch before computing: if a mutation batch
	// flushes the cache while this QueryBatch runs, the results below
	// belong to the old generation and must not be re-cached.
	epoch := x.cache.epoch()
	regime, gen, auditing := x.auditInfo()
	cs := x.acct.Begin()
	if x.lblBatch != nil {
		// Prebuilt label context: the compute section's CPU samples
		// carry {graph, op}. Restored to the request context's labels
		// afterwards — this goroutine belongs to the HTTP server pool.
		pprof.SetGoroutineLabels(x.lblBatch)
	}
	res, err := x.oracle.QueryBatch(pairs)
	if x.lblBatch != nil {
		pprof.SetGoroutineLabels(ctx)
	}
	x.acct.End(cs, x.id, obs.OpBatch, len(pairs), err != nil)
	if f := x.corrupt.Load(); f != nil && err == nil {
		for i := range res {
			res[i] = (*f)(pairs[i][0], pairs[i][1], res[i])
		}
	}
	tr.SpanSince("exec", start)
	x.workload.RecordOp(obs.OpBatch, len(pairs), time.Since(start), err != nil)
	if err != nil {
		x.stats.failures.Add(1)
		return nil, err
	}
	if auditing {
		x.auditOffer(regime, gen, pairs, res, func(int) *obs.Trace { return tr })
	}
	for i, p := range pairs {
		x.cache.put(p, res[i], epoch)
	}
	x.stats.lat.Record(time.Since(start))
	return res, nil
}

// collect is the dispatch loop. It blocks for the first queued
// request, then for a free pool slot, and only then takes into the
// batch whatever else queued meanwhile, up to MaxBatch, without
// blocking. An idle pool therefore answers a miss at once, and a busy
// one still coalesces: requests pile up while every slot is working.
func (x *Executor) collect() {
	defer close(x.done)
	for {
		var first request
		select {
		case first = <-x.reqs:
		case <-x.quit:
			x.failQueued()
			return
		}
		select {
		case x.sem <- struct{}{}:
		case <-x.quit:
			first.ch <- response{err: ErrClosed}
			x.failQueued()
			return
		}
		batch := []request{first}
	drain:
		for len(batch) < x.maxB {
			select {
			case r := <-x.reqs:
				batch = append(batch, r)
			default:
				break drain
			}
		}
		x.dispatch(batch)
	}
}

// failQueued answers every request still queued with ErrClosed, so
// each caller gets a definitive response at shutdown.
func (x *Executor) failQueued() {
	for {
		select {
		case r := <-x.reqs:
			r.ch <- response{err: ErrClosed}
		default:
			return
		}
	}
}

// dispatch runs one batch on the pool slot the collector acquired for
// it and releases the slot when the results are delivered.
func (x *Executor) dispatch(batch []request) {
	x.wg.Add(1)
	go func() {
		defer func() {
			<-x.sem
			x.wg.Done()
		}()
		pairs := make([][2]graph.V, len(batch))
		traced := false
		for i, r := range batch {
			pairs[i] = [2]graph.V{r.s, r.t}
			traced = traced || r.tr != nil
		}
		if traced {
			now := time.Now()
			for _, r := range batch {
				if r.tr == nil {
					continue
				}
				r.tr.SpanDur("queue-wait", r.enq, now.Sub(r.enq))
				r.tr.Annotate("batch_size", len(batch))
				x.annotateOracle(r.tr)
			}
		}
		x.stats.coalesced.Add(1)
		x.stats.coalescedQueries.Add(int64(len(batch)))
		epoch := x.cache.epoch()
		regime, gen, auditing := x.auditInfo()
		t0 := time.Time{}
		if traced {
			t0 = time.Now()
		}
		cs := x.acct.Begin()
		if x.lblQuery != nil {
			// This goroutine is batch-scoped, so the labels simply ride
			// to its end; result distribution below is this graph's work
			// too.
			pprof.SetGoroutineLabels(x.lblQuery)
		}
		res, err := x.oracle.QueryBatch(pairs)
		x.acct.End(cs, x.id, obs.OpQuery, len(batch), err != nil)
		if f := x.corrupt.Load(); f != nil && err == nil {
			for i := range res {
				res[i] = (*f)(pairs[i][0], pairs[i][1], res[i])
			}
		}
		var dur time.Duration
		if traced {
			dur = time.Since(t0)
		}
		if auditing && err == nil {
			// Offer before responses ship: sampled traces gain their
			// "audit" attribute while the handler still owns the trace.
			x.auditOffer(regime, gen, pairs, res,
				func(i int) *obs.Trace { return batch[i].tr })
		}
		for i, r := range batch {
			if r.tr != nil {
				r.tr.SpanDur("exec", t0, dur)
			}
			if err != nil {
				r.ch <- response{err: err}
				continue
			}
			x.cache.put(pairs[i], res[i], epoch)
			r.ch <- response{st: res[i]}
		}
	}()
}

// annotateOracle pins the overlay regime and generation onto a trace
// when the serving oracle exposes them. No-op for nil traces and for
// oracles without TraceInfo.
func (x *Executor) annotateOracle(tr *obs.Trace) {
	if tr == nil {
		return
	}
	if ti, ok := x.oracle.(traceInfoer); ok {
		regime, gen := ti.TraceInfo()
		tr.Annotate("regime", regime)
		tr.Annotate("generation", gen)
	}
}

// auditInfo pins the overlay regime and generation before a batch
// computes, so audit samples carry the generation their answers were
// actually served from. ok is false when auditing is off for this
// executor or the oracle exposes no generation to pin.
func (x *Executor) auditInfo() (regime string, gen uint64, ok bool) {
	if x.aud == nil {
		return "", 0, false
	}
	ti, isTI := x.oracle.(traceInfoer)
	if !isTI {
		return "", 0, false
	}
	regime, gen = ti.TraceInfo()
	return regime, gen, true
}

// auditOffer shadow-samples a computed batch into the auditor: traced
// requests always, the rest on the deterministic every-Nth grid. The
// pre-compute (regime, gen) pin is re-read here — if either moved, a
// mutation or rebuild landed while the batch computed, and the
// answers cannot be attributed to a single generation; the whole
// batch is skipped (this is sampling, not proof, and a torn pin would
// manufacture false violations). Generations only increase, so
// equality means no mutation committed in between.
func (x *Executor) auditOffer(regime string, gen uint64, pairs [][2]graph.V,
	res []spanhop.QueryStats, trOf func(i int) *obs.Trace) {
	r2, g2, ok := x.auditInfo()
	if !ok || r2 != regime || g2 != gen {
		return
	}
	for i := range pairs {
		tr := trOf(i)
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

// Close stops the collector, fails queued requests with ErrClosed,
// and waits for in-flight batches. Safe to call more than once.
func (x *Executor) Close() {
	x.closeOnce.Do(func() {
		close(x.quit)
		<-x.done
		x.wg.Wait()
	})
}

// ---------------------------------------------------------------------------
// LRU result cache.

// lruCache memoizes QueryStats keyed on the ordered (s, t) pair.
// Query answers are deterministic for a built oracle, so a cached
// result is exactly what re-running the query would return — until a
// mutation or rebuild changes the graph, which flushes the cache and
// bumps its epoch; writers that captured an older epoch before
// computing stand down, so a batch in flight across a flush can never
// re-insert a pre-mutation answer. cap <= 0 disables caching.
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
// computed before the flush.
func (c *lruCache) flush() {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	c.m = make(map[[2]graph.V]*list.Element, c.cap)
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
