package server

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	spanhop "repro"
	"repro/internal/graph"
	"repro/internal/rng"
)

// testOracle builds a small weighted oracle shared by executor tests.
func testOracle(t *testing.T) *spanhop.DistanceOracle {
	t.Helper()
	g := graph.UniformWeights(graph.RandomConnectedGNM(256, 1024, 3), 40, 4)
	return spanhop.NewDistanceOracle(g, 0.3, 5)
}

func withProcs(t *testing.T, p int, body func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(old)
	body()
}

// TestCoalescingMatchesSerial is the serving-path differential test:
// many goroutines hammer the executor with single queries; every
// answer must be bit-identical to a serial DistanceOracle.Query, and
// a busy pool must demonstrably coalesce (mean batch size > 1). The
// pool is held until every worker's first query is queued, so at
// least that first batch is formed while all slots are busy.
// Runs under -race in CI.
func TestCoalescingMatchesSerial(t *testing.T) {
	withProcs(t, 4, func() {
		oracle := testOracle(t)
		stats := &GraphStats{}
		x := newExecutor(oracle, Config{
			MaxBatch:     1024,
			QueryWorkers: 4,
			QueryQueue:   4096,
			CacheSize:    -1, // force every query through the batching path
		}, stats)
		defer x.Close()
		wedge(x)

		const workers = 8
		const perWorker = 40
		type res struct {
			s, t graph.V
			st   spanhop.QueryStats
		}
		results := make([][]res, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				r := rng.New(uint64(100 + w))
				for i := 0; i < perWorker; i++ {
					s := r.Int31n(256)
					u := r.Int31n(256)
					st, err := x.Query(context.Background(), s, u)
					if err != nil {
						t.Errorf("worker %d: Query(%d,%d): %v", w, s, u, err)
						return
					}
					results[w] = append(results[w], res{s: s, t: u, st: st})
				}
			}(w)
		}
		// The collector holds one first query while it waits for a
		// slot; the other workers' first queries queue behind it.
		queued := waitQueued(x, workers-1)
		unwedge(x)
		if !queued {
			t.Fatalf("%d queries queued, want %d", len(x.reqs), workers-1)
		}
		wg.Wait()
		if t.Failed() {
			return
		}

		for w, rs := range results {
			for _, r := range rs {
				want, err := oracle.QueryStats(r.s, r.t)
				if err != nil {
					t.Fatal(err)
				}
				if r.st != want {
					t.Fatalf("worker %d: coalesced Query(%d,%d) = %+v, serial = %+v",
						w, r.s, r.t, r.st, want)
				}
			}
		}

		snap := stats.Snapshot()
		if snap.Requests != workers*perWorker {
			t.Fatalf("requests = %d, want %d", snap.Requests, workers*perWorker)
		}
		if snap.BatchedQueries != workers*perWorker {
			t.Fatalf("batched queries = %d, want %d", snap.BatchedQueries, workers*perWorker)
		}
		if snap.Batches == 0 || snap.MeanBatchSize <= 1 {
			t.Fatalf("coalescing did not batch: %d batches, mean size %.2f",
				snap.Batches, snap.MeanBatchSize)
		}
		if snap.Latency.Count != workers*perWorker {
			t.Fatalf("latency count = %d, want %d", snap.Latency.Count, workers*perWorker)
		}
	})
}

func TestExecutorCacheHits(t *testing.T) {
	oracle := testOracle(t)
	stats := &GraphStats{}
	x := newExecutor(oracle, Config{CacheSize: 16}, stats)
	defer x.Close()

	first, err := x.Query(context.Background(), 3, 77)
	if err != nil {
		t.Fatal(err)
	}
	second, err := x.Query(context.Background(), 3, 77)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("cache returned a different answer: %+v vs %+v", first, second)
	}
	snap := stats.Snapshot()
	if snap.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", snap.CacheHits)
	}
	if x.cache.len() != 1 {
		t.Fatalf("cache len = %d, want 1", x.cache.len())
	}
}

func TestExecutorBatchAPI(t *testing.T) {
	oracle := testOracle(t)
	stats := &GraphStats{}
	x := newExecutor(oracle, Config{}, stats)
	defer x.Close()

	pairs := [][2]graph.V{{0, 10}, {20, 30}, {7, 7}}
	got, err := x.Batch(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.QueryBatch(pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pairs {
		if got[i] != want[i] {
			t.Fatalf("Batch[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	snap := stats.Snapshot()
	if snap.BatchCalls != 1 || snap.BatchCallQueries != 3 {
		t.Fatalf("batch counters = %d/%d, want 1/3", snap.BatchCalls, snap.BatchCallQueries)
	}

	if _, err := x.Batch(context.Background(), [][2]graph.V{{0, 999}}); err == nil {
		t.Fatal("out-of-range batch pair accepted")
	}
}

// TestExecutorValidationIsolated: a malformed single query errors
// synchronously and never joins (and so never fails) a micro-batch.
func TestExecutorValidationIsolated(t *testing.T) {
	oracle := testOracle(t)
	stats := &GraphStats{}
	x := newExecutor(oracle, Config{}, stats)
	defer x.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := x.Query(context.Background(), 1, 2); err != nil {
			t.Errorf("valid query failed alongside invalid one: %v", err)
		}
	}()
	if _, err := x.Query(context.Background(), 1, 9999); err == nil {
		t.Fatal("out-of-range query accepted")
	}
	wg.Wait()
	if snap := stats.Snapshot(); snap.Failures != 1 {
		t.Fatalf("failures = %d, want 1", snap.Failures)
	}
}

// TestExecutorBackpressure: with the worker pool wedged and a tiny
// queue, surplus queries must fail fast with ErrOverloaded, and the
// survivors must still answer correctly once the pool frees up.
func TestExecutorBackpressure(t *testing.T) {
	oracle := testOracle(t)
	stats := &GraphStats{}
	x := newExecutor(oracle, Config{
		MaxBatch:     1,
		QueryWorkers: 1,
		QueryQueue:   2,
		CacheSize:    -1,
	}, stats)
	defer x.Close()

	x.sem <- struct{}{} // wedge the only pool slot
	const n = 6
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := x.Query(context.Background(), graph.V(i), graph.V(i+10))
			errs <- err
		}(i)
	}
	// Capacity while wedged: 1 held by the collector waiting for a
	// slot + 2 in the queue; at least 3 of 6 must be rejected. Wait
	// for that before releasing the pool.
	deadline := time.Now().Add(10 * time.Second)
	for stats.rejects.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	<-x.sem // release the pool
	wg.Wait()
	close(errs)

	var overloaded, ok int
	for err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrOverloaded):
			overloaded++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if overloaded < 3 {
		t.Fatalf("overloaded = %d, want >= 3 of %d", overloaded, n)
	}
	if ok != n-overloaded {
		t.Fatalf("ok = %d, want %d", ok, n-overloaded)
	}
	if got := stats.Snapshot().Rejects; got != int64(overloaded) {
		t.Fatalf("rejects counter = %d, want %d", got, overloaded)
	}
}

// TestExecutorBatchOverload: explicit batch calls share the fail-fast
// contract — with the pool wedged and the waiter bound at QueryQueue,
// surplus Batch calls get ErrOverloaded and a canceled ctx frees a
// parked one.
func TestExecutorBatchOverload(t *testing.T) {
	oracle := testOracle(t)
	stats := &GraphStats{}
	x := newExecutor(oracle, Config{QueryWorkers: 1, QueryQueue: 1}, stats)
	defer x.Close()

	x.sem <- struct{}{} // wedge the pool
	ctx, cancel := context.WithCancel(context.Background())
	parked := make(chan error, 1)
	go func() {
		_, err := x.Batch(ctx, [][2]graph.V{{0, 1}})
		parked <- err
	}()
	// Wait for the goroutine to occupy the single waiter slot.
	deadline := time.Now().Add(10 * time.Second)
	for x.batchWaiters.Load() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, err := x.Batch(context.Background(), [][2]graph.V{{2, 3}}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second Batch = %v, want ErrOverloaded", err)
	}
	cancel()
	if err := <-parked; !errors.Is(err, context.Canceled) {
		t.Fatalf("parked Batch = %v, want context.Canceled", err)
	}
	<-x.sem // release for Close
	if got := stats.Snapshot().Rejects; got != 1 {
		t.Fatalf("rejects = %d, want 1", got)
	}
}

// TestExecutorCloseFailsPending: queries parked behind a busy pool
// when Close runs (one held by the collector, one still queued) get
// ErrClosed, not a hang.
func TestExecutorCloseFailsPending(t *testing.T) {
	oracle := testOracle(t)
	x := newExecutor(oracle, Config{}, &GraphStats{})
	wedge(x) // no slot frees before Close
	const pending = 2
	done := make(chan error, pending)
	for i := 0; i < pending; i++ {
		go func() {
			_, err := x.Query(context.Background(), 0, 1)
			done <- err
		}()
	}
	if !waitQueued(x, 1) {
		t.Fatal("no query reached the queue")
	}
	x.Close()
	for i := 0; i < pending; i++ {
		select {
		case err := <-done:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("pending query got %v, want ErrClosed", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("pending query hung across Close")
		}
	}
	if _, err := x.Query(context.Background(), 0, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Query after Close = %v, want ErrClosed", err)
	}
}

// TestExecutorCoalescesWhilePoolBusy: requests that queue while every
// pool slot is busy leave together, as one batch, on the first slot
// that frees up.
func TestExecutorCoalescesWhilePoolBusy(t *testing.T) {
	oracle := testOracle(t)
	stats := &GraphStats{}
	x := newExecutor(oracle, Config{QueryWorkers: 2, CacheSize: -1}, stats)
	defer x.Close()

	wedge(x)
	const k = 5
	type res struct {
		s, t graph.V
		st   spanhop.QueryStats
		err  error
	}
	out := make(chan res, k)
	for i := 0; i < k; i++ {
		go func(s, u graph.V) {
			st, err := x.Query(context.Background(), s, u)
			out <- res{s: s, t: u, st: st, err: err}
		}(graph.V(i), graph.V(200-i))
	}
	// One request is held by the collector, waiting for a slot; the
	// other k-1 queue behind it.
	if !waitQueued(x, k-1) {
		unwedge(x)
		t.Fatalf("%d queries queued, want %d", len(x.reqs), k-1)
	}
	<-x.sem // free one slot
	for i := 0; i < k; i++ {
		r := <-out
		if r.err != nil {
			t.Fatalf("Query(%d,%d): %v", r.s, r.t, r.err)
		}
		want, err := oracle.QueryStats(r.s, r.t)
		if err != nil {
			t.Fatal(err)
		}
		if r.st != want {
			t.Fatalf("Query(%d,%d) = %+v, serial = %+v", r.s, r.t, r.st, want)
		}
	}
	for i := 1; i < cap(x.sem); i++ {
		<-x.sem // the slots still held
	}
	if snap := stats.Snapshot(); snap.Batches != 1 || snap.BatchedQueries != k {
		t.Fatalf("batches = %d of %d queries, want 1 of %d",
			snap.Batches, snap.BatchedQueries, k)
	}
}

// TestExecutorIdleDispatchesAtOnce: sequential misses on an idle
// executor each run as their own batch — a miss never waits for
// company while a pool slot is free.
func TestExecutorIdleDispatchesAtOnce(t *testing.T) {
	oracle := testOracle(t)
	stats := &GraphStats{}
	x := newExecutor(oracle, Config{CacheSize: -1}, stats)
	defer x.Close()

	const n = 50
	for i := 0; i < n; i++ {
		if _, err := x.Query(context.Background(), graph.V(i), graph.V(255-i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := stats.Snapshot()
	if snap.Requests != n || snap.Batches != snap.Requests {
		t.Fatalf("%d requests ran as %d batches, want %d of each",
			snap.Requests, snap.Batches, n)
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2)
	st := func(d graph.Dist) spanhop.QueryStats { return spanhop.QueryStats{Dist: d} }
	c.put([2]graph.V{0, 1}, st(10), c.epoch())
	c.put([2]graph.V{0, 2}, st(20), c.epoch())
	c.get([2]graph.V{0, 1}) // refresh 0-1
	c.put([2]graph.V{0, 3}, st(30), c.epoch())
	if _, ok := c.get([2]graph.V{0, 2}); ok {
		t.Fatal("LRU kept the stale entry")
	}
	if got, ok := c.get([2]graph.V{0, 1}); !ok || got.Dist != 10 {
		t.Fatal("LRU evicted the refreshed entry")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

// TestLRUCacheEpochFlush: a put whose result was computed before a
// flush (stale epoch) is dropped — the guard that keeps an in-flight
// batch from resurrecting pre-mutation answers.
func TestLRUCacheEpochFlush(t *testing.T) {
	c := newLRUCache(4)
	st := func(d graph.Dist) spanhop.QueryStats { return spanhop.QueryStats{Dist: d} }
	old := c.epoch()
	c.flush()
	c.put([2]graph.V{0, 1}, st(10), old) // computed pre-flush: must not land
	if _, ok := c.get([2]graph.V{0, 1}); ok {
		t.Fatal("stale-epoch put landed in the cache")
	}
	if c.len() != 0 {
		t.Fatalf("len = %d, want 0", c.len())
	}
	c.put([2]graph.V{0, 1}, st(11), c.epoch())
	if got, ok := c.get([2]graph.V{0, 1}); !ok || got.Dist != 11 {
		t.Fatal("fresh-epoch put missing")
	}
}

func TestLatencyHistogram(t *testing.T) {
	var h latencyHist
	h.Record(30 * time.Microsecond)
	h.Record(70 * time.Microsecond)
	h.Record(3 * time.Millisecond)
	snap := h.Snapshot()
	if snap.Count != 3 {
		t.Fatalf("count = %d", snap.Count)
	}
	if snap.Buckets[0] != 1 || snap.Buckets[1] != 1 {
		t.Fatalf("buckets = %v", snap.Buckets)
	}
	if snap.MaxUS != 3000 {
		t.Fatalf("max = %d", snap.MaxUS)
	}
	if snap.P50US == 0 || snap.P99US < snap.P50US {
		t.Fatalf("quantiles = %d/%d", snap.P50US, snap.P99US)
	}
}

// wedge takes every pool slot of x, so the collector parks the next
// request it receives until unwedge gives the slots back.
func wedge(x *Executor) {
	for i := 0; i < cap(x.sem); i++ {
		x.sem <- struct{}{}
	}
}

func unwedge(x *Executor) {
	for i := 0; i < cap(x.sem); i++ {
		<-x.sem
	}
}

// waitQueued reports whether k requests sit in x's queue within 10 s.
func waitQueued(x *Executor, k int) bool {
	deadline := time.Now().Add(10 * time.Second)
	for len(x.reqs) < k {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}
