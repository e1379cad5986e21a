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

// testOracle builds a small weighted hopset oracle shared by executor
// tests: concurrent queries race on its lazily built query graph.
func testOracle(t *testing.T) *spanhop.DistanceOracle {
	t.Helper()
	g := graph.UniformWeights(graph.RandomConnectedGNM(256, 1024, 3), 40, 4)
	return spanhop.NewDistanceOracleOpts(g, 0.3, 5, spanhop.OracleOptions{Hopset: true})
}

// served wraps a static oracle in the dynamic facade the registry
// serves through, with rebuilds off.
func served(t *testing.T, o *spanhop.DistanceOracle) *spanhop.DynamicOracle {
	t.Helper()
	d := spanhop.NewDynamicOracle(o, spanhop.RebuildPolicy{Disabled: true})
	t.Cleanup(d.Close)
	return d
}

func withProcs(t *testing.T, p int, body func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(old)
	body()
}

// TestExecutorConcurrentMatchesSerial is the serving-path
// differential test: many goroutines hammer the executor with single
// queries; every answer must be bit-identical to a serial
// DistanceOracle.Query, and every miss must be exactly one oracle
// call. The pool is held until every worker's first query waits for
// it, so those queries all meet a busy pool. Runs under -race in CI.
func TestExecutorConcurrentMatchesSerial(t *testing.T) {
	withProcs(t, 4, func() {
		oracle := testOracle(t)
		stats := &GraphStats{}
		x := newExecutor(served(t, oracle), Config{
			QueryWorkers: 4,
			QueryQueue:   4096,
			CacheSize:    -1, // force every query through the compute section
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
		waiting := waitWaiters(x, workers)
		unwedge(x)
		if !waiting {
			t.Fatalf("%d queries waiting, want %d", x.waiters.Load(), workers)
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
					t.Fatalf("worker %d: concurrent Query(%d,%d) = %+v, serial = %+v",
						w, r.s, r.t, r.st, want)
				}
			}
		}

		snap := stats.Snapshot()
		if snap.Requests != workers*perWorker {
			t.Fatalf("requests = %d, want %d", snap.Requests, workers*perWorker)
		}
		if snap.Batches != workers*perWorker || snap.BatchedQueries != workers*perWorker {
			t.Fatalf("%d queries ran as %d oracle calls, want %d of each",
				snap.BatchedQueries, snap.Batches, workers*perWorker)
		}
		if snap.Latency.Count != workers*perWorker {
			t.Fatalf("latency count = %d, want %d", snap.Latency.Count, workers*perWorker)
		}
	})
}

func TestExecutorCacheHits(t *testing.T) {
	oracle := testOracle(t)
	stats := &GraphStats{}
	x := newExecutor(served(t, oracle), Config{CacheSize: 16}, stats)
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
	x := newExecutor(served(t, oracle), Config{}, stats)
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
// synchronously and never fails a concurrent valid one.
func TestExecutorValidationIsolated(t *testing.T) {
	oracle := testOracle(t)
	stats := &GraphStats{}
	x := newExecutor(served(t, oracle), Config{}, stats)
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
	x := newExecutor(served(t, oracle), Config{
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
	// Capacity while wedged: the 2 waiters QueryQueue admits; the
	// other 4 of 6 must be rejected. Wait for that before releasing
	// the pool.
	deadline := time.Now().Add(10 * time.Second)
	for stats.rejects.Load() < n-2 && time.Now().Before(deadline) {
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
	if overloaded != n-2 {
		t.Fatalf("overloaded = %d, want %d of %d", overloaded, n-2, n)
	}
	if ok != n-overloaded {
		t.Fatalf("ok = %d, want %d", ok, n-overloaded)
	}
	if got := stats.Snapshot().Rejects; got != int64(overloaded) {
		t.Fatalf("rejects counter = %d, want %d", got, overloaded)
	}
}

// TestExecutorBatchOverload: explicit batch calls and single queries
// share one waiter bound — with the pool wedged and QueryQueue = 1, a
// parked Batch turns away both a second Batch and a single-query miss
// with ErrOverloaded, and a canceled ctx frees the parked one.
func TestExecutorBatchOverload(t *testing.T) {
	oracle := testOracle(t)
	stats := &GraphStats{}
	x := newExecutor(served(t, oracle), Config{QueryWorkers: 1, QueryQueue: 1}, stats)
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
	for x.waiters.Load() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, err := x.Batch(context.Background(), [][2]graph.V{{2, 3}}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second Batch = %v, want ErrOverloaded", err)
	}
	if _, err := x.Query(context.Background(), 4, 5); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("single Query = %v, want ErrOverloaded", err)
	}
	cancel()
	if err := <-parked; !errors.Is(err, context.Canceled) {
		t.Fatalf("parked Batch = %v, want context.Canceled", err)
	}
	<-x.sem // release for Close
	if got := stats.Snapshot().Rejects; got != 2 {
		t.Fatalf("rejects = %d, want 2", got)
	}
}

// TestExecutorCloseFailsPending: queries and batches waiting for a
// busy pool when Close runs get ErrClosed, not a hang, and Close
// itself returns once the compute slots it waits on are free.
func TestExecutorCloseFailsPending(t *testing.T) {
	oracle := testOracle(t)
	x := newExecutor(served(t, oracle), Config{}, &GraphStats{})
	wedge(x) // no slot frees before Close
	const pending = 3
	done := make(chan error, pending)
	for i := 0; i < pending-1; i++ {
		go func() {
			_, err := x.Query(context.Background(), 0, 1)
			done <- err
		}()
	}
	go func() {
		_, err := x.Batch(context.Background(), [][2]graph.V{{2, 3}})
		done <- err
	}()
	if !waitWaiters(x, pending) {
		t.Fatalf("%d calls waiting, want %d", x.waiters.Load(), pending)
	}
	closed := make(chan struct{})
	go func() {
		x.Close()
		close(closed)
	}()
	for i := 0; i < pending; i++ {
		select {
		case err := <-done:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("pending call got %v, want ErrClosed", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("pending call hung across Close")
		}
	}
	unwedge(x) // stands in for the compute sections Close waits out
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung after the pool freed")
	}
	if _, err := x.Query(context.Background(), 0, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Query after Close = %v, want ErrClosed", err)
	}
	if _, err := x.Batch(context.Background(), [][2]graph.V{{0, 1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Batch after Close = %v, want ErrClosed", err)
	}
}

// TestExecutorIdleDispatchesAtOnce: sequential misses on an idle
// executor each run as their own oracle call, at once.
func TestExecutorIdleDispatchesAtOnce(t *testing.T) {
	oracle := testOracle(t)
	stats := &GraphStats{}
	x := newExecutor(served(t, oracle), Config{CacheSize: -1}, stats)
	defer x.Close()

	const n = 50
	for i := 0; i < n; i++ {
		if _, err := x.Query(context.Background(), graph.V(i), graph.V(255-i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := stats.Snapshot()
	if snap.Requests != n || snap.Batches != snap.Requests {
		t.Fatalf("%d requests ran as %d oracle calls, want %d of each",
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

// TestLRUCacheFlushAllocatesNothing: a flush runs on every mutation
// batch and every rebuild swap, so it empties the cache in place —
// the map keeps its buckets — instead of allocating a fresh
// 4,096-entry map; the emptied cache still serves.
func TestLRUCacheFlushAllocatesNothing(t *testing.T) {
	c := newLRUCache(4096)
	for i := graph.V(0); i < 4096; i++ {
		c.put([2]graph.V{i, i + 1}, spanhop.QueryStats{Dist: graph.Dist(i)}, c.epoch())
	}
	if allocs := testing.AllocsPerRun(20, c.flush); allocs != 0 {
		t.Fatalf("flush allocates %v times, want 0", allocs)
	}
	if c.len() != 0 {
		t.Fatalf("len after flush = %d, want 0", c.len())
	}
	c.put([2]graph.V{0, 1}, spanhop.QueryStats{Dist: 7}, c.epoch())
	if got, ok := c.get([2]graph.V{0, 1}); !ok || got.Dist != 7 {
		t.Fatal("put after flush missing")
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

// wedge takes every pool slot of x, so the next miss or batch waits
// until unwedge gives the slots back.
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

// waitWaiters reports whether k calls wait for x's pool within 10 s.
func waitWaiters(x *Executor, k int64) bool {
	deadline := time.Now().Add(10 * time.Second)
	for x.waiters.Load() < k {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}
