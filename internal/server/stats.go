package server

import (
	"math"
	"sync/atomic"
	"time"
)

// GraphStats aggregates per-graph serving counters. All fields are
// atomics: the hot query path only ever increments, and /stats reads
// a point-in-time snapshot without locking queries out.
type GraphStats struct {
	// requests counts single queries arriving at the executor
	// (before cache/queue decisions).
	requests atomic.Int64
	// cacheHits counts single queries answered from the LRU cache.
	cacheHits atomic.Int64
	// rejects counts calls turned away with ErrOverloaded.
	rejects atomic.Int64
	// batches counts the executor's QueryBatch calls, one per cache
	// miss or explicit batch; batchedQueries is the total number of
	// pairs inside them, so mean batch size = batchedQueries / batches.
	batches        atomic.Int64
	batchedQueries atomic.Int64
	// batchCalls / batchQueries count answered explicit batch API
	// calls and the pairs inside them.
	batchCalls   atomic.Int64
	batchQueries atomic.Int64
	// failures counts queries that returned an error from the oracle.
	failures atomic.Int64
	// mutationBatches / mutations count applied update batches and the
	// individual mutations inside them.
	mutationBatches atomic.Int64
	mutations       atomic.Int64

	lat latencyHist
}

// StatsSnapshot is the JSON shape of one graph's counters.
type StatsSnapshot struct {
	Requests         int64   `json:"requests"`
	CacheHits        int64   `json:"cache_hits"`
	Rejects          int64   `json:"rejects"`
	Batches          int64   `json:"batches"`
	BatchedQueries   int64   `json:"batched_queries"`
	MeanBatchSize    float64 `json:"mean_batch_size"`
	BatchCalls       int64   `json:"batch_calls"`
	BatchCallQueries int64   `json:"batch_call_queries"`
	Failures         int64   `json:"failures"`
	MutationBatches  int64   `json:"mutation_batches"`
	Mutations        int64   `json:"mutations"`

	Latency LatencySnapshot `json:"latency"`
}

// Snapshot captures the current counter values. Concurrent with
// queries, so counters read at slightly different instants may be off
// by in-flight increments relative to each other; that is fine for
// monitoring.
func (s *GraphStats) Snapshot() StatsSnapshot {
	snap := StatsSnapshot{
		Requests:         s.requests.Load(),
		CacheHits:        s.cacheHits.Load(),
		Rejects:          s.rejects.Load(),
		Batches:          s.batches.Load(),
		BatchedQueries:   s.batchedQueries.Load(),
		BatchCalls:       s.batchCalls.Load(),
		BatchCallQueries: s.batchQueries.Load(),
		Failures:         s.failures.Load(),
		MutationBatches:  s.mutationBatches.Load(),
		Mutations:        s.mutations.Load(),
		Latency:          s.lat.Snapshot(),
	}
	if snap.Batches > 0 {
		snap.MeanBatchSize = float64(snap.BatchedQueries) / float64(snap.Batches)
	}
	return snap
}

// latencyHist is a fixed exponential-bucket histogram of query service
// latency. Bucket i covers [50µs·2^i, 50µs·2^(i+1)) with the first
// bucket reaching down to 0 and the last open above; 18 buckets span
// 50µs to ~6.5s, which covers a cache hit through a cold decomposed
// query.
type latencyHist struct {
	buckets [numLatBuckets]atomic.Int64
	count   atomic.Int64
	sumUS   atomic.Int64
	maxUS   atomic.Int64
}

const (
	latBase       = 50 * time.Microsecond
	numLatBuckets = 18
)

// bucketOf maps a latency to its bucket index.
func bucketOf(d time.Duration) int {
	b := 0
	for bound := latBase; b < numLatBuckets-1 && d >= bound; bound *= 2 {
		b++
	}
	return b
}

// Record adds one observation.
func (h *latencyHist) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	us := d.Microseconds()
	h.buckets[bucketOf(d)].Add(1)
	h.count.Add(1)
	h.sumUS.Add(us)
	for {
		cur := h.maxUS.Load()
		if us <= cur || h.maxUS.CompareAndSwap(cur, us) {
			break
		}
	}
}

// LatencySnapshot is the JSON shape of the histogram: summary moments
// plus bucket counts (bucket i upper bound = 50µs·2^i, last open).
type LatencySnapshot struct {
	Count   int64   `json:"count"`
	MeanUS  float64 `json:"mean_us"`
	MaxUS   int64   `json:"max_us"`
	P50US   int64   `json:"p50_us"`
	P95US   int64   `json:"p95_us"`
	P99US   int64   `json:"p99_us"`
	Buckets []int64 `json:"buckets"`
}

// Snapshot reads the histogram; quantiles are upper-bound estimates
// from bucket boundaries.
func (h *latencyHist) Snapshot() LatencySnapshot {
	snap := LatencySnapshot{
		Count:   h.count.Load(),
		MaxUS:   h.maxUS.Load(),
		Buckets: make([]int64, len(h.buckets)),
	}
	var total int64
	for i := range h.buckets {
		snap.Buckets[i] = h.buckets[i].Load()
		total += snap.Buckets[i]
	}
	if snap.Count > 0 {
		snap.MeanUS = float64(h.sumUS.Load()) / float64(snap.Count)
	}
	quantile := func(p float64) int64 {
		if total == 0 {
			return 0
		}
		// Rank rounds up: the p-quantile of n samples is sample
		// ⌈p·n⌉, so p99 of two samples is the larger one.
		target := int64(math.Ceil(p * float64(total)))
		if target < 1 {
			target = 1
		}
		var seen int64
		for i, c := range snap.Buckets {
			seen += c
			if seen >= target {
				return (latBase << uint(i)).Microseconds()
			}
		}
		return snap.MaxUS
	}
	snap.P50US = quantile(0.50)
	snap.P95US = quantile(0.95)
	snap.P99US = quantile(0.99)
	return snap
}
