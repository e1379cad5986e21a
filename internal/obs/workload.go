package obs

// Workload analytics: who is asking for what?
//
// One Workload per served graph holds a space-saving heavy-hitter
// sketch (Metwally, Agrawal, El Abbadi, 2005) over (s, t) query pairs:
// fixed capacity k, O(log k) per observation, with the classic
// guarantee that any pair whose true count exceeds N/k is present and
// every reported count overestimates truth by at most the item's error
// bound — a bound the sketch reports per entry, so a consumer can tell
// exact counts (err == 0, the common case for concentrated workloads)
// from clipped ones. Request, failure and latency counts live in the
// server's per-graph stats, not here.
//
// The sketch is mutex-guarded and cheap enough for the query hot
// path: one observation is a map probe plus a heap fix under one
// per-graph mutex.

import (
	"container/heap"
	"sort"
	"sync"
)

// PairKey packs an (s, t) vertex pair into the sketch's key. Vertex
// ids are int32 in this repository, so the packing is lossless.
func PairKey(s, t int32) uint64 {
	return uint64(uint32(s))<<32 | uint64(uint32(t))
}

// PairFromKey unpacks a PairKey.
func PairFromKey(k uint64) (s, t int32) {
	return int32(uint32(k >> 32)), int32(uint32(k))
}

// tkItem is one monitored counter of the space-saving sketch.
type tkItem struct {
	key   uint64
	count uint64
	// err bounds the overestimate: when this slot was stolen from the
	// current minimum, the new tenant inherits min+1 with err = min.
	// True count is in [count-err, count].
	err uint64
	idx int // heap position
}

// tkHeap is a min-heap on count so eviction finds the minimum in
// O(log k).
type tkHeap []*tkItem

func (h tkHeap) Len() int           { return len(h) }
func (h tkHeap) Less(i, j int) bool { return h[i].count < h[j].count }
func (h tkHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].idx = i; h[j].idx = j }
func (h *tkHeap) Push(x any)        { it := x.(*tkItem); it.idx = len(*h); *h = append(*h, it) }
func (h *tkHeap) Pop() any          { old := *h; it := old[len(old)-1]; *h = old[:len(old)-1]; return it }

// TopK is a space-saving heavy-hitter sketch over uint64 keys.
type TopK struct {
	mu sync.Mutex
	k  int
	m  map[uint64]*tkItem
	h  tkHeap
	n  uint64 // total observations
}

// DefaultTopK is the sketch capacity when unset.
const DefaultTopK = 128

// NewTopK returns a sketch monitoring at most k keys (k <= 0 takes
// DefaultTopK).
func NewTopK(k int) *TopK {
	if k <= 0 {
		k = DefaultTopK
	}
	return &TopK{k: k, m: make(map[uint64]*tkItem, k)}
}

// Observe counts one occurrence of key.
func (t *TopK) Observe(key uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.n++
	if it, ok := t.m[key]; ok {
		it.count++
		heap.Fix(&t.h, it.idx)
		t.mu.Unlock()
		return
	}
	if len(t.h) < t.k {
		it := &tkItem{key: key, count: 1}
		t.m[key] = it
		heap.Push(&t.h, it)
		t.mu.Unlock()
		return
	}
	// Replace the current minimum: the newcomer inherits min+1 and the
	// possibility of having been undercounted by min.
	it := t.h[0]
	delete(t.m, it.key)
	it.err = it.count
	it.count++
	it.key = key
	t.m[key] = it
	heap.Fix(&t.h, it.idx)
	t.mu.Unlock()
}

// TopPair is one reported heavy hitter: true count is within
// [Count-Err, Count].
type TopPair struct {
	S     int32  `json:"s"`
	T     int32  `json:"t"`
	Count uint64 `json:"count"`
	Err   uint64 `json:"err,omitempty"`
}

// Snapshot returns up to k heavy hitters ordered by count descending
// (ties by key for determinism) and the total number of observations.
func (t *TopK) Snapshot(k int) (pairs []TopPair, total uint64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	items := make([]tkItem, len(t.h))
	for i, it := range t.h {
		items[i] = *it
	}
	total = t.n
	t.mu.Unlock()
	sort.Slice(items, func(i, j int) bool {
		if items[i].count != items[j].count {
			return items[i].count > items[j].count
		}
		return items[i].key < items[j].key
	})
	if k <= 0 || k > len(items) {
		k = len(items)
	}
	pairs = make([]TopPair, k)
	for i := 0; i < k; i++ {
		s, tt := PairFromKey(items[i].key)
		pairs[i] = TopPair{S: s, T: tt, Count: items[i].count, Err: items[i].err}
	}
	return pairs, total
}

// ---------------------------------------------------------------------------
// Per-graph workload bundle.

// Workload is one graph's analytics: the heavy-hitter sketch over its
// demanded (s, t) pairs. A nil *Workload is valid and inert (library
// users of internal/server pay nothing).
type Workload struct {
	top *TopK
}

// NewWorkload builds one graph's analytics bundle; topK is the
// heavy-hitter sketch capacity (0 = DefaultTopK).
func NewWorkload(topK int) *Workload {
	return &Workload{top: NewTopK(topK)}
}

// ObservePair counts one (s, t) query pair into the sketch. Record it
// at executor entry — before the cache and the pool — so the sketch
// sees the demanded workload, not just the computed one.
func (w *Workload) ObservePair(s, t int32) {
	if w == nil {
		return
	}
	w.top.Observe(PairKey(s, t))
}

// WorkloadSnapshot is the /debug/workload JSON shape for one graph.
type WorkloadSnapshot struct {
	// TopPairs are the sketch's heavy hitters, count-descending;
	// TotalPairs is every observation the sketch has seen (so a
	// consumer can compute coverage).
	TopPairs   []TopPair `json:"top_pairs"`
	TotalPairs uint64    `json:"total_pairs"`
}

// Snapshot captures the analytics; k bounds the reported heavy
// hitters (<= 0 reports the full sketch).
func (w *Workload) Snapshot(k int) WorkloadSnapshot {
	if w == nil {
		return WorkloadSnapshot{TopPairs: []TopPair{}}
	}
	pairs, total := w.top.Snapshot(k)
	if pairs == nil {
		pairs = []TopPair{}
	}
	return WorkloadSnapshot{TopPairs: pairs, TotalPairs: total}
}
