package exec

import (
	"math/bits"
	"sync"

	"repro/internal/graph"
)

// Scratch arenas: process-wide, size-class-keyed sync.Pools of the
// per-vertex buffers every search and clustering round needs — dist,
// parent, frontier and mark arrays, and bucket-queue levels.
// Buffers are handed out explicitly reset to their algorithm-neutral
// sentinel (InfDist, NoVertex, -1, 0, empty), so a recycled
// buffer is indistinguishable from a fresh allocation and results stay
// bit-identical. Resetting costs the same memset a fresh make() would
// pay; what the arena removes is the allocation itself and the GC
// pressure of abandoning an O(n) buffer per round.
//
// Pools are keyed by ceil-power-of-two capacity class, so a buffer
// released for an n-vertex graph is reusable by any computation of
// size up to the same class. The pools are process-wide and shared by
// every Ctx, the nil Ctx included — sync.Pool handles the concurrency —
// so a search on a nil Ctx reuses its queue and distance scratch as
// well. A buffer a caller keeps (a result it never releases) simply
// never goes back; one it releases must not be touched afterwards.

const numClasses = 33

// slicePools holds released slices as *[]T boxes. A get empties the
// box it drew and files it in boxes; a put refills one from there, so
// once warm a release allocates nothing (a bare Put(&s) would box
// every released slice on the heap).
type slicePools[T any] struct {
	classes [numClasses]sync.Pool
	boxes   sync.Pool
}

func classOf(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// get returns a slice of len n and cap >= n; contents are arbitrary.
// Invariant: class c only ever holds buffers with cap >= 1<<c, so a
// pooled hit always covers its class's largest n.
func (p *slicePools[T]) get(n int) []T {
	if n < 0 {
		n = 0
	}
	c := classOf(n)
	if c >= numClasses {
		return make([]T, n)
	}
	if v := p.classes[c].Get(); v != nil {
		box := v.(*[]T)
		s := *box
		*box = nil
		p.boxes.Put(box)
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]T, n, 1<<c)
}

// put files s under the largest class its capacity fully covers
// (floor log2), preserving the get() invariant.
func (p *slicePools[T]) put(s []T) {
	c := bits.Len(uint(cap(s))) - 1
	if c < 0 {
		return
	}
	if c >= numClasses {
		c = numClasses - 1
	}
	box, _ := p.boxes.Get().(*[]T)
	if box == nil {
		box = new([]T)
	}
	*box = s[:0]
	p.classes[c].Put(box)
}

var (
	distPools   slicePools[graph.Dist]
	vertPools   slicePools[graph.V]
	markPools   slicePools[int32]
	bucketPools slicePools[[]graph.V]
	wordPools   slicePools[uint64]
)

// Dists returns a len-n distance buffer filled with graph.InfDist —
// the starting state of every search.
func (e *Ctx) Dists(n int) []graph.Dist {
	s := distPools.get(n)
	for i := range s {
		s[i] = graph.InfDist
	}
	return s
}

// DistsZero returns a len-n distance buffer filled with 0.
func (e *Ctx) DistsZero(n int) []graph.Dist {
	s := distPools.get(n)
	clear(s)
	return s
}

// PutDists releases a buffer obtained from Dists/DistsZero. The caller
// must not use the slice afterwards.
func (e *Ctx) PutDists(s []graph.Dist) {
	distPools.put(s)
}

// Verts returns a len-n vertex buffer filled with graph.NoVertex (the
// parent-array starting state).
func (e *Ctx) Verts(n int) []graph.V {
	s := vertPools.get(n)
	for i := range s {
		s[i] = graph.NoVertex
	}
	return s
}

// PutVerts releases a buffer obtained from Verts.
func (e *Ctx) PutVerts(s []graph.V) {
	vertPools.put(s)
}

// Marks returns a len-n int32 buffer filled with -1 (the mark/token
// and claimed-array starting state).
func (e *Ctx) Marks(n int) []int32 {
	s := markPools.get(n)
	for i := range s {
		s[i] = -1
	}
	return s
}

// MarksZero returns a len-n int32 buffer filled with 0.
func (e *Ctx) MarksZero(n int) []int32 {
	s := markPools.get(n)
	clear(s)
	return s
}

// PutMarks releases a buffer obtained from Marks/MarksZero.
func (e *Ctx) PutMarks(s []int32) {
	markPools.put(s)
}

// Buckets returns n empty vertex buckets (a bucket queue's levels).
// Each keeps the capacity it had when released, so a queue reused
// through the arena stops growing its buckets once warm.
func (e *Ctx) Buckets(n int) [][]graph.V {
	s := bucketPools.get(n)
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}

// PutBuckets releases a buffer obtained from Buckets.
func (e *Ctx) PutBuckets(s [][]graph.V) {
	bucketPools.put(s)
}

// Words returns a len-n bitmap buffer filled with 0 (a bucket queue's
// occupancy bits).
func (e *Ctx) Words(n int) []uint64 {
	s := wordPools.get(n)
	clear(s)
	return s
}

// PutWords releases a buffer obtained from Words.
func (e *Ctx) PutWords(s []uint64) {
	wordPools.put(s)
}
