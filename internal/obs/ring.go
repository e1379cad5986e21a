package obs

import "sync"

// ring is a bounded buffer of the newest values: it grows to max
// entries, then each push overwrites the oldest. Not synchronized;
// the owner's lock guards it. It backs the trace Ring and the
// auditor's violation evidence.
type ring[T any] struct {
	buf  []T
	max  int
	next int // slot the next push overwrites once len(buf) == max
}

func newRing[T any](max int) ring[T] { return ring[T]{max: max} }

func (r *ring[T]) push(v T) {
	if len(r.buf) < r.max {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % r.max
}

func (r *ring[T]) len() int { return len(r.buf) }

// newest calls fn on each live entry, newest first, until fn returns
// false. fn may modify the entry in place.
func (r *ring[T]) newest(fn func(*T) bool) {
	n := len(r.buf)
	for i := 1; i <= n; i++ {
		if !fn(&r.buf[(r.next-i+n)%n]) {
			return
		}
	}
}

// slice copies the live entries, newest first.
func (r *ring[T]) slice() []T {
	out := make([]T, 0, len(r.buf))
	r.newest(func(v *T) bool { out = append(out, *v); return true })
	return out
}

// Ring is a bounded, mutex-guarded buffer of the most recent finished
// traces — the storage behind GET /debug/traces. Old entries are
// overwritten in place; memory is bounded by capacity regardless of
// query volume.
type Ring struct {
	mu  sync.Mutex
	buf ring[TraceData]

	// pending parks annotations for traces not (or no longer) in buf,
	// oldest first, at most maxPendingAnnotations; Add applies the
	// entry for the trace it files. dropped counts entries evicted
	// before any Add claimed them.
	pending []pendingAnnotation
	dropped uint64
}

// maxPendingAnnotations bounds Ring.pending. An audit verdict usually
// waits microseconds for its trace to be filed, so a few dozen slots
// absorb any realistic backlog of in-flight traced requests.
const maxPendingAnnotations = 64

type pendingAnnotation struct {
	id  string
	kvs []any
}

// NewRing allocates a ring holding up to capacity traces.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingSize
	}
	return &Ring{buf: newRing[TraceData](capacity)}
}

// Add files a finished trace, evicting the oldest when full. No-op on
// a nil ring.
func (r *Ring) Add(td TraceData) {
	if r == nil {
		return
	}
	r.mu.Lock()
	for i, p := range r.pending {
		if p.id == td.ID {
			td.Attrs = withAttrs(td.Attrs, p.kvs)
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			break
		}
	}
	r.buf.push(td)
	r.mu.Unlock()
}

// Annotate attaches key/value attributes to a filed trace, located by
// ID (newest match wins). It exists for outcomes that arrive after the
// trace is finished — an answer audit completes asynchronously, and
// may complete before the HTTP edge has filed the trace it re-checked.
// Snapshot hands out the Attrs map by reference, so the map is
// replaced copy-on-write rather than mutated: readers holding an old
// snapshot keep a consistent view. Reports whether the trace was
// buffered. On a miss the attributes are parked until Add files that
// trace; the oldest parked entry is evicted past
// maxPendingAnnotations and counted by DroppedAnnotations (an
// annotation for a trace the ring already evicted ends that way).
// No-op on a nil ring or with an empty id.
func (r *Ring) Annotate(id string, kvs ...any) bool {
	if r == nil || id == "" || len(kvs) == 0 {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	found := false
	r.buf.newest(func(td *TraceData) bool {
		if td.ID == id {
			td.Attrs = withAttrs(td.Attrs, kvs)
			found = true
		}
		return !found
	})
	if found {
		return true
	}
	for i := range r.pending {
		if r.pending[i].id == id {
			r.pending[i].kvs = append(r.pending[i].kvs, kvs...)
			return false
		}
	}
	if len(r.pending) == maxPendingAnnotations {
		r.pending = append(r.pending[:0], r.pending[1:]...)
		r.dropped++
	}
	r.pending = append(r.pending, pendingAnnotation{id: id, kvs: append([]any(nil), kvs...)})
	return false
}

// withAttrs returns a copy of attrs with the key/value pairs of kvs
// set on it; later pairs win.
func withAttrs(attrs map[string]any, kvs []any) map[string]any {
	out := make(map[string]any, len(attrs)+len(kvs)/2)
	for k, v := range attrs {
		out[k] = v
	}
	for j := 0; j+1 < len(kvs); j += 2 {
		if k, ok := kvs[j].(string); ok {
			out[k] = kvs[j+1]
		}
	}
	return out
}

// DroppedAnnotations reports how many parked annotations were evicted
// before the trace they name was filed.
func (r *Ring) DroppedAnnotations() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Snapshot returns the buffered traces newest-first.
func (r *Ring) Snapshot() []TraceData {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.slice()
}

// Len reports the number of buffered traces.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.len()
}
