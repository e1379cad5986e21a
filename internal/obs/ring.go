package obs

import "sync"

// Ring is a bounded, mutex-guarded buffer of the most recent finished
// traces — the storage behind GET /debug/traces. Old entries are
// overwritten in place; memory is bounded by capacity regardless of
// query volume.
type Ring struct {
	mu   sync.Mutex
	buf  []TraceData
	next int // index of the slot the next Add writes
	n    int // number of live entries (≤ len(buf))

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
	return &Ring{buf: make([]TraceData, capacity)}
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
	r.buf[r.next] = td
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
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
	for i := 1; i <= r.n; i++ {
		slot := (r.next - i + len(r.buf)) % len(r.buf)
		if r.buf[slot].ID == id {
			r.buf[slot].Attrs = withAttrs(r.buf[slot].Attrs, kvs)
			return true
		}
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
	out := make([]TraceData, 0, r.n)
	for i := 1; i <= r.n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// Len reports the number of buffered traces.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}
