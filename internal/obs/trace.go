package obs

import (
	"context"
	"sort"
	"strings"
	"sync"
	"time"
)

// Trace accumulates the span breakdown for one request (or one graph
// build). It travels through the stack inside a context.Context; the
// untraced path carries a nil *Trace and every method below treats
// the nil receiver as a no-op, which is what keeps tracing free when
// no subscriber is attached.
type Trace struct {
	id    string
	start time.Time

	mu    sync.Mutex
	spans []Span
	attrs map[string]any
}

// Span is one named, timed phase of a trace. Phases are chosen to be
// non-overlapping (decode, cache, queue-wait, exec, ...) so their
// durations sum to the server-observed total.
type Span struct {
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"` // offset from trace start
	DurUS   float64 `json:"dur_us"`
}

// TraceData is the immutable snapshot of a finished trace — the shape
// served at /debug/traces and echoed in the X-Spanhop-Trace response
// header.
type TraceData struct {
	ID      string         `json:"id"`
	Start   time.Time      `json:"start"`
	TotalUS float64        `json:"total_us"`
	Spans   []Span         `json:"spans"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// SpanSummary renders "name=dur name=dur ..." for log records, where
// a full JSON trace would drown the line.
func (td TraceData) SpanSummary() string {
	var b strings.Builder
	for i, s := range td.Spans {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(s.Name)
		b.WriteByte('=')
		b.WriteString(time.Duration(s.DurUS * float64(time.Microsecond)).String())
	}
	return b.String()
}

// NewTrace opens a trace identified by id (normally the request ID
// minted at the HTTP edge).
func NewTrace(id string) *Trace {
	return &Trace{id: id, start: time.Now(), attrs: make(map[string]any, 8)}
}

// ID returns the trace identifier; "" on a nil trace.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// StartSpan opens a named span now and returns the closure that ends
// it. Safe to call on a nil trace (the returned closure is a no-op).
func (t *Trace) StartSpan(name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.add(name, start, time.Since(start)) }
}

// SpanSince records a span that began at start and ends now.
func (t *Trace) SpanSince(name string, start time.Time) {
	if t == nil {
		return
	}
	t.add(name, start, time.Since(start))
}

// SpanEnd records a span of duration d ending now — for callers that
// only learn the duration after the fact (exec stage telemetry).
func (t *Trace) SpanEnd(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.add(name, time.Now().Add(-d), d)
}

func (t *Trace) add(name string, start time.Time, d time.Duration) {
	off := start.Sub(t.start)
	if off < 0 {
		off = 0
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{
		Name:    name,
		StartUS: float64(off) / float64(time.Microsecond),
		DurUS:   float64(d) / float64(time.Microsecond),
	})
	t.mu.Unlock()
}

// Annotate attaches a key/value fact to the trace (cache=hit,
// batch_size=5, regime=degrading, ...). Last write per key wins.
func (t *Trace) Annotate(key string, v any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.attrs[key] = v
	t.mu.Unlock()
}

// Finish closes the trace and returns its immutable snapshot, spans
// ordered by start offset. The trace may still be annotated by
// stragglers afterwards; those writes land after the snapshot and are
// simply not observed.
func (t *Trace) Finish() TraceData {
	if t == nil {
		return TraceData{}
	}
	total := time.Since(t.start)
	t.mu.Lock()
	spans := make([]Span, len(t.spans))
	copy(spans, t.spans)
	attrs := make(map[string]any, len(t.attrs))
	for k, v := range t.attrs {
		attrs[k] = v
	}
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartUS < spans[j].StartUS })
	return TraceData{
		ID:      t.id,
		Start:   t.start,
		TotalUS: float64(total) / float64(time.Microsecond),
		Spans:   spans,
		Attrs:   attrs,
	}
}

type traceKey struct{}

// WithTrace attaches a trace to the context for the layers below.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// FromContext returns the trace carried by ctx, or nil — and nil is
// the common, free case: all Trace methods no-op on nil.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
