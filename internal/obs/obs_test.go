package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRequestIDsUnique(t *testing.T) {
	const workers, per = 8, 200
	seen := make(map[string]bool, workers*per)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]string, 0, per)
			for i := 0; i < per; i++ {
				local = append(local, NextRequestID())
			}
			mu.Lock()
			for _, id := range local {
				if seen[id] {
					t.Errorf("duplicate request id %q", id)
				}
				seen[id] = true
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(seen) != workers*per {
		t.Fatalf("got %d unique ids, want %d", len(seen), workers*per)
	}
}

func TestRequestIDContext(t *testing.T) {
	ctx := context.Background()
	if got := RequestID(ctx); got != "" {
		t.Fatalf("RequestID on bare context = %q, want empty", got)
	}
	ctx = WithRequestID(ctx, "abc-1")
	if got := RequestID(ctx); got != "abc-1" {
		t.Fatalf("RequestID = %q, want abc-1", got)
	}
}

func TestTraceSpansAndAttrs(t *testing.T) {
	tr := NewTrace("t1")
	end := tr.StartSpan("decode")
	time.Sleep(time.Millisecond)
	end()
	tr.Annotate("cache", "miss")
	tr.Annotate("batch_size", 3)
	start := time.Now()
	time.Sleep(time.Millisecond)
	tr.SpanSince("exec", start)
	td := tr.Finish()
	if td.ID != "t1" {
		t.Fatalf("id = %q", td.ID)
	}
	if len(td.Spans) != 2 || td.Spans[0].Name != "decode" || td.Spans[1].Name != "exec" {
		t.Fatalf("spans = %+v", td.Spans)
	}
	if td.Spans[1].StartUS < td.Spans[0].StartUS {
		t.Fatal("spans not ordered by start offset")
	}
	var sum float64
	for _, s := range td.Spans {
		if s.DurUS <= 0 {
			t.Fatalf("span %s has non-positive duration", s.Name)
		}
		sum += s.DurUS
	}
	if sum > td.TotalUS {
		t.Fatalf("span sum %.1fus exceeds total %.1fus", sum, td.TotalUS)
	}
	if td.Attrs["cache"] != "miss" || td.Attrs["batch_size"] != 3 {
		t.Fatalf("attrs = %+v", td.Attrs)
	}
	if s := td.SpanSummary(); !strings.Contains(s, "decode=") || !strings.Contains(s, "exec=") {
		t.Fatalf("SpanSummary = %q", s)
	}
}

func TestNilTraceIsFree(t *testing.T) {
	var tr *Trace
	tr.StartSpan("x")()
	tr.SpanSince("y", time.Now())
	tr.SpanEnd("w", time.Millisecond)
	tr.Annotate("k", 1)
	if tr.ID() != "" {
		t.Fatal("nil trace reports state")
	}
	if td := tr.Finish(); len(td.Spans) != 0 {
		t.Fatal("nil trace produced spans")
	}
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("FromContext on bare context = %v", got)
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	tr := NewTrace("rt")
	ctx := WithTrace(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("trace lost in context round trip")
	}
}

func TestRingEvictionAndOrder(t *testing.T) {
	// Capacity 3 at every fill level: empty, partial, exactly full,
	// wrapped once, and wrapped past a second lap. Snapshot is always
	// the last min(adds, 3) ids, newest first.
	for _, adds := range []int{0, 2, 3, 5, 7} {
		r := NewRing(3)
		for i := 0; i < adds; i++ {
			r.Add(TraceData{ID: string(rune('a' + i))})
		}
		var want []string
		for i := adds - 1; i >= 0 && len(want) < 3; i-- {
			want = append(want, string(rune('a'+i)))
		}
		snap := r.Snapshot()
		if r.Len() != len(want) || len(snap) != len(want) {
			t.Fatalf("adds=%d: Len = %d, snapshot %d, want %d", adds, r.Len(), len(snap), len(want))
		}
		for i, td := range snap {
			if td.ID != want[i] {
				t.Fatalf("adds=%d: snapshot[%d] = %q, want %q", adds, i, td.ID, want[i])
			}
		}
	}
	var nilRing *Ring
	nilRing.Add(TraceData{})
	if nilRing.Len() != 0 || nilRing.Snapshot() != nil {
		t.Fatal("nil ring reports state")
	}
}

func TestEventsCounting(t *testing.T) {
	e := NewEvents()
	e.Count("build_ready")
	e.Count("build_ready")
	e.Count("snapshot_written")
	if e.Get("build_ready") != 2 || e.Get("snapshot_written") != 1 || e.Get("absent") != 0 {
		t.Fatal("counts wrong")
	}
	snap := e.Snapshot()
	if len(snap) != 2 || snap[0].Name != "build_ready" || snap[1].Name != "snapshot_written" {
		t.Fatalf("snapshot not sorted: %+v", snap)
	}
	var nilE *Events
	nilE.Count("x")
	if nilE.Get("x") != 0 || nilE.Snapshot() != nil {
		t.Fatal("nil events reports state")
	}
}

func TestSamplerEveryN(t *testing.T) {
	o := New(Options{SampleEvery: 4})
	hits := 0
	for i := 0; i < 40; i++ {
		if o.Sample() {
			hits++
		}
	}
	if hits != 10 {
		t.Fatalf("sampled %d of 40 with 1-in-4, want 10", hits)
	}
	off := New(Options{})
	for i := 0; i < 10; i++ {
		if off.Sample() {
			t.Fatal("sampling off but Sample returned true")
		}
	}
}

func TestSlowQueryThresholdAndLimit(t *testing.T) {
	o := New(Options{SlowQuery: 10 * time.Millisecond, SlowQueryPerMinute: 3})
	if o.SlowQuery(5 * time.Millisecond) {
		t.Fatal("below threshold logged as slow")
	}
	allowed := 0
	for i := 0; i < 10; i++ {
		if o.SlowQuery(20 * time.Millisecond) {
			allowed++
		}
	}
	if allowed != 3 {
		t.Fatalf("rate limit let %d through, want 3", allowed)
	}
	off := New(Options{})
	if off.SlowQuery(time.Hour) {
		t.Fatal("slow-query log disabled but fired")
	}
}

func TestObserverNilSafe(t *testing.T) {
	var o *Observer
	o.Event("x")
	o.EventError("y", context.Canceled)
	o.Publish(TraceData{})
	if o.Sample() || o.SlowQuery(time.Hour) {
		t.Fatal("nil observer is live")
	}
	if o.Log() == nil {
		t.Fatal("nil observer returned nil logger")
	}
	o.Log().Info("must not panic")
	if o.Events() != nil || o.Traces() != nil {
		t.Fatal("nil observer returned sinks")
	}
}

func TestObserverEventLogsAndCounts(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewJSONHandler(&buf, nil))
	o := New(Options{Logger: log})
	o.Event("build_ready", "graph", "g1", "build_ms", 42)
	if o.Events().Get("build_ready") != 1 {
		t.Fatal("event not counted")
	}
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log line not JSON: %v", err)
	}
	if rec["msg"] != "build_ready" || rec["graph"] != "g1" {
		t.Fatalf("log record = %v", rec)
	}
}

func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	log, err := NewLogger(&buf, "json", "warn")
	if err != nil {
		t.Fatal(err)
	}
	log.Info("hidden")
	log.Warn("shown")
	if strings.Contains(buf.String(), "hidden") || !strings.Contains(buf.String(), "shown") {
		t.Fatalf("level filtering broken: %q", buf.String())
	}
	if _, err := NewLogger(&buf, "xml", "info"); err == nil {
		t.Fatal("bad format accepted")
	}
	if _, err := NewLogger(&buf, "text", "loud"); err == nil {
		t.Fatal("bad level accepted")
	}
	if log, err := NewLogger(&buf, "", ""); err != nil || log == nil {
		t.Fatal("defaults rejected")
	}
}

func TestReadRuntime(t *testing.T) {
	rs := ReadRuntime()
	if rs.Goroutines < 1 {
		t.Fatalf("goroutines = %d", rs.Goroutines)
	}
	if rs.HeapAlloc == 0 || rs.HeapSys == 0 {
		t.Fatal("heap stats empty")
	}
	if rs.SchedLatP99 < rs.SchedLatP50 {
		t.Fatalf("quantiles inverted: p50=%v p99=%v", rs.SchedLatP50, rs.SchedLatP99)
	}
}

func TestBuildInfo(t *testing.T) {
	bi := Build()
	if bi.GoVersion == "" || bi.Revision == "" {
		t.Fatalf("build info incomplete: %+v", bi)
	}
}
