package server

// Observability tests: the /metrics exposition is validated against
// the Prometheus text-format rules (a scraper, not a human, is the
// consumer), and trace propagation is exercised under -race — the
// span plumbing rides the same compute section as the hot path,
// so these tests double as data-race coverage for it.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
)

// ---------------------------------------------------------------------------
// Exposition-format validation (GET /metrics).

// promSample is one parsed sample line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
	line   int
}

// parseExposition parses the text format strictly enough to catch the
// mistakes a hand-rolled writer can make: HELP/TYPE missing or
// duplicated, samples of undeclared families, malformed label
// escaping, unparseable values.
func parseExposition(t *testing.T, body string) (types map[string]string, samples []promSample) {
	t.Helper()
	types = make(map[string]string)
	helps := make(map[string]bool)
	for i, line := range strings.Split(body, "\n") {
		ln := i + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				t.Fatalf("line %d: malformed HELP: %q", ln, line)
			}
			if helps[name] {
				t.Fatalf("line %d: duplicate HELP for %s", ln, name)
			}
			helps[name] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				t.Fatalf("line %d: malformed TYPE: %q", ln, line)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown TYPE %q for %s", ln, typ, name)
			}
			if _, dup := types[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s (duplicate family)", ln, name)
			}
			if !helps[name] {
				t.Fatalf("line %d: TYPE %s without preceding HELP", ln, name)
			}
			types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // other comments are legal
		}
		samples = append(samples, parseSampleLine(t, ln, line))
	}
	return types, samples
}

func parseSampleLine(t *testing.T, ln int, line string) promSample {
	t.Helper()
	s := promSample{labels: map[string]string{}, line: ln}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		t.Fatalf("line %d: no value separator: %q", ln, line)
	} else {
		s.name, rest = rest[:i], rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		rest = rest[1:]
		for {
			eq := strings.Index(rest, "=")
			if eq < 0 {
				t.Fatalf("line %d: malformed labels: %q", ln, line)
			}
			key := rest[:eq]
			rest = rest[eq+1:]
			if !strings.HasPrefix(rest, `"`) {
				t.Fatalf("line %d: label %s value not quoted: %q", ln, key, line)
			}
			rest = rest[1:]
			// Decode the escaped value; an unescaped quote or a dangling
			// backslash is a format violation a scraper would choke on.
			var val strings.Builder
			closed := false
			for len(rest) > 0 {
				c := rest[0]
				if c == '\\' {
					if len(rest) < 2 {
						t.Fatalf("line %d: dangling escape: %q", ln, line)
					}
					switch rest[1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						t.Fatalf("line %d: bad escape \\%c: %q", ln, rest[1], line)
					}
					rest = rest[2:]
					continue
				}
				if c == '"' {
					rest = rest[1:]
					closed = true
					break
				}
				if c == '\n' {
					break
				}
				val.WriteByte(c)
				rest = rest[1:]
			}
			if !closed {
				t.Fatalf("line %d: unterminated label value: %q", ln, line)
			}
			if _, dup := s.labels[key]; dup {
				t.Fatalf("line %d: duplicate label %s: %q", ln, key, line)
			}
			s.labels[key] = val.String()
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
				continue
			}
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			t.Fatalf("line %d: malformed label list: %q", ln, line)
		}
	}
	rest = strings.TrimPrefix(rest, " ")
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		t.Fatalf("line %d: bad sample value %q: %v", ln, rest, err)
	}
	s.value = v
	return s
}

// labelKey renders labels (minus skip) as a canonical identity string.
func labelKey(labels map[string]string, skip string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != skip {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, labels[k])
	}
	return b.String()
}

func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t)
	code := httpJSON(t, ts, "POST", "/graphs",
		GraphSpec{Name: "m1", Gen: "er:n=120,d=4,w=uniform", Eps: 0.3, Seed: 7}, nil)
	if code != http.StatusAccepted {
		t.Fatalf("POST /graphs = %d", code)
	}
	waitReady(t, ts, "m1")
	// Traffic so counters and the latency histogram are non-trivial,
	// plus a mutation so the dynamic gauges appear.
	for i := 0; i < 10; i++ {
		httpJSON(t, ts, "POST", "/graphs/m1/query", map[string]any{"s": i, "t": 119 - i}, nil)
	}
	httpJSON(t, ts, "POST", "/graphs/m1/edges", map[string]any{
		"updates": []map[string]any{{"op": "insert", "u": 0, "v": 61, "w": 3}},
	}, nil)

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d (%v)", resp.StatusCode, err)
	}
	types, samples := parseExposition(t, string(raw))
	if len(samples) == 0 {
		t.Fatal("no samples in exposition")
	}

	// Every sample must belong to a declared family; histogram series
	// suffixes resolve to their base family.
	seen := make(map[string]bool)
	for _, s := range samples {
		fam, ok := s.name, true
		if _, declared := types[fam]; !declared {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(s.name, suf); base != s.name && types[base] == "histogram" {
					fam, ok = base, true
					break
				}
				ok = false
			}
			if !ok {
				t.Fatalf("line %d: sample %s has no declared family", s.line, s.name)
			}
		}
		key := s.name + "{" + labelKey(s.labels, "") + "}"
		if seen[key] {
			t.Fatalf("line %d: duplicate sample %s", s.line, key)
		}
		seen[key] = true
	}

	// Families this PR promises must be present.
	for _, want := range []string{
		"spanhop_build_info", "spanhop_events_total", "spanhop_traces_buffered",
		"spanhop_trace_annotations_dropped_total",
		"spanhop_go_goroutines", "spanhop_go_heap_alloc_bytes", "spanhop_go_gc_cycles_total",
		"spanhop_go_sched_latency_seconds", "spanhop_query_latency_seconds",
		"spanhop_quality_violations_total", "spanhop_audit_samples_total",
		"spanhop_audit_checked_total", "spanhop_audit_dropped_total",
		"spanhop_audit_budget_skips_total", "spanhop_audit_stale_skips_total",
		"spanhop_audit_cpu_seconds_total",
	} {
		if _, ok := types[want]; !ok {
			t.Errorf("family %s missing from /metrics", want)
		}
	}

	// build_info carries both labels and samples 1.
	for _, s := range samples {
		if s.name == "spanhop_build_info" {
			if s.value != 1 {
				t.Errorf("build_info = %g, want 1", s.value)
			}
			if s.labels["go_version"] == "" || s.labels["revision"] == "" {
				t.Errorf("build_info labels = %v, want go_version and revision", s.labels)
			}
		}
	}

	// Histogram coherence: cumulative non-decreasing buckets, an +Inf
	// bucket, and _count equal to the +Inf bucket, per labelset.
	for fam, typ := range types {
		if typ != "histogram" {
			continue
		}
		type series struct {
			buckets []promSample
			sum     map[string]float64
			count   map[string]float64
		}
		sr := series{sum: map[string]float64{}, count: map[string]float64{}}
		byKey := map[string][]promSample{}
		for _, s := range samples {
			key := labelKey(s.labels, "le")
			switch s.name {
			case fam + "_bucket":
				byKey[key] = append(byKey[key], s)
			case fam + "_sum":
				sr.sum[key] = s.value
			case fam + "_count":
				sr.count[key] = s.value
			}
		}
		for key, buckets := range byKey {
			prev, inf := -1.0, math.NaN()
			prevLE := math.Inf(-1)
			for _, b := range buckets {
				le := b.labels["le"]
				var bound float64
				if le == "+Inf" {
					bound = math.Inf(1)
					inf = b.value
				} else {
					var err error
					bound, err = strconv.ParseFloat(le, 64)
					if err != nil {
						t.Fatalf("%s: bad le %q", fam, le)
					}
				}
				if bound <= prevLE {
					t.Fatalf("%s{%s}: le %q not increasing", fam, key, le)
				}
				if b.value < prev {
					t.Fatalf("%s{%s}: bucket le=%s count %g < previous %g (not cumulative)",
						fam, key, le, b.value, prev)
				}
				prev, prevLE = b.value, bound
			}
			if math.IsNaN(inf) {
				t.Fatalf("%s{%s}: no +Inf bucket", fam, key)
			}
			cnt, ok := sr.count[key]
			if !ok {
				t.Fatalf("%s{%s}: no _count sample", fam, key)
			}
			if cnt != inf {
				t.Fatalf("%s{%s}: _count %g != +Inf bucket %g", fam, key, cnt, inf)
			}
			if _, ok := sr.sum[key]; !ok {
				t.Fatalf("%s{%s}: no _sum sample", fam, key)
			}
		}
	}

	// The lifecycle events of this test's own actions must have been
	// counted.
	evs := map[string]float64{}
	for _, s := range samples {
		if s.name == "spanhop_events_total" {
			evs[s.labels["event"]] = s.value
		}
	}
	for _, want := range []string{"build_queued", "build_started", "build_ready"} {
		if evs[want] < 1 {
			t.Errorf("spanhop_events_total{event=%q} = %g, want >= 1 (have %v)", want, evs[want], evs)
		}
	}
}

// ---------------------------------------------------------------------------
// Trace propagation under -race.

// tracedQuery fires one query with the trace header and returns the
// decoded span breakdown from the response header.
func tracedQuery(t *testing.T, ts *httptest.Server, id string, s, u graph.V) (obs.TraceData, string) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"s": s, "t": u})
	req, err := http.NewRequest("POST", ts.URL+"/graphs/"+id+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TraceHeader, "1")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced query (%d,%d) = %d", s, u, resp.StatusCode)
	}
	raw := resp.Header.Get(TraceHeader)
	if raw == "" {
		t.Fatalf("traced query (%d,%d): no %s response header", s, u, TraceHeader)
	}
	var td obs.TraceData
	if err := json.Unmarshal([]byte(raw), &td); err != nil {
		t.Fatalf("trace header not JSON: %v (%q)", err, raw)
	}
	return td, resp.Header.Get("X-Spanhop-Request")
}

func spanNames(td obs.TraceData) map[string]float64 {
	m := make(map[string]float64, len(td.Spans))
	for _, s := range td.Spans {
		m[s.Name] += s.DurUS
	}
	return m
}

func TestTraceConcurrentQueries(t *testing.T) {
	_, ts := newTestServer(t)
	code := httpJSON(t, ts, "POST", "/graphs",
		GraphSpec{Name: "t1", Gen: "er:n=200,d=4,w=uniform", Eps: 0.3, Seed: 3}, nil)
	if code != http.StatusAccepted {
		t.Fatalf("POST /graphs = %d", code)
	}
	waitReady(t, ts, "t1")

	const workers = 12
	var (
		mu     sync.Mutex
		traces []obs.TraceData
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Distinct pairs: every query misses the cache and runs a
			// compute section.
			td, rid := tracedQuery(t, ts, "t1", graph.V(w), graph.V(199-w))
			if rid == "" {
				t.Error("no X-Spanhop-Request header")
			}
			if td.ID != rid {
				t.Errorf("trace id %q != request id %q", td.ID, rid)
			}
			mu.Lock()
			traces = append(traces, td)
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	ids := make(map[string]bool)
	for _, td := range traces {
		if ids[td.ID] {
			t.Fatalf("duplicate request id %q across concurrent queries", td.ID)
		}
		ids[td.ID] = true

		names := spanNames(td)
		for _, want := range []string{"decode", "queue-wait", "exec"} {
			if _, ok := names[want]; !ok {
				t.Fatalf("trace %s: span %q missing (spans: %v, attrs: %v)", td.ID, want, td.Spans, td.Attrs)
			}
		}
		if td.Attrs["cache"] != "miss" {
			t.Errorf("trace %s: cache = %v, want miss", td.ID, td.Attrs["cache"])
		}
		if bs, ok := td.Attrs["batch_size"].(float64); !ok || bs != 1 { // JSON numbers decode as float64
			t.Errorf("trace %s: batch_size = %v, want 1", td.ID, td.Attrs["batch_size"])
		}
		// Span tree consistency: spans start inside the trace and end
		// before its total.
		for _, sp := range td.Spans {
			if sp.StartUS < 0 || sp.DurUS < 0 {
				t.Fatalf("trace %s: negative span %+v", td.ID, sp)
			}
			if sp.StartUS+sp.DurUS > td.TotalUS*1.05+50 {
				t.Fatalf("trace %s: span %+v overruns total %.0fµs", td.ID, sp, td.TotalUS)
			}
		}
	}
	if len(ids) != workers {
		t.Fatalf("got %d distinct traces, want %d", len(ids), workers)
	}

	// A repeated pair is served from the cache: its trace swaps
	// queue-wait/exec for a cache span.
	tracedQuery(t, ts, "t1", 0, 199)
	td, _ := tracedQuery(t, ts, "t1", 0, 199)
	if td.Attrs["cache"] != "hit" {
		t.Fatalf("repeat query: cache = %v, want hit (attrs %v)", td.Attrs["cache"], td.Attrs)
	}
	if !spanPresent(td, "cache") {
		t.Fatalf("repeat query: no cache span (spans %v)", td.Spans)
	}
}

func spanPresent(td obs.TraceData, name string) bool {
	for _, s := range td.Spans {
		if s.Name == name {
			return true
		}
	}
	return false
}

func TestTraceCancellationStage(t *testing.T) {
	// Holding every pool slot of the graph parks the request in
	// queue-wait; the client gives up first, and the published trace
	// must say where the request died.
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	code := httpJSON(t, ts, "POST", "/graphs",
		GraphSpec{Name: "c1", Gen: "er:n=100,d=4", Eps: 0.3, Seed: 5}, nil)
	if code != http.StatusAccepted {
		t.Fatalf("POST /graphs = %d", code)
	}
	waitReady(t, ts, "c1")
	e, _ := s.Registry().Get("c1")
	x, err := e.executor()
	if err != nil {
		t.Fatal(err)
	}
	wedge(x)
	defer unwedge(x)

	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	body, _ := json.Marshal(map[string]any{"s": 0, "t": 99})
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/graphs/c1/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TraceHeader, "1")
	if resp, err := ts.Client().Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("expected the canceled request to fail client-side")
	}

	// The trace is published server-side once the handler unwinds.
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, td := range s.cfg.Obs.Traces().Snapshot() {
			if td.Attrs["cancel_stage"] == "queue-wait" {
				if td.Attrs["error"] == nil {
					t.Fatalf("canceled trace has no error attr: %v", td.Attrs)
				}
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no trace with cancel_stage=queue-wait in ring: %+v",
				s.cfg.Obs.Traces().Snapshot())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDebugTracesAndPprofEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	code := httpJSON(t, ts, "POST", "/graphs",
		GraphSpec{Name: "d1", Gen: "er:n=100,d=4", Eps: 0.3, Seed: 9}, nil)
	if code != http.StatusAccepted {
		t.Fatalf("POST /graphs = %d", code)
	}
	waitReady(t, ts, "d1")
	tracedQuery(t, ts, "d1", 1, 98)

	var out struct {
		Count  int             `json:"count"`
		Traces []obs.TraceData `json:"traces"`
	}
	if code := httpJSON(t, ts, "GET", "/debug/traces", nil, &out); code != http.StatusOK {
		t.Fatalf("GET /debug/traces = %d", code)
	}
	if out.Count < 1 || len(out.Traces) != out.Count {
		t.Fatalf("debug/traces: count=%d len=%d", out.Count, len(out.Traces))
	}
	// Newest-first: the query trace we just forced must be visible with
	// its exec span. (A build trace may sit in the ring too.)
	found := false
	for _, td := range out.Traces {
		if spanPresent(td, "exec") && td.Attrs["graph"] == "d1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no query trace with exec span in /debug/traces: %+v", out.Traces)
	}

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap?debug=1"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
	}
}

func TestUntracedQueryHasNoTraceHeader(t *testing.T) {
	// Without the request header (and without sampling) the response
	// must not carry a trace — and still must carry a request id.
	_, ts := newTestServer(t)
	code := httpJSON(t, ts, "POST", "/graphs",
		GraphSpec{Name: "u1", Gen: "er:n=80,d=4", Eps: 0.3, Seed: 2}, nil)
	if code != http.StatusAccepted {
		t.Fatalf("POST /graphs = %d", code)
	}
	waitReady(t, ts, "u1")

	body, _ := json.Marshal(map[string]any{"s": 0, "t": 79})
	resp, err := ts.Client().Post(ts.URL+"/graphs/u1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if h := resp.Header.Get(TraceHeader); h != "" {
		t.Fatalf("untraced query echoed a trace: %q", h)
	}
	if resp.Header.Get("X-Spanhop-Request") == "" {
		t.Fatal("response missing X-Spanhop-Request")
	}
}
