package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	spanhop "repro"
	"repro/internal/graph"
	"repro/internal/obs"
)

// qualityResponse mirrors the GET /debug/quality body.
type qualityResponse struct {
	SampleEvery int                      `json:"sample_every"`
	CPUFrac     float64                  `json:"cpu_frac"`
	Graphs      []obs.AuditGraphSnapshot `json:"graphs"`
}

// newAuditTestServer runs a server that audits every served query
// with the CPU budget disabled, so tests observe deterministic audit
// coverage instead of rate- and budget-dependent sampling.
func newAuditTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{AuditSample: 1, AuditCPUFrac: -1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// awaitQuality drains the server's audit pipeline, then reads
// /debug/quality?graph=id and requires every accepted sample settled
// and at least min of them audited. Queries offer their samples before
// their responses ship, so a drain after the responses covers them.
func awaitQuality(t *testing.T, s *Server, ts *httptest.Server, id string, min int64) obs.AuditGraphSnapshot {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.reg.aud.Drain(ctx); err != nil {
		t.Fatalf("audit pipeline for %s did not drain: %v", id, err)
	}
	var last qualityResponse
	if code := httpJSON(t, ts, "GET", "/debug/quality?graph="+id, nil, &last); code != http.StatusOK {
		t.Fatalf("GET /debug/quality?graph=%s = %d", id, code)
	}
	if len(last.Graphs) != 1 {
		t.Fatalf("GET /debug/quality?graph=%s returned %d graphs", id, len(last.Graphs))
	}
	g := last.Graphs[0]
	if g.Audited+g.Dropped+g.BudgetSkips+g.StaleSkips+g.Errors < g.Sampled || g.Audited < min {
		t.Fatalf("audit pipeline for %s drained short of %d audits: %+v", id, min, g)
	}
	return g
}

// awaitRegime is awaitQuality's snapshot's regime row, which must have
// audited at least min answers.
func awaitRegime(t *testing.T, s *Server, ts *httptest.Server, id, regime string, min int64) obs.AuditRegimeSnapshot {
	t.Helper()
	snap := awaitQuality(t, s, ts, id, 1)
	for _, r := range snap.Regimes {
		if r.Regime == regime && r.Count >= min {
			return r
		}
	}
	t.Fatalf("regime %s of %s did not reach %d audits: %+v", regime, id, min, snap.Regimes)
	return obs.AuditRegimeSnapshot{}
}

// TestQualityEndpointEndToEnd drives traced and untraced traffic
// through a clean overlay, an insert-only one, and one with a deleted
// base edge, and asserts the auditor re-checks it all with zero
// violations — the continuous correctness monitor agreeing with a
// correct build.
func TestQualityEndpointEndToEnd(t *testing.T) {
	s, ts := newAuditTestServer(t)
	code := httpJSON(t, ts, "POST", "/graphs",
		GraphSpec{Name: "q1", Gen: "grid:side=6", Eps: 0.3, Seed: 4}, nil)
	if code != http.StatusAccepted {
		t.Fatalf("POST /graphs = %d", code)
	}
	waitReady(t, ts, "q1")

	// Clean regime: untraced singles plus one traced query, whose
	// response-header trace must record that it was sampled.
	for i := 0; i < 5; i++ {
		httpJSON(t, ts, "POST", "/graphs/q1/query", map[string]any{"s": i, "t": 35 - i}, nil)
	}
	td, rid := tracedQuery(t, ts, "q1", 5, 29)
	if td.Attrs["audit"] != "sampled" {
		t.Fatalf("traced query attrs = %v, want audit=sampled", td.Attrs)
	}

	// Insert a shortcut, then delete a base grid edge (0-1 in
	// row-major order), querying after each.
	code = httpJSON(t, ts, "POST", "/graphs/q1/edges", map[string]any{
		"updates": []map[string]any{{"op": "insert", "u": 0, "v": 21}},
	}, nil)
	if code != http.StatusOK {
		t.Fatalf("insert = %d", code)
	}
	for i := 0; i < 3; i++ {
		httpJSON(t, ts, "POST", "/graphs/q1/query", map[string]any{"s": i, "t": 30 + i}, nil)
	}
	// The insert diverges from the base, so the exact patched search
	// answers it, audited under the "degrading" label.
	ins := awaitRegime(t, s, ts, "q1", "degrading", 3)
	if ins.Violations != 0 {
		t.Fatalf("insert-only overlay audited inexact: %+v", ins)
	}
	code = httpJSON(t, ts, "POST", "/graphs/q1/edges", map[string]any{
		"updates": []map[string]any{{"op": "delete", "u": 0, "v": 1}},
	}, nil)
	if code != http.StatusOK {
		t.Fatalf("delete = %d", code)
	}
	for i := 0; i < 3; i++ {
		httpJSON(t, ts, "POST", "/graphs/q1/query", map[string]any{"s": 1 + i, "t": 34 - i}, nil)
	}

	snap := awaitQuality(t, s, ts, "q1", 3)
	if snap.Violations != 0 || len(snap.Evidence) != 0 {
		t.Fatalf("correct build reported violations: %+v", snap)
	}
	if snap.Sampled < snap.Audited || snap.Audited == 0 {
		t.Fatalf("counters inconsistent: %+v", snap)
	}
	// A registry-built graph is exact, and the samples check that the
	// cache and the overlay serve ground truth.
	assertExact(t, s.Registry(), "q1")
	var regimes []string
	var counted int64
	for _, r := range snap.Regimes {
		if r.Violations != 0 {
			t.Fatalf("regime %s recorded violations: %+v", r.Regime, r)
		}
		if r.Count > 0 {
			regimes = append(regimes, r.Regime)
		}
		counted += r.Count
	}
	if counted != snap.Audited {
		t.Fatalf("regime rows count %d audits, the graph %d: %+v", counted, snap.Audited, snap)
	}
	for _, want := range []string{"clean", "degrading"} {
		found := false
		for _, got := range regimes {
			if got == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("no audited queries in %s regime (got %v)", want, regimes)
		}
	}

	// The traced query's ring entry carries the async audit outcome,
	// annotated before the drain in awaitQuality returned.
	var out struct {
		Traces []obs.TraceData `json:"traces"`
	}
	httpJSON(t, ts, "GET", "/debug/traces", nil, &out)
	annotated := false
	for _, tr := range out.Traces {
		if tr.ID == rid && tr.Attrs["audit"] == "ok" {
			annotated = true
		}
	}
	if !annotated {
		t.Fatalf("trace %s never annotated audit=ok", rid)
	}

	// The full endpoint echoes the sampling settings back.
	var all qualityResponse
	if code := httpJSON(t, ts, "GET", "/debug/quality", nil, &all); code != http.StatusOK {
		t.Fatalf("GET /debug/quality = %d", code)
	}
	if all.SampleEvery != 1 || all.CPUFrac >= 0 {
		t.Fatalf("quality settings = %+v", all)
	}
	if len(all.Graphs) != 1 || all.Graphs[0].Graph != "q1" {
		t.Fatalf("quality graphs = %+v", all.Graphs)
	}

	// Hostile and unknown graph filters 404 without leaking.
	for _, q := range []string{"nosuch", "../../etc/passwd", "q1%00"} {
		var e map[string]any
		if code := httpJSON(t, ts, "GET", "/debug/quality?graph="+q, nil, &e); code != http.StatusNotFound {
			t.Fatalf("GET /debug/quality?graph=%s = %d, want 404", q, code)
		}
	}
}

// TestQualityFaultInjection corrupts served distances via the
// executor's test hook and proves the auditor catches the wrong
// answer end to end: violation counter, evidence ring, trace
// annotation, and the /metrics alarm series.
func TestQualityFaultInjection(t *testing.T) {
	s, ts := newAuditTestServer(t)
	code := httpJSON(t, ts, "POST", "/graphs",
		GraphSpec{Name: "q2", Gen: "grid:side=8", Eps: 0.3, Seed: 6}, nil)
	if code != http.StatusAccepted {
		t.Fatalf("POST /graphs = %d", code)
	}
	waitReady(t, ts, "q2")

	e, ok := s.Registry().Get("q2")
	if !ok {
		t.Fatal("q2 not registered")
	}
	// Scale every finite answer away from the exact distance.
	hook := func(sv, tv graph.V, st spanhop.QueryStats) spanhop.QueryStats {
		if st.Dist < graph.InfDist {
			st.Dist = st.Dist*1000 + 1
		}
		return st
	}
	e.exec.corrupt.Store(&hook)

	td, rid := tracedQuery(t, ts, "q2", 0, 63)
	if td.Attrs["audit"] != "sampled" {
		t.Fatalf("traced query attrs = %v, want audit=sampled", td.Attrs)
	}

	// The alarm fires asynchronously, by the time the pipeline drains.
	snap := awaitQuality(t, s, ts, "q2", 1)
	if snap.Violations < 1 {
		t.Fatalf("corrupted answer never flagged: %+v", snap)
	}

	if len(snap.Evidence) == 0 {
		t.Fatalf("violation left no evidence: %+v", snap)
	}
	ev := snap.Evidence[0]
	if ev.Reason != obs.ReasonExactMismatch {
		t.Fatalf("evidence reason = %q, want %q", ev.Reason, obs.ReasonExactMismatch)
	}
	if ev.TraceID != rid {
		t.Fatalf("evidence trace = %q, want %q", ev.TraceID, rid)
	}
	if ev.Served != ev.Exact*1000+1 {
		t.Fatalf("evidence served=%d exact=%d, want served = 1000·exact+1", ev.Served, ev.Exact)
	}

	// Trace ring records the violation verdict: the audit annotates
	// the trace before the drain above returned.
	var out struct {
		Traces []obs.TraceData `json:"traces"`
	}
	httpJSON(t, ts, "GET", "/debug/traces", nil, &out)
	annotated := false
	for _, tr := range out.Traces {
		if tr.ID == rid && tr.Attrs["audit"] == "violation" {
			if tr.Attrs["audit_reason"] != obs.ReasonExactMismatch {
				t.Fatalf("trace audit_reason = %v", tr.Attrs["audit_reason"])
			}
			annotated = true
		}
	}
	if !annotated {
		t.Fatalf("trace %s never annotated audit=violation", rid)
	}

	// /metrics carries the alarm and the audit that caught it.
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d (%v)", resp.StatusCode, err)
	}
	body := string(raw)
	for _, want := range []string{
		fmt.Sprintf(`spanhop_quality_violations_total{graph="q2"} %d`, snap.Violations),
		`spanhop_audit_checked_total{graph="q2"}`,
		`spanhop_audit_cpu_seconds_total{graph="q2"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Disarm: subsequent answers audit clean again, and the violation
	// count holds steady (the cached corrupted answer is not re-served
	// to the auditor unless re-sampled — flush via a distinct pair).
	e.exec.corrupt.Store(nil)
	before := snap.Violations
	httpJSON(t, ts, "POST", "/graphs/q2/query", map[string]any{"s": 1, "t": 62}, nil)
	snap = awaitQuality(t, s, ts, "q2", snap.Audited+1)
	if snap.Violations != before {
		t.Fatalf("clean query after disarm changed violations: %d -> %d", before, snap.Violations)
	}
}

// TestDebugContentTypes sweeps every introspection endpoint for an
// explicit, correct Content-Type header.
func TestDebugContentTypes(t *testing.T) {
	_, ts := newTestServer(t)
	code := httpJSON(t, ts, "POST", "/graphs",
		GraphSpec{Name: "ct", Gen: "grid:side=4", Eps: 0.3, Seed: 1}, nil)
	if code != http.StatusAccepted {
		t.Fatalf("POST /graphs = %d", code)
	}
	waitReady(t, ts, "ct")
	tracedQuery(t, ts, "ct", 0, 15)

	for _, tc := range []struct {
		path string
		want string // exact match unless it ends with "*" (prefix)
	}{
		{"/graphs", "application/json"},
		{"/graphs/ct", "application/json"},
		{"/stats", "application/json"},
		{"/healthz", "application/json"},
		{"/debug/traces", "application/json"},
		{"/debug/traces?graph=ct", "application/json"},
		{"/debug/workload", "application/json"},
		{"/debug/quality", "application/json"},
		{"/debug/quality?graph=ct", "application/json"},
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8"},
		{"/debug/pprof/", "text/html*"},
		{"/debug/pprof/heap?debug=1", "text/plain*"},
	} {
		resp, err := ts.Client().Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", tc.path, resp.StatusCode)
			continue
		}
		got := resp.Header.Get("Content-Type")
		if want, prefix := strings.CutSuffix(tc.want, "*"); prefix {
			if !strings.HasPrefix(got, want) {
				t.Errorf("GET %s: Content-Type = %q, want prefix %q", tc.path, got, want)
			}
		} else if got != tc.want {
			t.Errorf("GET %s: Content-Type = %q, want %q", tc.path, got, tc.want)
		}
	}

	// Error responses are JSON too.
	resp, err := ts.Client().Get(ts.URL + "/graphs/nosuch")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || resp.Header.Get("Content-Type") != "application/json" {
		t.Errorf("GET /graphs/nosuch = %d %q, want 404 application/json",
			resp.StatusCode, resp.Header.Get("Content-Type"))
	}
}
