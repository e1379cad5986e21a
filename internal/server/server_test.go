package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	spanhop "repro"
	"repro/internal/graph"
	"repro/internal/workload"
)

// httpJSON runs one request and decodes the JSON response into out
// (out may be nil).
func httpJSON(t *testing.T, ts *httptest.Server, method, path string, body any, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, ts.URL+path, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

// waitReady polls GET /graphs/{id} until the build finishes.
func waitReady(t *testing.T, ts *httptest.Server, id string) Info {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var info Info
		if code := httpJSON(t, ts, "GET", "/graphs/"+id, nil, &info); code != http.StatusOK {
			t.Fatalf("GET /graphs/%s = %d", id, code)
		}
		switch info.State {
		case StateReady:
			return info
		case StateFailed:
			t.Fatalf("build of %s failed: %s", id, info.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s not ready after 30s", id)
	return Info{}
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// assertExact fails unless graph id is ready with an exact oracle:
// stretch envelope [1, 1].
func assertExact(t *testing.T, r *Registry, id string) {
	t.Helper()
	e, ok := r.Get(id)
	if !ok {
		t.Fatalf("graph %s not registered", id)
	}
	e.mu.Lock()
	dyn := e.dyn
	e.mu.Unlock()
	if dyn == nil {
		t.Fatalf("graph %s is not ready", id)
	}
	if lo, hi := dyn.StretchEnvelope(); lo != 1 || hi != 1 {
		t.Fatalf("graph %s has stretch envelope [%g, %g], want an exact [1, 1]", id, lo, hi)
	}
}

func TestHTTPEndToEnd(t *testing.T) {
	s, ts := newTestServer(t)
	const gen = "er:n=150,d=4,w=uniform,maxw=30"
	const eps, seed = 0.3, 11

	var created Info
	code := httpJSON(t, ts, "POST", "/graphs",
		GraphSpec{Name: "main", Gen: gen, Eps: eps, Seed: seed}, &created)
	if code != http.StatusAccepted {
		t.Fatalf("POST /graphs = %d", code)
	}
	if created.ID != "main" || created.State != StateBuilding {
		t.Fatalf("created = %+v", created)
	}
	info := waitReady(t, ts, "main")
	if info.N != 150 || !info.Weighted {
		t.Fatalf("ready info = %+v", info)
	}
	assertExact(t, s.Registry(), "main")

	// The serving answers must match a locally rebuilt oracle
	// bit-for-bit: generation and preprocessing are deterministic in
	// (gen, seed, eps).
	spec, err := workload.ParseSpec(gen, seed)
	if err != nil {
		t.Fatal(err)
	}
	oracle := spanhop.NewDistanceOracleOpts(spec.Gen(), eps, seed, spanhop.OracleOptions{})

	for _, p := range [][2]graph.V{{0, 149}, {5, 5}, {42, 17}} {
		var got queryResult
		code := httpJSON(t, ts, "POST", "/graphs/main/query",
			map[string]any{"s": p[0], "t": p[1]}, &got)
		if code != http.StatusOK {
			t.Fatalf("query %v = %d", p, code)
		}
		want, err := oracle.QueryStats(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		wantRes := toResult(p[0], p[1], want)
		if got != wantRes {
			t.Fatalf("query %v = %+v, want %+v", p, got, wantRes)
		}
	}

	// Explicit batch.
	var batch struct {
		Results []queryResult `json:"results"`
	}
	pairs := [][2]graph.V{{1, 2}, {3, 4}, {5, 6}}
	code = httpJSON(t, ts, "POST", "/graphs/main/query",
		map[string]any{"pairs": pairs}, &batch)
	if code != http.StatusOK || len(batch.Results) != 3 {
		t.Fatalf("batch = %d, %d results", code, len(batch.Results))
	}
	for i, p := range pairs {
		want, _ := oracle.QueryStats(p[0], p[1])
		if batch.Results[i] != toResult(p[0], p[1], want) {
			t.Fatalf("batch[%d] = %+v", i, batch.Results[i])
		}
	}

	// Listing, health, stats.
	var list struct {
		Graphs []Info `json:"graphs"`
	}
	if code := httpJSON(t, ts, "GET", "/graphs", nil, &list); code != http.StatusOK || len(list.Graphs) != 1 {
		t.Fatalf("list = %d, %+v", code, list)
	}
	var health map[string]any
	if code := httpJSON(t, ts, "GET", "/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if health["ok"] != true || health["ready"] != float64(1) {
		t.Fatalf("healthz = %+v", health)
	}
	var stats struct {
		Graphs map[string]graphStats `json:"graphs"`
	}
	if code := httpJSON(t, ts, "GET", "/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	gs, ok := stats.Graphs["main"]
	if !ok || gs.State != StateReady {
		t.Fatalf("stats = %+v", stats)
	}
	if gs.Requests != 3 || gs.BatchCalls != 1 || gs.BatchCallQueries != 3 {
		t.Fatalf("stats counters = %+v", gs.StatsSnapshot)
	}
}

func TestHTTPErrors(t *testing.T) {
	s, ts := newTestServer(t)

	cases := []struct {
		method, path string
		body         any
		want         int
	}{
		{"GET", "/graphs/nope", nil, http.StatusNotFound},
		{"POST", "/graphs/nope/query", map[string]any{"s": 0, "t": 1}, http.StatusNotFound},
		{"POST", "/graphs", map[string]any{"gen": "bogus"}, http.StatusBadRequest},
		{"POST", "/graphs", map[string]any{"gen": "er", "file": "x"}, http.StatusBadRequest},
		{"POST", "/graphs", map[string]any{"gen": "er", "eps": 2.0}, http.StatusBadRequest},
		{"POST", "/graphs", map[string]any{"unknown_field": 1}, http.StatusBadRequest},
	}
	for _, c := range cases {
		if code := httpJSON(t, ts, c.method, c.path, c.body, nil); code != c.want {
			t.Fatalf("%s %s = %d, want %d", c.method, c.path, code, c.want)
		}
	}

	// Register a real graph for the body-shape and readiness cases.
	if code := httpJSON(t, ts, "POST", "/graphs",
		GraphSpec{Name: "g", Gen: "er:n=80,d=3"}, nil); code != http.StatusAccepted {
		t.Fatalf("POST /graphs = %d", code)
	}
	waitReady(t, ts, "g")
	badBodies := []any{
		map[string]any{},       // neither shape
		map[string]any{"s": 1}, // half a pair
		map[string]any{"s": 1, "t": 2, "pairs": [][2]int{{1, 2}}}, // both shapes
		map[string]any{"s": 1, "t": 900},                          // out of range
	}
	for i, b := range badBodies {
		if code := httpJSON(t, ts, "POST", "/graphs/g/query", b, nil); code != http.StatusBadRequest {
			t.Fatalf("bad body %d = %d, want 400", i, code)
		}
	}

	// Duplicate name → 409.
	if code := httpJSON(t, ts, "POST", "/graphs",
		GraphSpec{Name: "g", Gen: "er:n=80,d=3"}, nil); code != http.StatusConflict {
		t.Fatalf("duplicate name = %d, want 409", code)
	}

	// Querying a graph stuck in building → 409 (white-box: an entry
	// registered but never handed to a worker).
	s.reg.mu.Lock()
	s.reg.entries["stuck"] = &Entry{id: "stuck", stats: &GraphStats{}, state: StateBuilding}
	s.reg.order = append(s.reg.order, "stuck")
	s.reg.mu.Unlock()
	var errBody errorBody
	if code := httpJSON(t, ts, "POST", "/graphs/stuck/query",
		map[string]any{"s": 0, "t": 1}, &errBody); code != http.StatusConflict {
		t.Fatalf("building query = %d, want 409", code)
	}
	if errBody.Error == "" {
		t.Fatal("409 without an error body")
	}
}

// TestHTTPBuildFailureSurfaced: the failed lifecycle state and its
// cause must be visible over the API, and queries against it must be
// rejected with the cause attached.
func TestHTTPBuildFailureSurfaced(t *testing.T) {
	_, ts := newTestServer(t)
	if code := httpJSON(t, ts, "POST", "/graphs",
		GraphSpec{Name: "broken", File: "/nonexistent/g.txt"}, nil); code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	var info Info
	for time.Now().Before(deadline) {
		httpJSON(t, ts, "GET", "/graphs/broken", nil, &info)
		if info.State == StateFailed {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if info.State != StateFailed || info.Error == "" {
		t.Fatalf("info = %+v, want failed with cause", info)
	}
	var errBody errorBody
	if code := httpJSON(t, ts, "POST", "/graphs/broken/query",
		map[string]any{"s": 0, "t": 1}, &errBody); code != http.StatusConflict {
		t.Fatalf("query on failed graph = %d, want 409", code)
	}
	if errBody.Error == "" || !bytes.Contains([]byte(errBody.Error), []byte("failed")) {
		t.Fatalf("error body %q does not surface the failure", errBody.Error)
	}
}

// TestHTTPBatchPairCap: a batch of exactly maxBatchPairs pairs is
// answered in full; one pair more is a 413 before anything computes.
func TestHTTPBatchPairCap(t *testing.T) {
	s, ts := newTestServer(t)
	if code := httpJSON(t, ts, "POST", "/graphs",
		GraphSpec{Name: "cap", Gen: "er:n=64,d=4,w=uniform", Eps: 0.3, Seed: 2}, nil); code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	waitReady(t, ts, "cap")
	pairs := make([][2]graph.V, maxBatchPairs+1)
	for i := range pairs {
		pairs[i] = [2]graph.V{graph.V(i % 64), graph.V(i / 64 % 64)}
	}
	var out struct {
		Results []queryResult `json:"results"`
	}
	if code := httpJSON(t, ts, "POST", "/graphs/cap/query",
		map[string]any{"pairs": pairs[:maxBatchPairs]}, &out); code != http.StatusOK {
		t.Fatalf("%d pairs = %d, want 200", maxBatchPairs, code)
	}
	if len(out.Results) != maxBatchPairs {
		t.Fatalf("%d pairs answered %d results", maxBatchPairs, len(out.Results))
	}
	e, _ := s.Registry().Get("cap")
	before := e.stats.Snapshot()
	if code := httpJSON(t, ts, "POST", "/graphs/cap/query",
		map[string]any{"pairs": pairs}, nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d pairs = %d, want 413", len(pairs), code)
	}
	if after := e.stats.Snapshot(); after.Batches != before.Batches || after.BatchCalls != before.BatchCalls {
		t.Fatalf("oversized batch reached the executor: %d -> %d oracle calls",
			before.Batches, after.Batches)
	}
}

// TestHTTPConcurrentSingleQueries hammers one graph over real HTTP
// with concurrent single queries and asserts (a) every answer matches
// the serial oracle and (b) /stats counts every miss as one oracle
// call. The graph's pool is held until every worker's first query
// waits for it, so those queries meet a busy pool.
func TestHTTPConcurrentSingleQueries(t *testing.T) {
	s := New(Config{CacheSize: -1})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	const gen, eps, seed = "grid:side=12,w=uniform,maxw=20", 0.3, 4
	if code := httpJSON(t, ts, "POST", "/graphs",
		GraphSpec{Name: "grid", Gen: gen, Eps: eps, Seed: seed}, nil); code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	info := waitReady(t, ts, "grid")

	spec, err := workload.ParseSpec(gen, seed)
	if err != nil {
		t.Fatal(err)
	}
	oracle := spanhop.NewDistanceOracleOpts(spec.Gen(), eps, seed, spanhop.OracleOptions{})
	e, _ := s.Registry().Get("grid")
	x, err := e.executor()
	if err != nil {
		t.Fatal(err)
	}
	wedge(x)

	const workers = 8
	const perWorker = 10
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			mix := workload.UniformMix(info.N, uint64(1000+w))
			for i := 0; i < perWorker; i++ {
				p := mix.Next()
				var got queryResult
				code := httpJSON(t, ts, "POST", "/graphs/grid/query",
					map[string]any{"s": p[0], "t": p[1]}, &got)
				if code != http.StatusOK {
					errc <- fmt.Errorf("query %v = %d", p, code)
					return
				}
				want, err := oracle.QueryStats(p[0], p[1])
				if err != nil {
					errc <- err
					return
				}
				if got != toResult(p[0], p[1], want) {
					errc <- fmt.Errorf("query %v = %+v, want %+v", p, got, want)
					return
				}
			}
			errc <- nil
		}(w)
	}
	waiting := waitWaiters(x, workers)
	unwedge(x)
	if !waiting {
		t.Fatalf("%d queries waiting, want %d", x.waiters.Load(), workers)
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}

	var stats struct {
		Graphs map[string]graphStats `json:"graphs"`
	}
	httpJSON(t, ts, "GET", "/stats", nil, &stats)
	gs := stats.Graphs["grid"]
	if gs.Requests != workers*perWorker {
		t.Fatalf("requests = %d, want %d", gs.Requests, workers*perWorker)
	}
	if gs.Batches != workers*perWorker || gs.MeanBatchSize != 1 {
		t.Fatalf("%d queries ran as %d oracle calls (mean %.2f), want one each",
			gs.Requests, gs.Batches, gs.MeanBatchSize)
	}
}
