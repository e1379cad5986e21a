package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	spanhop "repro"
	"repro/internal/workload"
)

// applyResponse is the JSON shape of POST/DELETE /graphs/{id}/edges.
type applyResponse struct {
	ID         string       `json:"id"`
	Applied    int          `json:"applied"`
	Generation uint64       `json:"generation"`
	Dynamic    *DynamicInfo `json:"dynamic"`
}

// TestMutationEndpoints: POST /graphs/{id}/edges applies mutations
// (generation bumps, queries see them immediately, caches flush),
// DELETE /graphs/{id}/edges removes edges, a bad batch 400s
// atomically, and /stats exposes the overlay gauges.
func TestMutationEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	const genSpec = "grid:side=6,w=uniform,maxw=9"
	if code := httpJSON(t, ts, "POST", "/graphs",
		GraphSpec{Name: "g", Gen: genSpec, Seed: 3}, nil); code != http.StatusAccepted {
		t.Fatalf("POST /graphs = %d", code)
	}
	info := waitReady(t, ts, "g")
	if info.Dynamic == nil || info.Dynamic.Generation != 0 {
		t.Fatalf("ready info dynamic = %+v", info.Dynamic)
	}

	// Local replica: the daemon's build is deterministic in
	// (spec, eps, seed), so replaying mutations locally reproduces the
	// server's answers exactly.
	spec, err := workload.ParseSpec(genSpec, 3)
	if err != nil {
		t.Fatal(err)
	}
	local := spanhop.NewDynamicOracle(
		spanhop.NewDistanceOracleOpts(spec.Gen(), 0.25, 3, spanhop.OracleOptions{}),
		spanhop.RebuildPolicy{Disabled: true})
	defer local.Close()

	query := func(s, u int32) (int64, bool) {
		var res struct {
			Dist        int64 `json:"dist"`
			Unreachable bool  `json:"unreachable"`
		}
		if code := httpJSON(t, ts, "POST", "/graphs/g/query",
			map[string]any{"s": s, "t": u}, &res); code != http.StatusOK {
			t.Fatalf("query = %d", code)
		}
		return res.Dist, res.Unreachable
	}
	// Prime the cache with the pre-mutation answer.
	before, _ := query(0, 35)

	var ar applyResponse
	updates := []map[string]any{
		{"op": "insert", "u": 0, "v": 35, "w": 1},
		{"op": "reweight", "u": 0, "v": 1, "w": 9},
	}
	if code := httpJSON(t, ts, "POST", "/graphs/g/edges",
		map[string]any{"updates": updates}, &ar); code != http.StatusOK {
		t.Fatalf("POST /edges = %d", code)
	}
	if ar.Generation != 2 || ar.Applied != 2 || ar.Dynamic.PendingUpdates != 2 {
		t.Fatalf("apply response = %+v", ar)
	}
	if _, err := local.ApplyUpdates([]spanhop.DynamicUpdate{
		{Op: spanhop.UpdateInsert, U: 0, V: 35, W: 1},
		{Op: spanhop.UpdateReweight, U: 0, V: 1, W: 9},
	}); err != nil {
		t.Fatal(err)
	}

	// The cached pre-mutation answer must be gone: the shortcut wins.
	after, _ := query(0, 35)
	if after != 1 {
		t.Fatalf("query after insert = %d (before %d), want 1", after, before)
	}
	// And a sweep of pairs matches the local replica bit-for-bit.
	for s := int32(0); s < 36; s += 7 {
		for u := int32(1); u < 36; u += 5 {
			got, unreach := query(s, u)
			want, err := local.Query(s, u)
			if err != nil {
				t.Fatal(err)
			}
			wantUnreach := want == spanhop.InfDist
			wantDist := want
			if wantUnreach {
				wantDist = 0
			}
			if got != wantDist || unreach != wantUnreach {
				t.Fatalf("(%d,%d): server %d/%v, local %d/%v", s, u, got, unreach, wantDist, wantUnreach)
			}
		}
	}

	// DELETE /edges sugar.
	if code := httpJSON(t, ts, "DELETE", "/graphs/g/edges",
		map[string]any{"edges": [][2]int32{{0, 35}}}, &ar); code != http.StatusOK {
		t.Fatalf("DELETE /edges = %d", code)
	}
	if ar.Generation != 3 {
		t.Fatalf("generation after delete = %d", ar.Generation)
	}
	if _, err := local.ApplyUpdates([]spanhop.DynamicUpdate{
		{Op: spanhop.UpdateDelete, U: 0, V: 35},
	}); err != nil {
		t.Fatal(err)
	}
	got, _ := query(0, 35)
	want, _ := local.Query(0, 35)
	if got != want {
		t.Fatalf("post-delete query = %d, want %d", got, want)
	}

	// Atomicity: one bad update fails the whole batch, generation
	// unchanged.
	bad := []map[string]any{
		{"op": "insert", "u": 2, "v": 30, "w": 1},
		{"op": "delete", "u": 2, "v": 30},        // fine so far...
		{"op": "insert", "u": 2, "v": 2, "w": 1}, // ...but a self-loop sinks it
	}
	if code := httpJSON(t, ts, "POST", "/graphs/g/edges",
		map[string]any{"updates": bad}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad batch = %d, want 400", code)
	}
	// A weight past graph.WeightCap(n) is a client error too, for
	// insert and reweight alike.
	for _, up := range []map[string]any{
		{"op": "insert", "u": 2, "v": 30, "w": int64(1) << 61},
		{"op": "reweight", "u": 0, "v": 1, "w": int64(1) << 61},
	} {
		if code := httpJSON(t, ts, "POST", "/graphs/g/edges",
			map[string]any{"updates": []map[string]any{up}}, nil); code != http.StatusBadRequest {
			t.Fatalf("%s at 2^61 = %d, want 400", up["op"], code)
		}
	}
	var stats struct {
		Graphs map[string]graphStats `json:"graphs"`
	}
	if code := httpJSON(t, ts, "GET", "/stats", nil, &stats); code != http.StatusOK {
		t.Fatal("stats failed")
	}
	gs := stats.Graphs["g"]
	if gs.Dynamic == nil || gs.Dynamic.Generation != 3 || gs.Dynamic.PendingUpdates != 3 {
		t.Fatalf("stats dynamic = %+v", gs.Dynamic)
	}
	if gs.MutationBatches != 2 || gs.Mutations != 3 {
		t.Fatalf("mutation counters = %d/%d", gs.MutationBatches, gs.Mutations)
	}
	if gs.Dynamic.StalenessMS < 0 {
		t.Fatalf("staleness = %d", gs.Dynamic.StalenessMS)
	}

	// Mutating a building/unknown graph is a clean 4xx.
	if code := httpJSON(t, ts, "POST", "/graphs/none/edges",
		map[string]any{"updates": updates}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown graph mutate = %d", code)
	}

	// Forced rebuild folds the journal and resets the gauges.
	var rb struct {
		Dynamic *DynamicInfo `json:"dynamic"`
	}
	if code := httpJSON(t, ts, "POST", "/graphs/g/rebuild", nil, &rb); code != http.StatusOK {
		t.Fatalf("rebuild = %d", code)
	}
	if rb.Dynamic.PendingUpdates != 0 || rb.Dynamic.BaseGeneration != 3 || rb.Dynamic.Rebuilds < 1 {
		t.Fatalf("rebuild dynamic = %+v", rb.Dynamic)
	}
	// Answers unchanged by the rebuild (exact regime before, fresh
	// oracle after — the delete is now baked in).
	got2, _ := query(0, 35)
	if got2 != got {
		t.Fatalf("rebuild changed the answer: %d -> %d", got, got2)
	}
}

// TestAutoRebuildOverHTTP: crossing the journal policy triggers a
// background rebuild that the gauges surface.
func TestAutoRebuildOverHTTP(t *testing.T) {
	s := New(Config{RebuildMaxJournal: 3, RebuildMaxPatchFraction: -1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	if code := httpJSON(t, ts, "POST", "/graphs",
		GraphSpec{Name: "g", Gen: "er:n=80,d=4,w=uniform,maxw=20", Seed: 5}, nil); code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	waitReady(t, ts, "g")
	var ar applyResponse
	if code := httpJSON(t, ts, "POST", "/graphs/g/edges", map[string]any{"updates": []map[string]any{
		{"op": "insert", "u": 0, "v": 50, "w": 2},
		{"op": "insert", "u": 1, "v": 60, "w": 3},
		{"op": "insert", "u": 2, "v": 70, "w": 4},
	}}, &ar); code != http.StatusOK {
		t.Fatalf("edges = %d", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var info Info
		httpJSON(t, ts, "GET", "/graphs/g", nil, &info)
		if info.Dynamic != nil && info.Dynamic.Rebuilds >= 1 && info.Dynamic.PendingUpdates == 0 {
			if info.Dynamic.LastCause != "journal" {
				t.Fatalf("cause = %q", info.Dynamic.LastCause)
			}
			if info.Dynamic.BaseGeneration != 3 {
				t.Fatalf("base generation = %d", info.Dynamic.BaseGeneration)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto rebuild never surfaced: %+v", info.Dynamic)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The inserted shortcut still answers post-rebuild.
	var res struct {
		Dist int64 `json:"dist"`
	}
	if code := httpJSON(t, ts, "POST", "/graphs/g/query",
		map[string]any{"s": 0, "t": 50}, &res); code != http.StatusOK || res.Dist != 2 {
		t.Fatalf("post-rebuild query = %d dist=%d", code, res.Dist)
	}
}

// TestRebuildKeepsCache: an exact rebuild changes no answer at the
// current generation, so its swap keeps the result cache. A pair
// cached after a mutation batch is served as a cache hit after
// POST /graphs/{id}/rebuild, and equals ExactDistanceAt at the rebuilt
// generation.
func TestRebuildKeepsCache(t *testing.T) {
	s, ts := newTestServer(t)
	if code := httpJSON(t, ts, "POST", "/graphs",
		GraphSpec{Name: "g", Gen: "grid:side=6,w=uniform,maxw=9", Seed: 3}, nil); code != http.StatusAccepted {
		t.Fatalf("POST /graphs = %d", code)
	}
	waitReady(t, ts, "g")
	var ar applyResponse
	if code := httpJSON(t, ts, "POST", "/graphs/g/edges", map[string]any{"updates": []map[string]any{
		{"op": "delete", "u": 0, "v": 1},
		{"op": "insert", "u": 2, "v": 33, "w": 4},
	}}, &ar); code != http.StatusOK {
		t.Fatalf("edges = %d", code)
	}
	query := func() int64 {
		var res struct {
			Dist int64 `json:"dist"`
		}
		if code := httpJSON(t, ts, "POST", "/graphs/g/query",
			map[string]any{"s": 0, "t": 34}, &res); code != http.StatusOK {
			t.Fatalf("query = %d", code)
		}
		return res.Dist
	}
	e, _ := s.Registry().Get("g")
	before := query() // a miss: the mutation batch flushed the cache
	hits := e.stats.Snapshot().CacheHits
	var rb struct {
		Dynamic DynamicInfo `json:"dynamic"`
	}
	if code := httpJSON(t, ts, "POST", "/graphs/g/rebuild", nil, &rb); code != http.StatusOK {
		t.Fatalf("rebuild = %d", code)
	}
	if dyn := rb.Dynamic; dyn.BaseGeneration != ar.Generation || dyn.PendingUpdates != 0 {
		t.Fatalf("rebuild left %+v, want base generation %d and no pending updates", dyn, ar.Generation)
	}
	got := query()
	if h := e.stats.Snapshot().CacheHits; h != hits+1 {
		t.Fatalf("cache hits %d -> %d across the rebuild, want one more", hits, h)
	}
	want, err := e.dyn.ExactDistanceAt(ar.Generation, 0, 34)
	if err != nil {
		t.Fatal(err)
	}
	if got != int64(want) || before != got {
		t.Fatalf("cached answer %d (before the rebuild %d), want the exact %d", got, before, want)
	}
}

// TestMetricsEndpoint: /metrics emits the Prometheus exposition with
// the serving counters and the dynamic gauges.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	if code := httpJSON(t, ts, "POST", "/graphs",
		GraphSpec{Name: "m", Gen: "grid:side=5", Seed: 1}, nil); code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	waitReady(t, ts, "m")
	httpJSON(t, ts, "POST", "/graphs/m/query", map[string]any{"s": 0, "t": 24}, nil)
	httpJSON(t, ts, "POST", "/graphs/m/query", map[string]any{"s": 0, "t": 24}, nil) // cache hit
	httpJSON(t, ts, "POST", "/graphs/m/edges", map[string]any{"updates": []map[string]any{
		{"op": "insert", "u": 0, "v": 24},
	}}, nil)

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`spanhop_requests_total{graph="m"} 2`,
		`spanhop_cache_hits_total{graph="m"} 1`,
		`spanhop_graphs{state="ready"} 1`,
		`spanhop_generation{graph="m"} 1`,
		`spanhop_pending_updates{graph="m"} 1`,
		`spanhop_mutations_total{graph="m"} 1`,
		`spanhop_query_latency_seconds_count{graph="m"} 2`,
		"# TYPE spanhop_query_latency_seconds histogram",
		`spanhop_build_stage_wall_seconds{graph="m",stage="load-graph"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Histogram buckets must be cumulative and end at +Inf == count.
	if !strings.Contains(body, `spanhop_query_latency_seconds_bucket{graph="m",le="+Inf"} 2`) {
		t.Error("metrics missing +Inf bucket")
	}
}
