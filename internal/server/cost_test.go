package server

// Cost-attribution and workload-analytics tests: the spanhop_graph_*
// exposition survives hostile graph ids (label escaping is the
// accountant-to-scraper contract), /debug/workload reports what was
// actually asked, the trace filters narrow correctly, and — under
// -race — concurrent traffic against two graphs lands every cost and
// analytics row on the right graph.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
)

// scrape fetches /metrics and returns the validated exposition.
func scrape(t *testing.T, ts *httptest.Server) (map[string]string, []promSample) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d (%v)", resp.StatusCode, err)
	}
	return parseExposition(t, string(raw))
}

func TestGraphCostExpositionHostileIDs(t *testing.T) {
	s, ts := newTestServer(t)

	// Hostile graph ids injected straight into the accountant: the
	// registry's name validation never admits these, but the metrics
	// writer must stay correct for ANY map key it is handed — ids with
	// quotes, backslashes, newlines, and Prometheus syntax are the
	// worst case for hand-rolled label escaping.
	hostile := []string{
		`quote"graph`,
		`back\slash`,
		"new\nline",
		`a{b="c"} 1`,
		`mixed"\` + "\n",
	}
	acct := s.cfg.Obs.Account()
	for _, id := range hostile {
		if err := acct.Measure(id, obs.OpQuery, func() error { return nil }); err != nil {
			t.Fatal(err)
		}
	}

	// parseExposition fails the test on any malformed escape or
	// duplicate family/sample, which is the point of this scrape.
	types, samples := scrape(t, ts)
	for _, fam := range []string{
		"spanhop_graph_cpu_seconds_total", "spanhop_graph_wall_seconds_total",
		"spanhop_graph_allocs_total", "spanhop_graph_alloc_bytes_total",
	} {
		if typ, ok := types[fam]; !ok || typ != "counter" {
			t.Errorf("family %s: type %q, want declared counter", fam, typ)
		}
	}

	// Every hostile id must round-trip: the escaped label value,
	// decoded by the strict parser, equals the raw id.
	got := map[string]int{}
	seen := map[string]bool{}
	for _, smp := range samples {
		if !strings.HasPrefix(smp.name, "spanhop_graph_") {
			continue
		}
		got[smp.labels["graph"]]++
		key := smp.name + "{" + labelKey(smp.labels, "") + "}"
		if seen[key] {
			t.Fatalf("duplicate sample %s", key)
		}
		seen[key] = true
		if smp.labels["op"] == "" {
			t.Errorf("sample %s missing op label", smp.name)
		}
	}
	for _, id := range hostile {
		// One sample per family for the (id, query) cell.
		if got[id] != 4 {
			t.Errorf("graph id %q: %d samples, want 4 (one per cost family)", id, got[id])
		}
	}
}

func TestWorkloadEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	code := httpJSON(t, ts, "POST", "/graphs",
		GraphSpec{Name: "wl", Gen: "er:n=80,d=4,w=uniform", Eps: 0.3, Seed: 3}, nil)
	if code != http.StatusAccepted {
		t.Fatalf("POST /graphs = %d", code)
	}
	waitReady(t, ts, "wl")

	// A deliberately skewed demand: (7, 9) three times, two singles.
	for _, p := range [][2]int{{7, 9}, {7, 9}, {7, 9}, {1, 2}, {3, 4}} {
		if code := httpJSON(t, ts, "POST", "/graphs/wl/query",
			map[string]any{"s": p[0], "t": p[1]}, nil); code != http.StatusOK {
			t.Fatalf("query %v = %d", p, code)
		}
	}

	var out struct {
		UptimeMS int64                           `json:"uptime_ms"`
		Graphs   map[string]obs.WorkloadSnapshot `json:"graphs"`
	}
	if code := httpJSON(t, ts, "GET", "/debug/workload?graph=wl", nil, &out); code != http.StatusOK {
		t.Fatalf("GET /debug/workload = %d", code)
	}
	snap, ok := out.Graphs["wl"]
	if !ok || len(out.Graphs) != 1 {
		t.Fatalf("graphs = %v, want exactly wl", out.Graphs)
	}
	if snap.TotalPairs != 5 {
		t.Fatalf("total pairs = %d, want 5", snap.TotalPairs)
	}
	if p := snap.TopPairs[0]; p.S != 7 || p.T != 9 || p.Count != 3 || p.Err != 0 {
		t.Fatalf("top pair = %+v, want (7,9) exact count 3", p)
	}
	var stats struct {
		Graphs map[string]graphStats `json:"graphs"`
	}
	httpJSON(t, ts, "GET", "/stats", nil, &stats)
	if got := stats.Graphs["wl"].Requests; got != 5 {
		t.Fatalf("requests = %d, want 5", got)
	}

	// ?k bounds the report; bad values and unknown graphs are client
	// errors, not empty documents.
	if code := httpJSON(t, ts, "GET", "/debug/workload?graph=wl&k=1", nil, &out); code != http.StatusOK {
		t.Fatalf("k=1 = %d", code)
	}
	if got := len(out.Graphs["wl"].TopPairs); got != 1 {
		t.Fatalf("k=1 returned %d pairs", got)
	}
	if code := httpJSON(t, ts, "GET", "/debug/workload?k=-1", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("k=-1 = %d, want 400", code)
	}
	if code := httpJSON(t, ts, "GET", "/debug/workload?k=zap", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("k=zap = %d, want 400", code)
	}
	if code := httpJSON(t, ts, "GET", "/debug/workload?graph=nope", nil, nil); code != http.StatusNotFound {
		t.Fatalf("graph=nope = %d, want 404", code)
	}
}

func TestTraceFilters(t *testing.T) {
	_, ts := newTestServer(t)
	for _, name := range []string{"ta", "tb"} {
		code := httpJSON(t, ts, "POST", "/graphs",
			GraphSpec{Name: name, Gen: "er:n=60,d=4,w=uniform", Eps: 0.3, Seed: 5}, nil)
		if code != http.StatusAccepted {
			t.Fatalf("POST /graphs %s = %d", name, code)
		}
	}
	waitReady(t, ts, "ta")
	waitReady(t, ts, "tb")
	for i := 0; i < 3; i++ {
		tracedQuery(t, ts, "ta", graph.V(i), graph.V(59-i))
	}
	tracedQuery(t, ts, "tb", 1, 2)

	count := func(path string) (int, int) {
		var out struct {
			Count  int             `json:"count"`
			Traces []obs.TraceData `json:"traces"`
		}
		code := httpJSON(t, ts, "GET", path, nil, &out)
		return code, out.Count
	}

	// Builds trace too, so the unfiltered ring holds at least the four
	// queries; graph filters must isolate exactly the queried counts.
	code, all := count("/debug/traces")
	if code != http.StatusOK || all < 4 {
		t.Fatalf("unfiltered = %d traces (code %d), want >= 4", all, code)
	}
	if code, n := count("/debug/traces?graph=ta"); code != http.StatusOK || n < 3 {
		t.Fatalf("graph=ta = %d traces (code %d), want 3", n, code)
	}
	code, tbCount := count("/debug/traces?graph=tb")
	if code != http.StatusOK || tbCount < 1 {
		t.Fatalf("graph=tb = %d traces (code %d), want >= 1", tbCount, code)
	}
	if code, n := count("/debug/traces?graph=ghost"); code != http.StatusOK || n != 0 {
		t.Fatalf("graph=ghost = %d traces (code %d), want 0", n, code)
	}
	// min_ms keeps only traces at least that slow; an absurd floor
	// empties the ring, zero keeps everything.
	if code, n := count("/debug/traces?min_ms=1e9"); code != http.StatusOK || n != 0 {
		t.Fatalf("min_ms=1e9 = %d traces (code %d), want 0", n, code)
	}
	if code, n := count("/debug/traces?min_ms=0"); code != http.StatusOK || n != all {
		t.Fatalf("min_ms=0 = %d traces (code %d), want all %d", n, code, all)
	}
	if code, _ := count("/debug/traces?min_ms=-1"); code != http.StatusBadRequest {
		t.Fatalf("min_ms=-1 = %d, want 400", code)
	}
	if code, _ := count("/debug/traces?min_ms=soon"); code != http.StatusBadRequest {
		t.Fatalf("min_ms=soon = %d, want 400", code)
	}
	// JSON is the only rendering; any other format, the retired
	// Chrome export included, is a client error.
	for _, f := range []string{"svg", "chrome"} {
		if code, _ := count("/debug/traces?format=" + f); code != http.StatusBadRequest {
			t.Fatalf("format=%s = %d, want 400", f, code)
		}
	}
	if code, n := count("/debug/traces?format=json"); code != http.StatusOK || n != all {
		t.Fatalf("format=json = %d traces (code %d), want all %d", n, code, all)
	}
}

func TestTwoGraphCostAttribution(t *testing.T) {
	s, ts := newTestServer(t)
	for _, name := range []string{"left", "right"} {
		code := httpJSON(t, ts, "POST", "/graphs",
			GraphSpec{Name: name, Gen: "er:n=100,d=4,w=uniform", Eps: 0.3, Seed: 9}, nil)
		if code != http.StatusAccepted {
			t.Fatalf("POST /graphs %s = %d", name, code)
		}
	}
	waitReady(t, ts, "left")
	waitReady(t, ts, "right")

	// Concurrent demand against both graphs, with distinct pairs so
	// the result cache cannot absorb the work, plus concurrent metric
	// scrapes so the read path races the writers under -race.
	const perGraph = 40
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := "left"
			if w%2 == 1 {
				id = "right"
			}
			for i := 0; i < perGraph/2; i++ {
				p := map[string]any{"s": (w*31 + i) % 100, "t": (w*17 + i*3) % 100}
				if code := httpJSON(t, ts, "POST", "/graphs/"+id+"/query", p, nil); code != http.StatusOK {
					t.Errorf("query %s = %d", id, code)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			httpJSON(t, ts, "GET", "/debug/workload", nil, nil)
			httpJSON(t, ts, "GET", "/metrics", nil, nil)
		}
	}()
	wg.Wait()

	acct := s.cfg.Obs.Account()
	for _, id := range []string{"left", "right"} {
		rows := acct.GraphSnapshot(id)
		var query *obs.CostSnapshot
		for i := range rows {
			if rows[i].Op == obs.OpQuery {
				query = &rows[i]
			}
		}
		if query == nil {
			t.Fatalf("%s: no query cost row (rows %+v)", id, rows)
		}
		// Demand semantics: the counter counts queries, exactly the 40
		// this test sent to each graph — cross-graph bleed would break
		// the equality in one direction, lost samples in the other.
		if query.Count != perGraph {
			t.Fatalf("%s: query count %d, want %d", id, query.Count, perGraph)
		}
		if query.Errors != 0 || query.Samples == 0 || query.WallSeconds <= 0 {
			t.Fatalf("%s: query row = %+v", id, query)
		}
		// Each graph also carries its own build row.
		var build *obs.CostSnapshot
		for i := range rows {
			if rows[i].Op == obs.OpBuild {
				build = &rows[i]
			}
		}
		if build == nil || build.Count != 1 {
			t.Fatalf("%s: build row = %+v", id, build)
		}
	}

	// The workload sketches must be disjoint per graph and complete.
	var out struct {
		Graphs map[string]obs.WorkloadSnapshot `json:"graphs"`
	}
	if code := httpJSON(t, ts, "GET", "/debug/workload?k=0", nil, &out); code != http.StatusOK {
		t.Fatalf("GET /debug/workload = %d", code)
	}
	for _, id := range []string{"left", "right"} {
		if got := out.Graphs[id].TotalPairs; got != perGraph {
			t.Fatalf("%s: sketch total %d, want %d", id, got, perGraph)
		}
	}

	// And /stats embeds the same attribution per graph.
	var stats struct {
		Graphs map[string]struct {
			Costs []obs.CostSnapshot `json:"costs"`
		} `json:"graphs"`
	}
	if code := httpJSON(t, ts, "GET", "/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("GET /stats = %d", code)
	}
	for _, id := range []string{"left", "right"} {
		found := false
		for _, c := range stats.Graphs[id].Costs {
			if c.Graph == id && c.Op == obs.OpQuery && c.Count == perGraph {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: /stats costs missing the query row: %+v", id, stats.Graphs[id].Costs)
		}
	}
}
