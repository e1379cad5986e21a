package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestDeleteReadyGraph: DELETE evicts a ready graph — lookups 404,
// queries 404, healthz counts drop, stats omit it.
func TestDeleteReadyGraph(t *testing.T) {
	_, ts := newTestServer(t)
	code := httpJSON(t, ts, "POST", "/graphs",
		GraphSpec{Name: "doomed", Gen: "er:n=120,d=4,w=uniform,maxw=20", Seed: 3}, nil)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	waitReady(t, ts, "doomed")

	var del struct {
		ID      string `json:"id"`
		Deleted bool   `json:"deleted"`
		State   State  `json:"state"`
	}
	if code := httpJSON(t, ts, "DELETE", "/graphs/doomed", nil, &del); code != http.StatusOK {
		t.Fatalf("DELETE = %d", code)
	}
	if !del.Deleted || del.State != StateReady {
		t.Fatalf("delete response = %+v", del)
	}
	if code := httpJSON(t, ts, "GET", "/graphs/doomed", nil, nil); code != http.StatusNotFound {
		t.Fatalf("GET after DELETE = %d", code)
	}
	if code := httpJSON(t, ts, "POST", "/graphs/doomed/query",
		map[string]any{"s": 0, "t": 1}, nil); code != http.StatusNotFound {
		t.Fatalf("query after DELETE = %d", code)
	}
	var health struct {
		Graphs int `json:"graphs"`
	}
	httpJSON(t, ts, "GET", "/healthz", nil, &health)
	if health.Graphs != 0 {
		t.Fatalf("healthz still counts %d graphs", health.Graphs)
	}
	// Deleting again is a 404, not a crash.
	if code := httpJSON(t, ts, "DELETE", "/graphs/doomed", nil, nil); code != http.StatusNotFound {
		t.Fatalf("second DELETE = %d", code)
	}
}

// TestDeleteAbortsInFlightBuild: deleting a graph whose oracle build
// is running cancels the build (the worker becomes free for the next
// registration), removes every trace from the registry, and leaves
// the goroutine count at its baseline — no leaked build goroutines,
// no partial state.
func TestDeleteAbortsInFlightBuild(t *testing.T) {
	s := New(Config{BuildWorkers: 1})
	defer s.Close()
	reg := s.Registry()

	// Warm pool + baseline via a small build.
	if _, err := reg.Add(GraphSpec{Name: "warm", Gen: "er:n=64,d=4", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	waitRegState(t, reg, "warm", StateReady)
	base := runtime.NumGoroutine()

	// A build slow enough to still be in flight when the DELETE lands:
	// an exact build only generates the graph, so the graph is large
	// (262,144 vertices take most of a second to generate).
	slow, err := reg.Add(GraphSpec{Name: "slow", Gen: "er:n=262144,d=8,w=uniform,maxw=64", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the worker pick it up
	if state, err := reg.Delete("slow"); err != nil || state != StateBuilding {
		t.Fatalf("Delete(slow) = %q, %v; want building", state, err)
	}
	if _, ok := reg.Get("slow"); ok {
		t.Fatal("deleted entry still visible in the registry")
	}

	// The aborted build must release the worker: a fresh small build
	// becomes ready far faster than the slow build could finish.
	if _, err := reg.Add(GraphSpec{Name: "after", Gen: "er:n=64,d=4", Seed: 4}); err != nil {
		t.Fatal(err)
	}
	waitRegState(t, reg, "after", StateReady)

	// The aborted entry itself ends failed (never ready) — its output
	// was discarded.
	deadline := time.Now().Add(30 * time.Second)
	for {
		info := slow.Info()
		if info.State == StateFailed {
			break
		}
		if info.State == StateReady {
			t.Fatal("deleted build still became ready")
		}
		if time.Now().After(deadline) {
			t.Fatalf("aborted build never settled: %+v", info)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for time.Now().Before(deadline) && runtime.NumGoroutine() > base+6 {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base+6 {
		t.Fatalf("goroutines leaked: base %d, now %d", base, got)
	}
}

// TestDeleteQueuedBuild: deleting a graph stuck behind another build
// in the queue prevents its build from ever running.
func TestDeleteQueuedBuild(t *testing.T) {
	s := New(Config{BuildWorkers: 1})
	defer s.Close()
	reg := s.Registry()

	if _, err := reg.Add(GraphSpec{Name: "front", Gen: "er:n=16384,d=8,w=uniform,maxw=64", Seed: 5}); err != nil {
		t.Fatal(err)
	}
	queued, err := reg.Add(GraphSpec{Name: "queued", Gen: "er:n=64,d=4", Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if state, err := reg.Delete("queued"); err != nil || state != StateBuilding {
		t.Fatalf("Delete(queued) = %q, %v", state, err)
	}
	waitRegState(t, reg, "front", StateReady)
	// The worker drained past the deleted entry without building it.
	if info := queued.Info(); info.State != StateFailed {
		t.Fatalf("queued entry state = %s, want failed", info.State)
	}
	if _, ok := reg.Get("queued"); ok {
		t.Fatal("deleted queued entry still in registry")
	}
}

// TestDeleteVsQueryRace is the -race stress for the delete-vs-query
// contract: a DELETE landing while single queries and explicit batch
// calls are in flight must leave every caller with
// either a complete answer set or a clean 404 — never a partial
// batch, and never a misleading 503 for a graph that is simply gone.
func TestDeleteVsQueryRace(t *testing.T) {
	_, ts := newTestServer(t)
	code := httpJSON(t, ts, "POST", "/graphs",
		GraphSpec{Name: "racy", Gen: "er:n=200,d=4,w=uniform,maxw=20", Seed: 7}, nil)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	waitReady(t, ts, "racy")

	const workers = 8
	var (
		start = make(chan struct{})
		wg    sync.WaitGroup
		mu    sync.Mutex
		bad   []string
	)
	report := func(format string, args ...any) {
		mu.Lock()
		if len(bad) < 5 {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; ; i++ {
				var code int
				if w%2 == 0 {
					var res struct {
						Dist *int64 `json:"dist"`
					}
					code = httpJSON(t, ts, "POST", "/graphs/racy/query",
						map[string]any{"s": int32((w*31 + i) % 200), "t": int32((i * 7) % 200)}, &res)
					if code == http.StatusOK && res.Dist == nil {
						report("worker %d: 200 single answer without dist", w)
					}
				} else {
					pairs := [][2]int32{{0, 1}, {2, 3}, {4, 5}, {int32(i % 200), int32((i + 1) % 200)}}
					var res struct {
						Results []json.RawMessage `json:"results"`
					}
					code = httpJSON(t, ts, "POST", "/graphs/racy/query",
						map[string]any{"pairs": pairs}, &res)
					if code == http.StatusOK && len(res.Results) != len(pairs) {
						report("worker %d: partial batch: %d of %d answers", w, len(res.Results), len(pairs))
					}
				}
				switch code {
				case http.StatusOK:
				case http.StatusNotFound:
					return // clean 404 after the delete: done
				default:
					report("worker %d: status %d", w, code)
					return
				}
			}
		}(w)
	}
	close(start)
	time.Sleep(20 * time.Millisecond) // let queries pile into the window
	if code := httpJSON(t, ts, "DELETE", "/graphs/racy", nil, nil); code != http.StatusOK {
		t.Fatalf("DELETE = %d", code)
	}
	wg.Wait()
	for _, b := range bad {
		t.Error(b)
	}
	// Post-delete, the route is a plain 404.
	if code := httpJSON(t, ts, "POST", "/graphs/racy/query",
		map[string]any{"s": 0, "t": 1}, nil); code != http.StatusNotFound {
		t.Fatalf("post-delete query = %d", code)
	}
}

// waitRegState polls an entry's lifecycle state through the registry.
func waitRegState(t *testing.T, reg *Registry, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		e, ok := reg.Get(id)
		if !ok {
			t.Fatalf("graph %s disappeared", id)
		}
		info := e.Info()
		if info.State == want {
			return
		}
		if info.State == StateFailed && want != StateFailed {
			t.Fatalf("build of %s failed: %s", id, info.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s never reached %s", id, want)
}
