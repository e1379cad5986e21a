package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// qualityHandler serves a canned /debug/quality body whose audit
// counters converge after a few polls, like a real auditor draining
// its queue.
func qualityServer(t *testing.T, graphs func(polls int64) []obs.AuditGraphSnapshot) *httptest.Server {
	t.Helper()
	var polls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/quality" {
			http.NotFound(w, r)
			return
		}
		id := r.URL.Query().Get("graph")
		gs := graphs(polls.Add(1))
		if id != "" {
			var match []obs.AuditGraphSnapshot
			for _, g := range gs {
				if g.Graph == id {
					match = append(match, g)
				}
			}
			if match == nil {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusNotFound)
				json.NewEncoder(w).Encode(map[string]string{"error": "unknown graph"})
				return
			}
			gs = match
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"graphs": gs})
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestFetchQuality(t *testing.T) {
	ts := qualityServer(t, func(int64) []obs.AuditGraphSnapshot {
		return []obs.AuditGraphSnapshot{
			{Graph: "a", Sampled: 10, Audited: 10, Violations: 2},
			{Graph: "b", Sampled: 1, Audited: 1},
		}
	})
	snap, ok, err := fetchQuality(ts.Client(), ts.URL, "a")
	if err != nil || !ok {
		t.Fatalf("fetchQuality(a) = ok=%v err=%v", ok, err)
	}
	if snap.Violations != 2 || snap.Audited != 10 {
		t.Fatalf("snap = %+v", snap)
	}
	if _, ok, err := fetchQuality(ts.Client(), ts.URL, "nosuch"); ok || err != nil {
		t.Fatalf("fetchQuality(nosuch) = ok=%v err=%v, want miss without error", ok, err)
	}
}

func TestAwaitQualityDrains(t *testing.T) {
	// The first two polls show an undrained pipeline; the third shows
	// every accepted sample accounted for. awaitQuality must keep
	// polling until then and return the settled snapshot.
	ts := qualityServer(t, func(polls int64) []obs.AuditGraphSnapshot {
		g := obs.AuditGraphSnapshot{Graph: "g", Sampled: 8, Audited: 3}
		if polls >= 3 {
			g.Audited, g.StaleSkips, g.Dropped = 5, 2, 1
		}
		return []obs.AuditGraphSnapshot{g}
	})
	snap, err := awaitQuality(ts.Client(), ts.URL, "g", 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Audited != 5 || snap.StaleSkips != 2 || snap.Dropped != 1 {
		t.Fatalf("awaitQuality returned before the pipeline drained: %+v", snap)
	}
}

func TestAwaitQualityMissingGraph(t *testing.T) {
	ts := qualityServer(t, func(int64) []obs.AuditGraphSnapshot { return nil })
	if _, err := awaitQuality(ts.Client(), ts.URL, "g", 15*time.Second); err == nil {
		t.Fatal("awaitQuality succeeded for a graph the server never audited")
	}
}

// TestAwaitQualityTimeout: samples that never settle are an error that
// names the settled and sampled counts, not a clean snapshot.
func TestAwaitQualityTimeout(t *testing.T) {
	ts := qualityServer(t, func(int64) []obs.AuditGraphSnapshot {
		return []obs.AuditGraphSnapshot{{Graph: "g", Sampled: 8, Audited: 3, Dropped: 1}}
	})
	_, err := awaitQuality(ts.Client(), ts.URL, "g", 20*time.Millisecond)
	if err == nil {
		t.Fatal("awaitQuality reported a pipeline that never drained as settled")
	}
	if !strings.Contains(err.Error(), "4 of 8 samples settled") {
		t.Fatalf("error %q does not name the settled and sampled counts", err)
	}
}
