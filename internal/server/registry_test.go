package server

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// waitState polls an entry until it leaves StateBuilding.
func waitState(t *testing.T, e *Entry) State {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if st := e.Info().State; st != StateBuilding {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("entry %s still building after 30s", e.id)
	return StateBuilding
}

func TestRegistryBuildAndReady(t *testing.T) {
	r := NewRegistry(Config{})
	defer r.Close()
	e, err := r.Add(GraphSpec{Name: "er0", Gen: "er:n=200,d=4,w=uniform,maxw=20", Eps: 0.3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, e); st != StateReady {
		t.Fatalf("state = %s (err %q), want ready", st, e.Info().Error)
	}
	info := e.Info()
	if info.ID != "er0" || info.N != 200 || info.M < 199 || !info.Weighted {
		t.Fatalf("bad info: %+v", info)
	}
	// A registry build is exact: it loads the graph and builds no hopset.
	if info.Spec.Eps != 0.3 {
		t.Fatalf("spec eps = %g, want the registered 0.3", info.Spec.Eps)
	}
	assertExact(t, r, "er0")
	if len(info.BuildStages) != 1 || info.BuildStages[0].Name != "load-graph" {
		t.Fatalf("build stages = %+v, want load-graph alone", info.BuildStages)
	}
	got, ok := r.Get("er0")
	if !ok || got != e {
		t.Fatal("Get lost the entry")
	}
	if list := r.List(); len(list) != 1 || list[0].ID != "er0" {
		t.Fatalf("List = %+v", list)
	}
}

// TestRegistryBuildFailureSurfaced: the lifecycle must carry a build
// error to the client instead of wedging in building (satellite:
// build-failure surfacing).
func TestRegistryBuildFailureSurfaced(t *testing.T) {
	r := NewRegistry(Config{})
	defer r.Close()
	e, err := r.Add(GraphSpec{File: "/nonexistent/graph.txt"})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, e); st != StateFailed {
		t.Fatalf("state = %s, want failed", st)
	}
	info := e.Info()
	if !strings.Contains(info.Error, "no such file") {
		t.Fatalf("error %q does not surface the cause", info.Error)
	}
	if _, err := e.executor(); !errors.Is(err, ErrNotReady) {
		t.Fatalf("executor() = %v, want ErrNotReady", err)
	}
}

func TestRegistryValidation(t *testing.T) {
	r := NewRegistry(Config{})
	defer r.Close()
	bad := []GraphSpec{
		{},                                // neither source
		{File: "x", Gen: "er"},            // both sources
		{Gen: "er", Eps: 1.5},             // eps out of range
		{Gen: "er", Eps: -0.1},            // eps out of range
		{Gen: "nonsense:q=1"},             // unparsable generator
		{Name: "dup", Gen: "er:n=50,d=3"}, // first is fine...
		{Name: "dup", Gen: "grid:side=5"}, // ...duplicate name
		{Name: "a/b", Gen: "er:n=50,d=3"}, // unroutable name (mux {id} is one segment)
		{Name: "sp ace", Gen: "er:n=50,d=3"},
		{Name: strings.Repeat("x", 65), Gen: "er:n=50,d=3"},
	}
	var errs int
	for i, spec := range bad {
		_, err := r.Add(spec)
		if i == 5 {
			if err != nil {
				t.Fatalf("spec %d unexpectedly rejected: %v", i, err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("spec %d (%+v) accepted", i, spec)
		}
		errs++
	}
	if errs != len(bad)-1 {
		t.Fatalf("rejected %d specs, want %d", errs, len(bad)-1)
	}
}

// TestRegistryBuildQueueFull: a saturated bounded build queue is a
// typed, synchronous rejection. White-box: no workers started, so the
// queue cannot drain.
func TestRegistryBuildQueueFull(t *testing.T) {
	r := &Registry{
		cfg:     Config{}.withDefaults(),
		entries: make(map[string]*Entry),
		queue:   make(chan *Entry, 1),
	}
	if _, err := r.Add(GraphSpec{Gen: "er:n=50,d=3"}); err != nil {
		t.Fatal(err)
	}
	_, err := r.Add(GraphSpec{Gen: "er:n=60,d=3"})
	if !errors.Is(err, ErrBuildQueueFull) {
		t.Fatalf("err = %v, want ErrBuildQueueFull", err)
	}
	// The rejected registration must not leak into the registry.
	if len(r.entries) != 1 || len(r.order) != 1 {
		t.Fatalf("rejected spec leaked: %d entries", len(r.entries))
	}
}

// TestRegistryAutoNameSkipsTakenIDs: a user-chosen name that looks
// like an auto id ("g0") must never wedge unnamed registration.
func TestRegistryAutoNameSkipsTakenIDs(t *testing.T) {
	r := NewRegistry(Config{})
	defer r.Close()
	if _, err := r.Add(GraphSpec{Name: "g0", Gen: "er:n=50,d=3"}); err != nil {
		t.Fatal(err)
	}
	e, err := r.Add(GraphSpec{Gen: "er:n=60,d=3"})
	if err != nil {
		t.Fatalf("unnamed Add after explicit g0: %v", err)
	}
	if e.id == "g0" {
		t.Fatal("auto id collided with the named entry")
	}
	e2, err := r.Add(GraphSpec{Gen: "er:n=70,d=3"})
	if err != nil {
		t.Fatal(err)
	}
	if e2.id == e.id {
		t.Fatalf("duplicate auto id %q", e2.id)
	}
}

func TestRegistryAutoNamesAndClose(t *testing.T) {
	r := NewRegistry(Config{BuildWorkers: 2})
	a, err := r.Add(GraphSpec{Gen: "er:n=60,d=3"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Add(GraphSpec{Gen: "grid:side=6"})
	if err != nil {
		t.Fatal(err)
	}
	if a.id != "g0" || b.id != "g1" {
		t.Fatalf("auto ids = %s, %s", a.id, b.id)
	}
	waitState(t, a)
	waitState(t, b)
	r.Close()
	r.Close() // idempotent
	if _, err := r.Add(GraphSpec{Gen: "er:n=50,d=3"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Add after Close = %v, want ErrClosed", err)
	}
}
