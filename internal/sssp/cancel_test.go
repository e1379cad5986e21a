package sssp

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/graph"
)

// waitGoroutines polls until the goroutine count falls back to at
// most base+slack (the pooled workers are part of base).
func waitGoroutines(t *testing.T, base, slack int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+slack {
			return
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines did not settle: base %d, now %d", base, runtime.NumGoroutine())
}

// TestExecResultsBitIdentical: searches on an execution context (with
// arena-recycled buffers, twice to force reuse) must equal the legacy
// paths exactly.
func TestExecResultsBitIdentical(t *testing.T) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(3000, 12000, 5), 32, 6)
	want := Dijkstra(g, []graph.V{0}, Options{})
	ec := exec.Parallel(4)
	for round := 0; round < 3; round++ {
		res := DeltaStepping(g, []graph.V{0}, Options{Exec: ec})
		for v := range want.Dist {
			if res.Dist[v] != want.Dist[v] {
				t.Fatalf("round %d: dist[%d] = %d, want %d", round, v, res.Dist[v], want.Dist[v])
			}
		}
		res.Release(ec)

		seq := exec.Sequential()
		dial := Dial(g, []graph.V{0}, Options{Exec: seq})
		for v := range want.Dist {
			if dial.Dist[v] != want.Dist[v] {
				t.Fatalf("round %d: dial dist[%d] = %d, want %d", round, v, dial.Dist[v], want.Dist[v])
			}
		}
		dial.Release(seq)
	}
}

// TestDeltaSteppingCancel aborts a Δ-stepping run mid-flight and
// checks it returns promptly without leaking goroutines.
func TestDeltaSteppingCancel(t *testing.T) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(60_000, 480_000, 7), 64, 8)
	// Warm the worker pool so the baseline includes it.
	DeltaStepping(g, []graph.V{0}, Options{Exec: exec.Parallel(0)}).Release(nil)
	base := runtime.NumGoroutine()

	// Pre-canceled: must return immediately after at most one bucket.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ec := exec.New(exec.Options{Context: ctx})
	res := DeltaStepping(g, []graph.V{0}, Options{Exec: ec})
	if ec.Err() == nil {
		t.Fatal("expected canceled context")
	}
	_ = res // invalid by contract; only its existence matters

	// Mid-run cancel: fire after a short delay, require prompt return.
	ctx2, cancel2 := context.WithCancel(context.Background())
	ec2 := exec.New(exec.Options{Context: ctx2})
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel2()
	}()
	done := make(chan struct{})
	go func() {
		DeltaStepping(g, []graph.V{0}, Options{Exec: ec2})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("canceled Δ-stepping did not return")
	}
	waitGoroutines(t, base, 4)
}

// TestBFSAndHopLimitedCancel covers the remaining round-boundary
// checks: a pre-canceled context stops BFS and Bellman–Ford at their
// first round.
func TestBFSAndHopLimitedCancel(t *testing.T) {
	g := graph.RandomConnectedGNM(5000, 20000, 9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ec := exec.New(exec.Options{Context: ctx})

	res := BFS(g, []graph.V{0}, Options{Exec: ec})
	reached := 0
	for _, d := range res.Dist {
		if d < graph.InfDist {
			reached++
		}
	}
	if reached > 1 {
		t.Fatalf("canceled BFS settled %d vertices, want just the source", reached)
	}

	dist := HopLimited(ec, g, nil, []graph.V{0}, 8, nil)
	reached = 0
	for _, d := range dist {
		if d < graph.InfDist {
			reached++
		}
	}
	if reached > 1 {
		t.Fatalf("canceled HopLimited settled %d vertices", reached)
	}
	dist2 := HopLimitedParallel(ec, g, nil, []graph.V{0}, 8, nil)
	reached = 0
	for _, d := range dist2 {
		if d < graph.InfDist {
			reached++
		}
	}
	if reached > 1 {
		t.Fatalf("canceled HopLimitedParallel settled %d vertices", reached)
	}
}
