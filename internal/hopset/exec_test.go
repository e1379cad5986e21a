package hopset

import (
	"context"
	"sort"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/graph"
)

// TestBuildExecEquivalence: driving the build through an execution
// context must reproduce the legacy builds exactly — a sequential ctx
// matches the nil-Exec sequential build, a 4-worker ctx matches a
// full-parallelism exec.Parallel(0).
func TestBuildExecEquivalence(t *testing.T) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(600, 2400, 21), 12, 22)
	base := DefaultParams(7)
	base.Gamma2 = 0.6

	legacySeq := Build(g, base, nil)
	pSeq := base
	pSeq.Exec = exec.Sequential()
	seq := Build(g, pSeq, nil)
	assertSameEdges(t, "sequential-ctx", legacySeq.Edges, seq.Edges)

	pLegacyPar := base
	pLegacyPar.Exec = exec.Parallel(0)
	legacyPar := Build(g, pLegacyPar, nil)
	pPar := base
	pPar.Exec = exec.Parallel(4)
	par := Build(g, pPar, nil)
	assertSameEdges(t, "parallel-ctx", legacyPar.Edges, par.Edges)
}

func assertSameEdges(t *testing.T, label string, want, got []graph.Edge) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d edges, want %d", label, len(got), len(want))
	}
	key := func(e graph.Edge) [3]int64 { return [3]int64{int64(e.U), int64(e.V), int64(e.W)} }
	a := make([][3]int64, len(want))
	b := make([][3]int64, len(got))
	for i := range want {
		a[i], b[i] = key(want[i]), key(got[i])
	}
	less := func(s [][3]int64) func(i, j int) bool {
		return func(i, j int) bool {
			for k := 0; k < 3; k++ {
				if s[i][k] != s[j][k] {
					return s[i][k] < s[j][k]
				}
			}
			return false
		}
	}
	sort.Slice(a, less(a))
	sort.Slice(b, less(b))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: edge %d = %v, want %v", label, i, b[i], a[i])
		}
	}
}

// TestBuildCancel aborts a hopset build mid-recursion: it must return
// promptly with a nil error from the context owner's point of view
// being the signal that the result is garbage.
func TestBuildCancel(t *testing.T) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(30_000, 240_000, 31), 32, 32)
	ctx, cancel := context.WithCancel(context.Background())
	p := DefaultParams(3)
	p.Exec = exec.New(exec.Options{Context: ctx, Workers: 4})
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	done := make(chan struct{})
	go func() {
		Build(g, p, nil)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("canceled hopset build did not return")
	}
	if p.Exec.Err() == nil {
		t.Fatal("expected canceled context")
	}
}
