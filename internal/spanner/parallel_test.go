package spanner

import (
	"runtime"
	"testing"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/par"
)

func withProcs(t *testing.T, p int, body func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(old)
	body()
}

func sameEdgeIDs(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.EdgeIDs) != len(b.EdgeIDs) {
		t.Fatalf("%s: size %d vs %d", label, len(a.EdgeIDs), len(b.EdgeIDs))
	}
	for i := range a.EdgeIDs {
		if a.EdgeIDs[i] != b.EdgeIDs[i] {
			t.Fatalf("%s: edge id %d vs %d at %d", label, a.EdgeIDs[i], b.EdgeIDs[i], i)
		}
	}
}

// TestUnweightedParallelIdentical: a parallel Options.Exec must reproduce the
// sequential construction's exact edge set (the clustering is
// bit-identical and the boundary selection is per-vertex).
func TestUnweightedParallelIdentical(t *testing.T) {
	withProcs(t, 4, func() {
		for seed := uint64(0); seed < 5; seed++ {
			g := graph.RandomConnectedGNM(1200, 6000, seed)
			seq := Unweighted(g, 3, seed, Options{})
			par := Unweighted(g, 3, seed, Options{Exec: exec.Parallel(0)})
			sameEdgeIDs(t, "unweighted", par, seq)
		}
	})
}

// TestWeightedParallelIdentical: the grouped weighted construction
// with parallel groups and clustering matches the sequential edge set.
func TestWeightedParallelIdentical(t *testing.T) {
	withProcs(t, 4, func() {
		for seed := uint64(0); seed < 4; seed++ {
			g := graph.ExponentialWeights(graph.RandomConnectedGNM(600, 2400, seed), 2, 20, seed^9)
			seq := Weighted(g, 4, seed, Options{})
			par := Weighted(g, 4, seed, Options{Exec: exec.Parallel(0)})
			sameEdgeIDs(t, "weighted", par, seq)
		}
	})
}

// TestParallelCostAccounted: the parallel path must report the same
// model work as the sequential one (the model is schedule-free).
func TestParallelCostAccounted(t *testing.T) {
	withProcs(t, 4, func() {
		g := graph.RandomConnectedGNM(800, 3200, 3)
		cSeq := par.NewCost()
		Unweighted(g, 3, 7, Options{Cost: cSeq})
		cPar := par.NewCost()
		Unweighted(g, 3, 7, Options{Cost: cPar, Exec: exec.Parallel(0)})
		if cSeq.Work() != cPar.Work() {
			t.Fatalf("work diverged: %d vs %d", cSeq.Work(), cPar.Work())
		}
		if cSeq.Depth() != cPar.Depth() {
			t.Fatalf("depth diverged: %d vs %d", cSeq.Depth(), cPar.Depth())
		}
	})
}
