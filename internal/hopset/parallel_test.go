package hopset

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/exec"
	"repro/internal/graph"
)

// withProcs forces GOMAXPROCS above 1 so the sibling-recursion and
// clique-source DoN fan-outs and the cluster goroutine paths genuinely
// interleave under `go test -race`.
func withProcs(t *testing.T, p int, body func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(old)
	body()
}

// TestBuildParallelMetricPreserved: the multicore build obeys the same
// Definition 2.4 contract as the sequential one — hopset edges are
// real paths, so the augmented metric is unchanged.
func TestBuildParallelMetricPreserved(t *testing.T) {
	withProcs(t, 4, func() {
		p := DefaultParams(2)
		p.Exec = exec.Default()
		g := graph.RandomConnectedGNM(600, 2400, 1)
		res := Build(g, p, nil)
		if res.Size() == 0 {
			t.Fatal("empty hopset on a 600-vertex graph")
		}
		checkMetricPreserved(t, g, res.Edges, 3)

		wg := graph.UniformWeights(graph.Grid2D(20, 20), 5, 4)
		wp := DefaultParams(5)
		wp.Exec = exec.Default()
		wres := Build(wg, wp, nil)
		checkMetricPreserved(t, wg, wres.Edges, 6)
	})
}

// TestBuildParallelSameStructure: the parallel build races the same
// clustering and searches each clique source with the same sequential
// Dial race, so its edges — endpoints, order and true path weights —
// equal the 1-worker build's exactly at 2 and GOMAXPROCS workers.
// Unit-weight graphs tie many shortest paths. Raced as the work graph
// under weights 1–4 on the same topology (as a coarse band of the
// multi-scale build races its rounded graph), the tied paths carry
// different true weights, so a clique search whose parent choice
// differed from the sequential one would change the edges; the
// expander's search frontiers are wide enough to fan out.
func TestBuildParallelSameStructure(t *testing.T) {
	withProcs(t, 4, func() {
		grid := graph.Grid2D(40, 40)
		er := graph.RandomConnectedGNM(3000, 12000, 11)
		for _, tc := range []struct {
			name        string
			work, truth *graph.Graph
		}{
			{"unit grid", grid, grid},
			{"unit er under weights 1-4", er, graph.UniformWeights(er, 4, 12)},
		} {
			build := func(workers int) *Result {
				p := DefaultParams(13)
				p.Exec = exec.Parallel(workers)
				return buildOn(tc.work, tc.truth, p, nil)
			}
			ref := build(1)
			for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
				got := build(workers)
				if got.Stars != ref.Stars || got.Levels != ref.Levels || got.Cliques != ref.Cliques {
					t.Fatalf("%s, %d workers: structure diverged: stars %d/%d cliques %d/%d levels %d/%d",
						tc.name, workers, got.Stars, ref.Stars, got.Cliques, ref.Cliques, got.Levels, ref.Levels)
				}
				sameEdges(t, fmt.Sprintf("%s, %d workers", tc.name, workers), ref.Edges, got.Edges)
			}
		}
	})
}

// TestBuildScaledDeterministicAcrossWorkers: every band of a
// multi-scale build — its D, its rounding granularity and its edge
// list — is bit-identical at 1, 2 and GOMAXPROCS workers.
func TestBuildScaledDeterministicAcrossWorkers(t *testing.T) {
	withProcs(t, 4, func() {
		for _, tc := range []struct {
			name string
			g    *graph.Graph
		}{
			{"er", graph.ExponentialWeights(graph.RandomConnectedGNM(1500, 6000, 31), 4, 5, 32)},
			{"grid", graph.ExponentialWeights(graph.Grid2D(40, 40), 4, 5, 33)},
		} {
			build := func(workers int) *Scaled {
				wp := DefaultWeightedParams(34)
				wp.Exec = exec.Parallel(workers)
				return BuildScaled(tc.g, wp, nil)
			}
			ref := build(1)
			for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
				got := build(workers)
				if len(got.Scales) != len(ref.Scales) {
					t.Fatalf("%s, %d workers: %d bands, want %d", tc.name, workers, len(got.Scales), len(ref.Scales))
				}
				for i, sc := range got.Scales {
					want := ref.Scales[i]
					if sc.D != want.D || sc.WHat != want.WHat {
						t.Fatalf("%s, %d workers, band %d: (D, ŵ) = (%g, %d), want (%g, %d)",
							tc.name, workers, i, sc.D, sc.WHat, want.D, want.WHat)
					}
					sameEdges(t, fmt.Sprintf("%s, %d workers, band %d", tc.name, workers, i),
						want.Res.Edges, sc.Res.Edges)
				}
			}
		}
	})
}

// sameEdges fails unless got equals want edge for edge, in order.
func sameEdges(t *testing.T, what string, want, got []graph.Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d edges, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: edge %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestBuildScaledParallelQueries: the end-to-end multi-scale build and
// query engine stay sound and tight on a parallel execution context.
func TestBuildScaledParallelQueries(t *testing.T) {
	withProcs(t, 4, func() {
		g := graph.UniformWeights(graph.Grid2D(15, 15), 30, 21)
		wp := DefaultWeightedParams(22)
		wp.Exec = exec.Default()
		s := BuildScaled(g, wp, nil)
		distortion := wp.ExpectedDistortion(int(g.NumVertices()))
		for _, pairSeed := range []graph.V{0, 7, 100} {
			src, dst := pairSeed, g.NumVertices()-1-pairSeed
			exact := s.ExactDistance(src, dst)
			q := s.Query(src, dst, nil)
			if q.Dist < exact {
				t.Fatalf("query (%d,%d) returned %d below exact %d", src, dst, q.Dist, exact)
			}
			if float64(q.Dist) > (1+wp.Zeta)*distortion*float64(exact)+1 {
				t.Fatalf("query (%d,%d) = %d too loose vs exact %d", src, dst, q.Dist, exact)
			}
		}
	})
}
