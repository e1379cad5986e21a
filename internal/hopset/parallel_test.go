package hopset

import (
	"runtime"
	"testing"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/sssp"
)

// withProcs forces GOMAXPROCS above 1 so the sibling-recursion DoN
// fan-out and the Δ-stepping/cluster goroutine paths genuinely
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
// clustering (bit-identical), so the star edges, recursion shape, and
// clique endpoints must match the sequential build exactly; clique
// edge weights may differ only when the rounded graph admits several
// shortest trees, and then both weights certify the same metric.
func TestBuildParallelSameStructure(t *testing.T) {
	withProcs(t, 4, func() {
		g := graph.UniformWeights(graph.RandomConnectedGNM(500, 2000, 11), 4, 12)
		seq := Build(g, DefaultParams(13), nil)
		pp := DefaultParams(13)
		pp.Exec = exec.Default()
		par := Build(g, pp, nil)
		if seq.Stars != par.Stars || seq.Levels != par.Levels || seq.Cliques != par.Cliques {
			t.Fatalf("structure diverged: stars %d/%d cliques %d/%d levels %d/%d",
				seq.Stars, par.Stars, seq.Cliques, par.Cliques, seq.Levels, par.Levels)
		}
		type pair struct{ u, v graph.V }
		key := func(e graph.Edge) pair {
			if e.U < e.V {
				return pair{e.U, e.V}
			}
			return pair{e.V, e.U}
		}
		seqSet := make(map[pair]graph.W, len(seq.Edges))
		for _, e := range seq.Edges {
			seqSet[key(e)] = e.W
		}
		if len(par.Edges) != len(seq.Edges) {
			t.Fatalf("edge count diverged: %d vs %d", len(par.Edges), len(seq.Edges))
		}
		for _, e := range par.Edges {
			w, ok := seqSet[key(e)]
			if !ok {
				t.Fatalf("parallel build added edge (%d,%d) absent sequentially", e.U, e.V)
			}
			if w != e.W {
				// Both must still be real path weights ≥ the true
				// distance (alternative shortest trees in gWork).
				d := sssp.Dijkstra(g, []graph.V{e.U}, sssp.Options{}).Dist[e.V]
				if e.W < d || w < d {
					t.Fatalf("edge (%d,%d): weights %d/%d below true distance %d",
						e.U, e.V, e.W, w, d)
				}
			}
		}
	})
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
