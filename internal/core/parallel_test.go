package core

import (
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/rng"
)

// withProcs forces GOMAXPROCS above 1 so par.For spawns goroutines and
// the concurrent bucket expansion actually runs concurrently, giving
// `go test -race` real interleavings even on single-core hosts.
func withProcs(t *testing.T, p int, body func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(old)
	body()
}

func sameClustering(t *testing.T, label string, a, b *Result) {
	t.Helper()
	for v := range a.Center {
		if a.Center[v] != b.Center[v] {
			t.Fatalf("%s: center mismatch at %d: %d vs %d", label, v, a.Center[v], b.Center[v])
		}
		if a.DistToCenter[v] != b.DistToCenter[v] {
			t.Fatalf("%s: dist mismatch at %d: %d vs %d", label, v, a.DistToCenter[v], b.DistToCenter[v])
		}
		if a.Parent[v] != b.Parent[v] {
			t.Fatalf("%s: parent mismatch at %d: %d vs %d", label, v, a.Parent[v], b.Parent[v])
		}
		if a.ClusterOf[v] != b.ClusterOf[v] {
			t.Fatalf("%s: grouping mismatch at %d", label, v)
		}
	}
}

// TestClusterParallelMatchesSequential: a parallel Exec must produce
// a bit-identical Result — including parents — since offers are
// ordered by a total key, whatever order the chunks merge them in.
func TestClusterParallelMatchesSequential(t *testing.T) {
	withProcs(t, 4, func() {
		cases := []*graph.Graph{
			graph.Grid2D(25, 25),
			graph.RandomConnectedGNM(1500, 6000, 2),
			graph.UniformWeights(graph.RandomConnectedGNM(1200, 4000, 9), 7, 10),
			graph.UniformWeights(graph.Grid2D(20, 30), 20, 12),
		}
		for gi, g := range cases {
			for _, beta := range []float64{0.05, 0.3} {
				seed := uint64(gi)*10 + uint64(beta*100)
				seq := Cluster(g, beta, seed, Options{})
				par := Cluster(g, beta, seed, Options{Exec: exec.Parallel(0)})
				sameClustering(t, "vs sequential", par, seq)
			}
		}
	})
}

// TestClusterParallelMatchesReference: the parallel race against the
// obvious priority-queue oracle, across seeds.
func TestClusterParallelMatchesReference(t *testing.T) {
	withProcs(t, 4, func() {
		for seed := uint64(0); seed < 6; seed++ {
			g := graph.UniformWeights(graph.RandomConnectedGNM(800, 3200, seed), 9, seed^21)
			a := Cluster(g, 0.15, seed, Options{Exec: exec.Parallel(0)})
			b := ClusterReference(g, 0.15, seed, Options{})
			sameClustering(t, "vs reference", a, b)
			checkPartition(t, g, a, allVertices(g))
		}
	})
}

// TestClusterParallelSubset: restriction plumbing survives the
// concurrent expansion.
func TestClusterParallelSubset(t *testing.T) {
	withProcs(t, 4, func() {
		g := graph.UniformWeights(graph.Grid2D(18, 18), 5, 3)
		n := g.NumVertices()
		mark := make([]int32, n)
		var subset []graph.V
		for v := graph.V(0); v < n; v++ {
			if v%3 != 0 {
				mark[v] = 1
				subset = append(subset, v)
			}
		}
		opt := Options{Vertices: subset, Mark: mark, Token: 1}
		popt := opt
		popt.Exec = exec.Parallel(0)
		a := Cluster(g, 0.2, 7, popt)
		b := ClusterReference(g, 0.2, 7, opt)
		sameClustering(t, "subset", a, b)
		checkPartition(t, g, a, subset)
	})
}

// Property: parallel Cluster == ClusterReference on arbitrary random
// weighted graphs and subsets (the concurrent mirror of
// TestClusterReferenceProperty).
func TestClusterParallelReferenceProperty(t *testing.T) {
	withProcs(t, 4, func() {
		f := func(seedRaw uint32, betaRaw uint8, weighted bool) bool {
			seed := uint64(seedRaw)
			r := rng.New(seed ^ 0xfedcba)
			n := int32(r.Intn(60) + 2)
			m := int64(n) - 1 + int64(r.Intn(80))
			if max := int64(n) * int64(n-1) / 2; m > max {
				m = max
			}
			g := graph.RandomConnectedGNM(n, m, seed)
			if weighted {
				g = graph.UniformWeights(g, 6, seed^5)
			}
			beta := 0.02 + float64(betaRaw)/256.0
			a := Cluster(g, beta, seed, Options{Exec: exec.Parallel(0)})
			b := ClusterReference(g, beta, seed, Options{})
			for v := graph.V(0); v < n; v++ {
				if a.Center[v] != b.Center[v] || a.DistToCenter[v] != b.DistToCenter[v] || a.Parent[v] != b.Parent[v] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatal(err)
		}
	})
}

func BenchmarkClusterParallel(b *testing.B) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(20000, 80000, 1), 16, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Cluster(g, 0.1, uint64(i), Options{Exec: exec.Parallel(0)})
	}
}
