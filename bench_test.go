package spanhop

// This file is the benchmark harness of DESIGN.md's per-experiment
// index: one benchmark per table/figure of the paper, each reporting
// the table's numbers through b.ReportMetric so that
//
//	go test -bench=. -benchmem
//
// regenerates the evaluation. The same experiment code backs
// cmd/figures (which prints the full paper-style tables); benchmarks
// aggregate each experiment to its headline metrics. Seeds are fixed:
// runs are reproducible.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/sssp"
)

const benchSeed = 2015

// reportSpanner aggregates Figure 1 rows into per-algorithm size and
// stretch metrics.
func reportSpanner(b *testing.B, rows []experiments.SpannerRow) {
	b.Helper()
	type agg struct {
		size, work, depth float64
		stretch           float64
		n                 int
	}
	byAlgo := map[string]*agg{}
	for _, r := range rows {
		a := byAlgo[r.Algo]
		if a == nil {
			a = &agg{}
			byAlgo[r.Algo] = a
		}
		a.size += float64(r.Size)
		a.work += float64(r.Work)
		a.depth += float64(r.Depth)
		if r.StretchMax > a.stretch {
			a.stretch = r.StretchMax
		}
		a.n++
	}
	for algo, a := range byAlgo {
		key := shortName(algo)
		b.ReportMetric(a.size/float64(a.n), key+"_size")
		b.ReportMetric(a.work/float64(a.n), key+"_work")
		b.ReportMetric(a.depth/float64(a.n), key+"_depth")
		b.ReportMetric(a.stretch, key+"_stretch_max")
	}
}

func shortName(algo string) string {
	switch {
	case algo == "est-spanner (ours)" || algo == "est-hopset (ours)":
		return "ours"
	case algo == "baswana-sen [BS07]":
		return "bs07"
	case algo == "greedy [ADD+93]":
		return "greedy"
	case algo == "ks97 sqrt(n) [KS97]":
		return "ks97"
	case algo == "cohen-style [Coh00]":
		return "cohen"
	case algo == "no hopset":
		return "none"
	}
	return "x"
}

// BenchmarkFigure1Unweighted regenerates the unweighted table of
// Figure 1 (experiment F1-U).
func BenchmarkFigure1Unweighted(b *testing.B) {
	var rows []experiments.SpannerRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Figure1Unweighted(experiments.Small, benchSeed+uint64(i))
	}
	reportSpanner(b, rows)
}

// BenchmarkFigure1Weighted regenerates the weighted table of Figure 1
// (experiment F1-W; includes the stretch columns of F1-S).
func BenchmarkFigure1Weighted(b *testing.B) {
	var rows []experiments.SpannerRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Figure1Weighted(experiments.Small, benchSeed+uint64(i))
	}
	reportSpanner(b, rows)
}

// BenchmarkFigure2HopsetComparison regenerates Figure 2 (experiments
// F2-HOP, F2-SIZE, F2-WORK).
func BenchmarkFigure2HopsetComparison(b *testing.B) {
	var rows []experiments.HopsetRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Figure2(experiments.Small, benchSeed+uint64(i))
	}
	type agg struct {
		size, work, hops float64
		n                int
	}
	byAlgo := map[string]*agg{}
	for _, r := range rows {
		a := byAlgo[r.Algo]
		if a == nil {
			a = &agg{}
			byAlgo[r.Algo] = a
		}
		a.size += float64(r.Size)
		a.work += float64(r.BuildWork)
		a.hops += r.HopsMean
		a.n++
	}
	for algo, a := range byAlgo {
		key := shortName(algo)
		b.ReportMetric(a.size/float64(a.n), key+"_size")
		b.ReportMetric(a.work/float64(a.n), key+"_build_work")
		b.ReportMetric(a.hops/float64(a.n), key+"_hops_mean")
	}
}

// BenchmarkTheorem11Scaling regenerates the Theorem 1.1 size-law sweep
// (experiment T1.1): the reported ratio metrics must stay ~flat as n
// grows.
func BenchmarkTheorem11Scaling(b *testing.B) {
	var rows []experiments.ScalingRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Theorem11Scaling(experiments.Small, benchSeed)
	}
	var ratios []float64
	for _, r := range rows {
		ratios = append(ratios, r.Ratio)
	}
	b.ReportMetric(eval.Mean(ratios), "size_over_bound_mean")
	if len(ratios) > 0 {
		worst := ratios[0]
		for _, x := range ratios {
			if x > worst {
				worst = x
			}
		}
		b.ReportMetric(worst, "size_over_bound_max")
	}
}

// BenchmarkTheorem33Weighted regenerates the Theorem 3.3 weighted
// size-law sweep (experiment T3.3).
func BenchmarkTheorem33Weighted(b *testing.B) {
	var rows []experiments.ScalingRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Theorem33Contraction(experiments.Small, benchSeed)
	}
	var ratios []float64
	for _, r := range rows {
		ratios = append(ratios, r.Ratio)
	}
	b.ReportMetric(eval.Mean(ratios), "size_over_bound_mean")
}

// BenchmarkTheorem44Hopset regenerates the Theorem 4.4 γ2 sweep
// (experiment T4.4).
func BenchmarkTheorem44Hopset(b *testing.B) {
	var rows []experiments.ScalingRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Theorem44Scaling(experiments.Small, benchSeed)
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.Size), r.Label+"_size")
		b.ReportMetric(r.Extra, r.Label+"_hops")
		b.ReportMetric(float64(r.Depth), r.Label+"_depth")
	}
}

// BenchmarkTheorem12Pipeline regenerates the end-to-end Theorem 1.2
// comparison (experiment T1.2): hopset query depth vs plain parallel
// search vs sequential Dijkstra.
func BenchmarkTheorem12Pipeline(b *testing.B) {
	var rows []experiments.PipelineRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Theorem12Pipeline(experiments.Small, benchSeed)
	}
	var ours, plain, seq, distort []float64
	for _, r := range rows {
		switch r.Method {
		case "est-hopset query (ours)":
			ours = append(ours, r.QueryLevels)
			distort = append(distort, r.Distortion)
		case "weighted parallel BFS":
			plain = append(plain, r.QueryLevels)
		case "dijkstra (sequential)":
			seq = append(seq, r.QueryLevels)
		}
	}
	b.ReportMetric(eval.Mean(ours), "ours_query_levels")
	b.ReportMetric(eval.Mean(plain), "plainBFS_levels")
	b.ReportMetric(eval.Mean(seq), "dijkstra_depth")
	b.ReportMetric(eval.Mean(distort), "ours_distortion")
	if m := eval.Mean(ours); m > 0 {
		b.ReportMetric(eval.Mean(plain)/m, "depth_reduction_x")
	}
}

// BenchmarkCorollary45Unweighted regenerates the unweighted query
// comparison (experiment C4.5).
func BenchmarkCorollary45Unweighted(b *testing.B) {
	var rows []experiments.PipelineRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Corollary45Unweighted(experiments.Small, benchSeed)
	}
	for _, r := range rows {
		if r.Method == "est-hopset (ours)" {
			b.ReportMetric(r.QueryLevels, "ours_hops")
		} else {
			b.ReportMetric(r.QueryLevels, "bfs_hops")
		}
	}
}

// BenchmarkLemma21Diameter regenerates the Lemma 2.1 radius check
// (experiment L2.1).
func BenchmarkLemma21Diameter(b *testing.B) {
	var rows []experiments.StatRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Lemma21Diameter(experiments.Small, benchSeed)
	}
	reportStats(b, rows)
}

// BenchmarkLemma22Ball regenerates the Lemma 2.2 tail check
// (experiment L2.2).
func BenchmarkLemma22Ball(b *testing.B) {
	var rows []experiments.StatRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Lemma22Ball(experiments.Small, benchSeed)
	}
	reportStats(b, rows)
}

// BenchmarkCorollary23Cut regenerates the Corollary 2.3 cut-mass check
// (experiment C2.3).
func BenchmarkCorollary23Cut(b *testing.B) {
	var rows []experiments.StatRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Corollary23Cut(experiments.Small, benchSeed)
	}
	reportStats(b, rows)
}

// BenchmarkCorollary31Ball regenerates the Corollary 3.1 adjacency
// check (experiment C3.1).
func BenchmarkCorollary31Ball(b *testing.B) {
	var rows []experiments.StatRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Corollary31Adjacency(experiments.Small, benchSeed)
	}
	reportStats(b, rows)
}

// BenchmarkLemma52Rounding regenerates the Klein–Subramanian rounding
// check (experiment L5.2).
func BenchmarkLemma52Rounding(b *testing.B) {
	var rows []experiments.StatRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Lemma52Rounding(experiments.Small, benchSeed)
	}
	reportStats(b, rows)
}

// BenchmarkAppendixB regenerates the weight-class decomposition checks
// (experiment L5.1/B).
func BenchmarkAppendixB(b *testing.B) {
	var rows []experiments.StatRow
	for i := 0; i < b.N; i++ {
		rows = experiments.AppendixBDecomposition(experiments.Small, benchSeed)
	}
	reportStats(b, rows)
}

// BenchmarkAppendixC regenerates the limited-hopset rounds (experiment
// C.1/C.2).
func BenchmarkAppendixC(b *testing.B) {
	var rows []experiments.ScalingRow
	for i := 0; i < b.N; i++ {
		rows = experiments.AppendixCLimited(experiments.Small, benchSeed)
	}
	for _, r := range rows {
		b.ReportMetric(r.Extra, shortLabel(r.Label)+"_hops")
	}
}

func shortLabel(s string) string {
	out := make([]rune, 0, len(s))
	for _, c := range s {
		switch {
		case c == ' ' || c == '=':
			out = append(out, '_')
		default:
			out = append(out, c)
		}
	}
	return string(out)
}

// BenchmarkSpannerScaling sweeps input sizes for the headline spanner
// construction (wall-clock + work/depth per n, complements T1.1's
// size law with a performance law), then times one weighted build at
// the benchmark's offline-spanner shape.
func BenchmarkSpannerScaling(b *testing.B) {
	for _, n := range []V{1 << 11, 1 << 13, 1 << 15} {
		g := RandomGraph(n, 8*int64(n), uint64(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var work, depth int64
			for i := 0; i < b.N; i++ {
				cost := NewCost()
				UnweightedSpannerOn(g, 3, uint64(i), nil, cost)
				work, depth = cost.Work(), cost.Depth()
			}
			b.ReportMetric(float64(work), "work")
			b.ReportMetric(float64(depth), "depth")
			b.ReportMetric(float64(work)/float64(g.NumEdges()), "work_per_edge")
		})
	}
	// The weighted construction (Theorem 3.3) on perfbench's
	// offline-spanner shape: dense ER, weights in [1, 100], k = 4,
	// sequential, a fresh seed per iteration.
	g := WithUniformWeights(RandomGraph(16384, 524288, 1), 100, 1)
	b.Run("weighted-k=4-er-n=16384-m=524288", func(b *testing.B) {
		b.ReportAllocs()
		ec := SequentialExec()
		var size int
		for i := 0; i < b.N; i++ {
			size = WeightedSpannerOn(g, 4, uint64(i), ec, nil).Size()
		}
		b.ReportMetric(float64(size), "edges")
	})
}

// BenchmarkHopsetScaling sweeps input sizes for the hopset build.
func BenchmarkHopsetScaling(b *testing.B) {
	for _, side := range []V{32, 64, 96} {
		g := GridGraph(side, side)
		b.Run(fmt.Sprintf("grid=%dx%d", side, side), func(b *testing.B) {
			p := DefaultHopsetParams(1)
			p.Gamma2 = 0.6
			var size, work, depth int64
			for i := 0; i < b.N; i++ {
				p.Seed = uint64(i)
				cost := NewCost()
				hs := BuildHopset(g, p, cost)
				size, work, depth = int64(hs.Size()), cost.Work(), cost.Depth()
			}
			b.ReportMetric(float64(size), "size")
			b.ReportMetric(float64(work), "work")
			b.ReportMetric(float64(depth), "depth")
		})
	}
}

// BenchmarkOracleQuery measures steady-state oracle query latency and
// depth after preprocessing.
func BenchmarkOracleQuery(b *testing.B) {
	g := WithUniformWeights(GridGraph(50, 50), 500, 1)
	o := hopsetOracle(g, 0.25, 2)
	s, t := V(0), g.NumVertices()-1
	if _, err := o.Query(s, t); err != nil { // warm caches
		b.Fatal(err)
	}
	b.ResetTimer()
	var levels int64
	for i := 0; i < b.N; i++ {
		st, err := o.QueryStats(s, t)
		if err != nil {
			b.Fatal(err)
		}
		levels = st.Levels
	}
	b.ReportMetric(float64(levels), "query_levels")
}

// BenchmarkConcurrentBFS contrasts the goroutine frontier expansion
// against the sequential loop at the current GOMAXPROCS.
func BenchmarkConcurrentBFS(b *testing.B) {
	g := GridGraph(300, 300)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ParallelBFS(g, 0, nil)
		}
	})
	b.Run("goroutines", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ConcurrentBFS(g, 0, nil)
		}
	})
}

// BenchmarkWeightedSSSP is the weighted "does the PRAM model translate
// to cores" check: sequential Dijkstra and Dial versus the goroutine
// Δ-stepping on the generator families, at the current GOMAXPROCS.
// On a multicore host Δ-stepping should win wall-clock on the large
// graphs; distances are identical across all three (differential
// tests assert it), so this benchmark is purely about speed. The
// spanner row is the graph a spanner-backed distance query searches:
// a k=4 weighted spanner of a dense ER graph, about a third of its
// edges.
func BenchmarkWeightedSSSP(b *testing.B) {
	dense := WithUniformWeights(RandomGraph(16384, 524288, 21), 100, 21)
	cases := []struct {
		name string
		g    *Graph
	}{
		{"gnm-n=1e5-m=8e5", WithUniformWeights(RandomGraph(100_000, 800_000, 7), 64, 8)},
		{"grid-400x400", WithUniformWeights(GridGraph(400, 400), 32, 9)},
		{"rmat-s=16-m=5e5", WithUniformWeights(RMATGraph(16, 500_000, 10), 64, 11)},
		{"spanner-k=4-er-n=16384-m=524288", WeightedSpannerOn(dense, 4, 21, SequentialExec(), nil).Graph(dense)},
	}
	for _, tc := range cases {
		b.Run(tc.name+"/dijkstra", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ShortestPaths(tc.g, 0)
			}
		})
		b.Run(tc.name+"/dijkstra-pooled", func(b *testing.B) {
			b.ReportAllocs()
			ec := SequentialExec()
			for i := 0; i < b.N; i++ {
				res := sssp.Dijkstra(tc.g, []V{0}, sssp.Options{Exec: ec})
				res.Release(ec)
			}
		})
		b.Run(tc.name+"/dial", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				WeightedParallelBFSOn(tc.g, 0, nil, nil)
			}
		})
		b.Run(tc.name+"/deltastep", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ParallelShortestPathsOn(tc.g, 0, nil, nil)
			}
		})
		// The pooled-execution shape: a shared exec context recycles
		// the result and scratch arrays through its arenas (Release),
		// and the frontier fan-out reuses pooled workers. Both the
		// plain and pooled rows now sit far below the pre-refactor
		// per-call-goroutine path (which paid thousands of allocs/op
		// in goroutine spawns and per-iteration chunk buffers); the
		// pooled row additionally recycles the O(n) result arrays.
		b.Run(tc.name+"/deltastep-pooled", func(b *testing.B) {
			b.ReportAllocs()
			ec := ParallelExec(0)
			for i := 0; i < b.N; i++ {
				res := ParallelShortestPathsOn(tc.g, 0, ec, nil)
				res.Release(ec)
			}
		})
		b.Run(tc.name+"/dial-pooled", func(b *testing.B) {
			b.ReportAllocs()
			ec := SequentialExec()
			for i := 0; i < b.N; i++ {
				res := WeightedParallelBFSOn(tc.g, 0, ec, nil)
				res.Release(ec)
			}
		})
	}
}

// BenchmarkESTClusterParallel contrasts the sequential bucket race
// against the goroutine bucket expansion on a pooled parallel context
// (identical output).
func BenchmarkESTClusterParallel(b *testing.B) {
	g := WithUniformWeights(RandomGraph(100_000, 400_000, 31), 16, 32)
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ESTClusterOn(g, 0.1, uint64(i), nil, nil)
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		ec := ParallelExec(0)
		for i := 0; i < b.N; i++ {
			ESTClusterOn(g, 0.1, uint64(i), ec, nil)
		}
	})
}

// BenchmarkHopLimitedParallel contrasts sequential and concurrent
// Bellman–Ford rounds (the Definition 2.4 query primitive).
func BenchmarkHopLimitedParallel(b *testing.B) {
	g := WithUniformWeights(RandomGraph(50_000, 400_000, 41), 20, 42)
	const hops = 8
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			HopLimitedDistances(g, nil, 0, hops)
		}
	})
	b.Run("goroutines", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ParallelHopLimitedDistances(g, nil, 0, hops)
		}
	})
}

// queryGrid is the graph the oracle query and snapshot benchmarks
// share.
func queryGrid() *Graph { return WithUniformWeights(GridGraph(50, 50), 500, 1) }

// flatFile saves o as a flat arena under b's temp dir and returns its
// path.
func flatFile(b *testing.B, o *DistanceOracle) string {
	b.Helper()
	var buf bytes.Buffer
	if err := SaveOracle(&buf, o); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "oracle.snap")
	if err := os.WriteFile(path, buf.Bytes(), 0o600); err != nil {
		b.Fatal(err)
	}
	return path
}

// BenchmarkOracleQueryBatch measures serving throughput: a fixed batch
// answered serially versus fanned across the pooled workers, on the
// legacy (per-query allocation), exec (arena-recycled) and flat
// (OpenOracleFile, arrays read from the mapped arena) oracles.
// allocs/op on the exec rows is the serving-path allocation budget —
// regressions here show up directly in the CI bench log.
func BenchmarkOracleQueryBatch(b *testing.B) {
	g := queryGrid()
	n := g.NumVertices()
	var pairs [][2]V
	for i := V(0); i < 64; i++ {
		pairs = append(pairs, [2]V{(i * 37) % n, (n - 1 - i*53%n) % n})
	}
	legacy := hopsetOracle(g, 0.25, 2)
	flat, _, err := OpenOracleFile(flatFile(b, legacy), g, OracleOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		o    *DistanceOracle
	}{
		{"legacy", legacy},
		{"exec", NewDistanceOracleOpts(g, 0.25, 2, OracleOptions{Hopset: true, Exec: ParallelExec(0)})},
		{"flat", flat},
	} {
		o := mode.o
		if _, err := o.QueryBatch(pairs); err != nil { // warm caches
			b.Fatal(err)
		}
		b.Run(mode.name+"/serial", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, p := range pairs {
					if _, err := o.QueryStats(p[0], p[1]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(mode.name+"/batch", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := o.QueryBatch(pairs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshot measures warm start on BenchmarkOracleQueryBatch's
// oracle: the arena's save and its mmap open. snapshot_bytes is the
// size of the file each row writes or reads.
func BenchmarkSnapshot(b *testing.B) {
	g := queryGrid()
	o := hopsetOracle(g, 0.25, 2)
	path := flatFile(b, o)
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	for _, row := range []struct {
		name string
		op   func() error
	}{
		{"flat-save", func() error { buf.Reset(); return SaveOracle(&buf, o) }},
		{"mmap-open", func() error {
			_, _, err := OpenOracleFile(path, g, OracleOptions{})
			return err
		}},
	} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := row.op(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.Size()), "snapshot_bytes")
		})
	}
}

// BenchmarkOracleBuild measures full oracle preprocessing — the
// registry's build path — sequentially and on a pooled execution
// context. ReportAllocs makes allocation regressions in the build
// pipeline fail visibly in the CI bench log; the exec row's arenas
// keep repeated builds (the many-graphs serving shape) off the GC.
func BenchmarkOracleBuild(b *testing.B) {
	g := WithUniformWeights(GridGraph(60, 60), 100, 3)
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hopsetOracle(g, 0.25, 2)
		}
	})
	b.Run("exec-sequential", func(b *testing.B) {
		b.ReportAllocs()
		ec := SequentialExec()
		for i := 0; i < b.N; i++ {
			NewDistanceOracleOpts(g, 0.25, 2, OracleOptions{Hopset: true, Exec: ec})
		}
	})
	b.Run("exec-parallel", func(b *testing.B) {
		b.ReportAllocs()
		ec := ParallelExec(0)
		for i := 0; i < b.N; i++ {
			NewDistanceOracleOpts(g, 0.25, 2, OracleOptions{Hopset: true, Exec: ec})
		}
	})
}

// BenchmarkDynamicOracleQuery measures the live-update overlay's
// query paths against the same base oracle: a clean overlay (pure
// delegation), an insert-only overlay (exact patched search), and an
// overlay with deleted base edges (exact patched search) — the cost
// profile the rebuild policy trades against.
func BenchmarkDynamicOracleQuery(b *testing.B) {
	g := WithUniformWeights(GridGraph(40, 40), 50, 3)
	n := g.NumVertices()
	o := hopsetOracle(g, 0.25, 2)
	run := func(b *testing.B, d *DynamicOracle) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := d.Query(V(i)%n, V(i*7+13)%n); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("clean", func(b *testing.B) {
		d := NewDynamicOracle(o, RebuildPolicy{Disabled: true})
		defer d.Close()
		run(b, d)
	})
	// Insert-only overlay, exact patched search.
	b.Run("improving-8-inserts", func(b *testing.B) {
		d := NewDynamicOracle(o, RebuildPolicy{Disabled: true})
		defer d.Close()
		var ups []DynamicUpdate
		for i := 0; i < 8; i++ {
			ups = append(ups, DynamicUpdate{Op: UpdateInsert, U: V(i * 11), V: n - 1 - V(i*17), W: W(i + 1)})
		}
		if _, err := d.ApplyUpdates(ups); err != nil {
			b.Fatal(err)
		}
		run(b, d)
	})
	b.Run("degrading-8-deletes", func(b *testing.B) {
		d := NewDynamicOracle(o, RebuildPolicy{Disabled: true})
		defer d.Close()
		var ups []DynamicUpdate
		for i := 0; i < 8; i++ {
			e := g.Edges()[i*31]
			ups = append(ups, DynamicUpdate{Op: UpdateDelete, U: e.U, V: e.V})
		}
		if _, err := d.ApplyUpdates(ups); err != nil {
			b.Fatal(err)
		}
		run(b, d)
	})
}

func reportStats(b *testing.B, rows []experiments.StatRow) {
	b.Helper()
	ok := 0
	for _, r := range rows {
		if r.OK {
			ok++
		}
	}
	b.ReportMetric(float64(ok), "bounds_ok")
	b.ReportMetric(float64(len(rows)), "bounds_total")
	if ok != len(rows) {
		b.Errorf("lemma bounds violated: %d of %d rows failed", len(rows)-ok, len(rows))
	}
}
