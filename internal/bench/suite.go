package bench

import (
	"bytes"
	"os"
	"sync"
	"testing"

	spanhop "repro"
	"repro/internal/graph"
)

// The canonical suite pins its inputs here. Every graph is
// deterministic in (family, size, seed), so two runs of the same
// binary measure the same workload bit-for-bit; the pinned seeds are
// part of the trajectory contract — changing them invalidates
// cross-report comparison, so don't.
const (
	suiteSeed = 2015 // the paper's year, like bench_test.go

	// rmat scale-22 stress graph: 2^22 vertices, 8M requested edges
	// (the power-law dedup leaves it slightly short). This is the
	// "does it survive a real social-graph shape" size: ~4.2M
	// vertices is far past every cache and forces the frontier
	// structures through main memory.
	stressScale   = 22
	stressEdges   = 8 << 20
	stressMaxW    = 64
	stressQueries = 64

	// The DIMACS road stress graph: a 600x600 grid with multi-scale
	// weights — the high-diameter, low-degree shape of road networks
	// — serialized to .gr and parsed back, so the stress path
	// exercises the real reader on a ~1.4M-arc file.
	roadSide = 600
)

// graphCache memoizes the expensive pinned inputs across suite
// entries (the rmat-22 generation alone is seconds); keyed by name,
// built once, shared read-only.
var graphCache sync.Map // string -> *graph.Graph

func cachedGraph(name string, build func() *graph.Graph) *graph.Graph {
	if g, ok := graphCache.Load(name); ok {
		return g.(*graph.Graph)
	}
	g, _ := graphCache.LoadOrStore(name, build())
	return g.(*graph.Graph)
}

func buildGrid60() *graph.Graph {
	return cachedGraph("grid60", func() *graph.Graph {
		return spanhop.WithUniformWeights(spanhop.GridGraph(60, 60), 100, suiteSeed)
	})
}

func queryGrid50() *graph.Graph {
	return cachedGraph("grid50", func() *graph.Graph {
		return spanhop.WithUniformWeights(spanhop.GridGraph(50, 50), 500, 1)
	})
}

func erGraph() *graph.Graph {
	return cachedGraph("er", func() *graph.Graph {
		return spanhop.WithUniformWeights(spanhop.RandomGraph(4096, 4096*8, suiteSeed), 64, suiteSeed)
	})
}

func rmat22() *graph.Graph {
	return cachedGraph("rmat22", func() *graph.Graph {
		return spanhop.WithUniformWeights(spanhop.RMATGraph(stressScale, stressEdges, suiteSeed), stressMaxW, suiteSeed)
	})
}

func roadGraph() *graph.Graph {
	return cachedGraph("road", func() *graph.Graph {
		return spanhop.WithMultiScaleWeights(spanhop.GridGraph(roadSide, roadSide), 4, 5, suiteSeed)
	})
}

// roadDIMACS is the serialized .gr form of roadGraph, built once.
func roadDIMACS() []byte {
	if b, ok := graphCache.Load("road.gr"); ok {
		return b.([]byte)
	}
	var buf bytes.Buffer
	if err := graph.WriteDIMACS(&buf, roadGraph()); err != nil {
		panic(err)
	}
	b, _ := graphCache.LoadOrStore("road.gr", buf.Bytes())
	return b.([]byte)
}

// queryPairs returns a deterministic set of s-t pairs spread across
// the graph, the batch shape the serving layer fans out.
func queryPairs(g *graph.Graph, k int) [][2]graph.V {
	n := g.NumVertices()
	pairs := make([][2]graph.V, 0, k)
	for i := graph.V(0); int(i) < k; i++ {
		pairs = append(pairs, [2]graph.V{(i * 37) % n, (n - 1 - (i*53)%n) % n})
	}
	return pairs
}

// builtOracle memoizes a built oracle for the query-side benchmarks
// so they do not pay preprocessing per run.
func builtOracle(name string, g *graph.Graph) *spanhop.DistanceOracle {
	cacheName := "oracle:" + name
	if o, ok := graphCache.Load(cacheName); ok {
		return o.(*spanhop.DistanceOracle)
	}
	o, _ := graphCache.LoadOrStore(cacheName, spanhop.NewDistanceOracle(g, 0.25, 2))
	return o.(*spanhop.DistanceOracle)
}

// flatSnapshotFile memoizes the flat-arena snapshot file of
// name's oracle and returns its path.
func flatSnapshotFile(b *testing.B, name string, g *graph.Graph) string {
	cacheName := "flat-file:" + name
	if p, ok := graphCache.Load(cacheName); ok {
		return p.(string)
	}
	o := builtOracle(name, g)
	f, err := os.CreateTemp("", "spanhop-bench-*.snap")
	if err != nil {
		b.Fatal(err)
	}
	if err := spanhop.SaveOracleFlat(f, o); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	p, _ := graphCache.LoadOrStore(cacheName, f.Name())
	return p.(string)
}

// flatOracle memoizes a flat-arena-backed restore of name's oracle
// (OpenOracleFile over the memoized snapshot), so the flat query
// benchmarks measure the mapped-memory serving path against the same
// workload the pointer-oracle entries run.
func flatOracle(b *testing.B, name string, g *graph.Graph) *spanhop.DistanceOracle {
	cacheName := "flat-oracle:" + name
	if o, ok := graphCache.Load(cacheName); ok {
		return o.(*spanhop.DistanceOracle)
	}
	o, _, err := spanhop.OpenOracleFile(flatSnapshotFile(b, name, g), g, spanhop.OracleOptions{})
	if err != nil {
		b.Fatal(err)
	}
	got, _ := graphCache.LoadOrStore(cacheName, o)
	return got.(*spanhop.DistanceOracle)
}

// Suite returns the canonical benchmark list in trajectory order.
func Suite() []Spec {
	return []Spec{
		// --- oracle preprocessing: the registry's build path ---
		{Name: "build/grid-60x60", Run: func(b *testing.B) {
			g := buildGrid60()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				spanhop.NewDistanceOracle(g, 0.25, 2)
			}
		}},
		{Name: "build/grid-60x60-exec-parallel", Run: func(b *testing.B) {
			g := buildGrid60()
			ec := spanhop.ParallelExec(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				spanhop.NewDistanceOracleOpts(g, 0.25, 2, spanhop.OracleOptions{Exec: ec})
			}
		}},
		{Name: "build/er-n4096-d8", Run: func(b *testing.B) {
			g := erGraph()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				spanhop.NewDistanceOracle(g, 0.25, 2)
			}
		}},

		// --- steady-state queries: the serving hot path ---
		{Name: "query/serial-grid-50x50", Run: func(b *testing.B) {
			o := builtOracle("grid50", queryGrid50())
			pairs := queryPairs(o.Graph(), 64)
			warmBatch(b, o, pairs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range pairs {
					if _, err := o.QueryStats(p[0], p[1]); err != nil {
						b.Fatal(err)
					}
				}
			}
		}},
		{Name: "query/batch-grid-50x50", Run: func(b *testing.B) {
			o := builtOracle("grid50", queryGrid50())
			pairs := queryPairs(o.Graph(), 64)
			warmBatch(b, o, pairs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := o.QueryBatch(pairs); err != nil {
					b.Fatal(err)
				}
			}
		}},

		// --- dynamic overlay: clean delegation / dirty exact search ---
		{Name: "dynamic/clean", Run: func(b *testing.B) { dynamicBench(b, 0, 0) }},
		// Insert-only overlay, exact patched search.
		{Name: "dynamic/improving-8-inserts", Run: func(b *testing.B) { dynamicBench(b, 8, 0) }},
		{Name: "dynamic/degrading-8-deletes", Run: func(b *testing.B) { dynamicBench(b, 0, 8) }},

		// --- snapshot codec: warm-start save/load ---
		{Name: "snapshot/save-grid-50x50", Run: func(b *testing.B) {
			o := builtOracle("grid50", queryGrid50())
			var buf bytes.Buffer
			if err := spanhop.SaveOracle(&buf, o); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := spanhop.SaveOracle(&buf, o); err != nil {
					b.Fatal(err)
				}
			}
			// After ResetTimer: it clears previously reported metrics.
			b.ReportMetric(float64(buf.Len()), "snapshot_bytes")
		}},
		{Name: "snapshot/load-grid-50x50", Run: func(b *testing.B) {
			g := queryGrid50()
			o := builtOracle("grid50", g)
			var buf bytes.Buffer
			if err := spanhop.SaveOracle(&buf, o); err != nil {
				b.Fatal(err)
			}
			raw := buf.Bytes()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := spanhop.LoadOracle(bytes.NewReader(raw), g, spanhop.OracleOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		}},

		// --- flat arena: mmap warm start + mapped-memory
		// queries, against the same grid the codec and pointer entries
		// measure ---
		{Name: "snapshot/save-flat-grid-50x50", Run: func(b *testing.B) {
			o := builtOracle("grid50", queryGrid50())
			var buf bytes.Buffer
			if err := spanhop.SaveOracleFlat(&buf, o); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := spanhop.SaveOracleFlat(&buf, o); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(buf.Len()), "snapshot_bytes")
		}},
		{Name: "snapshot/mmap-load-grid-50x50", Run: func(b *testing.B) {
			g := queryGrid50()
			path := flatSnapshotFile(b, "grid50", g)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := spanhop.OpenOracleFile(path, g, spanhop.OracleOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "query/flat-serial-grid-50x50", Run: func(b *testing.B) {
			o := flatOracle(b, "grid50", queryGrid50())
			pairs := queryPairs(o.Graph(), 64)
			warmBatch(b, o, pairs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range pairs {
					if _, err := o.QueryStats(p[0], p[1]); err != nil {
						b.Fatal(err)
					}
				}
			}
		}},
		{Name: "query/flat-batch-grid-50x50", Run: func(b *testing.B) {
			o := flatOracle(b, "grid50", queryGrid50())
			pairs := queryPairs(o.Graph(), 64)
			warmBatch(b, o, pairs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := o.QueryBatch(pairs); err != nil {
					b.Fatal(err)
				}
			}
		}},

		// --- end-to-end serving: spanhopd-shaped HTTP + loadgen-shaped
		// clients, QPS and client latency quantiles ---
		{Name: "serve/e2e-grid-30x30", OmitAllocs: true, Run: func(b *testing.B) {
			serveBench(b, serveConfig{rows: 30, cols: 30, concurrency: 8, requests: 2000})
		}},

		// --- large-graph stress (full mode only) ---
		{Name: "stress/rmat22-gen", FullOnly: true, Run: func(b *testing.B) {
			// Measures the generator itself once; also warms the cache
			// for the other rmat-22 entries.
			g := rmat22()
			b.ReportMetric(float64(g.NumVertices()), "vertices")
			b.ReportMetric(float64(g.NumEdges()), "edges")
		}},
		{Name: "stress/rmat22-sssp-deltastep", FullOnly: true, Run: func(b *testing.B) {
			g := rmat22()
			ec := spanhop.ParallelExec(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := spanhop.ParallelShortestPathsOn(g, 0, ec, nil)
				res.Release(ec)
			}
		}},
		{Name: "stress/rmat22-sssp-dijkstra", FullOnly: true, Run: func(b *testing.B) {
			g := rmat22()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				spanhop.ShortestPaths(g, 0)
			}
		}},
		{Name: "stress/rmat22-spanner", FullOnly: true, Run: func(b *testing.B) {
			g := rmat22()
			ec := spanhop.ParallelExec(0)
			var size int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp := spanhop.UnweightedSpannerOn(g, 3, suiteSeed, ec, nil)
				size = int64(sp.Size())
			}
			b.ReportMetric(float64(size), "spanner_edges")
		}},
		{Name: "stress/dimacs-road-read", FullOnly: true, Run: func(b *testing.B) {
			raw := roadDIMACS()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := graph.ReadDIMACS(bytes.NewReader(raw)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(raw)), "gr_bytes")
		}},
		{Name: "stress/dimacs-road-sssp", FullOnly: true, Run: func(b *testing.B) {
			g := roadGraph()
			ec := spanhop.ParallelExec(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := spanhop.ParallelShortestPathsOn(g, 0, ec, nil)
				res.Release(ec)
			}
		}},
		{Name: "stress/dimacs-road-querybatch", FullOnly: true, Run: func(b *testing.B) {
			// Degenerate-free oracle build at road scale is a
			// multi-minute affair; the serving-relevant stress is the
			// query side, so build once (cached) and batch-query.
			g := roadGraph()
			o := builtOracle("road", g)
			pairs := queryPairs(g, stressQueries)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := o.QueryBatch(pairs); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

func warmBatch(b *testing.B, o *spanhop.DistanceOracle, pairs [][2]graph.V) {
	b.Helper()
	if _, err := o.QueryBatch(pairs); err != nil {
		b.Fatal(err)
	}
}

// dynamicBench measures the overlay query path with the given number
// of inserted and deleted pairs applied; any of either makes the
// overlay dirty, so its queries run the exact patched search.
func dynamicBench(b *testing.B, inserts, deletes int) {
	g := cachedGraph("grid40", func() *graph.Graph {
		return spanhop.WithUniformWeights(spanhop.GridGraph(40, 40), 50, 3)
	})
	n := g.NumVertices()
	o := builtOracle("grid40", g)
	d := spanhop.NewDynamicOracle(o, spanhop.RebuildPolicy{Disabled: true})
	defer d.Close()
	var ups []spanhop.DynamicUpdate
	for i := 0; i < inserts; i++ {
		ups = append(ups, spanhop.DynamicUpdate{
			Op: spanhop.UpdateInsert, U: graph.V(i * 11), V: n - 1 - graph.V(i*17), W: graph.W(i + 1),
		})
	}
	for i := 0; i < deletes; i++ {
		e := g.Edges()[i*31]
		ups = append(ups, spanhop.DynamicUpdate{Op: spanhop.UpdateDelete, U: e.U, V: e.V})
	}
	if len(ups) > 0 {
		if _, err := d.ApplyUpdates(ups); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Query(graph.V(i)%n, graph.V(i*7+13)%n); err != nil {
			b.Fatal(err)
		}
	}
}
