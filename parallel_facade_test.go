package spanhop

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"slices"
	"testing"

	"repro/internal/rng"
)

func withProcs(t *testing.T, p int, body func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(old)
	body()
}

// TestQueryBatchMatchesSerial: the fanned batch must return exactly
// what issuing each query alone returns, and concurrent queries must
// not corrupt the oracle's lazy caches (run under -race in CI).
func TestQueryBatchMatchesSerial(t *testing.T) {
	withProcs(t, 4, func() {
		g := WithUniformWeights(GridGraph(25, 25), 200, 11)
		o := hopsetOracle(g, 0.25, 12)
		n := g.NumVertices()
		var pairs [][2]V
		for i := V(0); i < 40; i++ {
			pairs = append(pairs, [2]V{i * 7 % n, n - 1 - (i*13)%n})
		}
		batch, err := o.QueryBatch(pairs)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pairs {
			st, err := o.QueryStats(p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			if st.Dist != batch[i].Dist {
				t.Fatalf("pair %d (%d,%d): batch %d vs serial %d",
					i, p[0], p[1], batch[i].Dist, st.Dist)
			}
		}
	})
}

// TestQueryBatchDecomposed exercises the Appendix B routing path (huge
// weight ratio forces the weight-class decomposition) under fan-out.
func TestQueryBatchDecomposed(t *testing.T) {
	withProcs(t, 4, func() {
		g := WithMultiScaleWeights(RandomGraph(150, 600, 13), 4, 25, 14)
		o := hopsetOracle(g, 0.3, 15)
		if !o.Decomposed() {
			t.Skip("weight ratio did not trigger decomposition")
		}
		pairs := [][2]V{{0, 149}, {3, 77}, {10, 10}, {149, 0}}
		batch, err := o.QueryBatch(pairs)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pairs {
			st, _ := o.QueryStats(p[0], p[1])
			if st.Dist != batch[i].Dist {
				t.Fatalf("pair %d: batch %d vs serial %d", i, batch[i].Dist, st.Dist)
			}
		}
	})
}

func TestQueryBatchRejectsOutOfRange(t *testing.T) {
	g := GridGraph(5, 5)
	o := NewDistanceOracleOpts(g, 0.25, 1, OracleOptions{})
	if _, err := o.QueryBatch([][2]V{{0, 3}, {0, 99}}); err == nil {
		t.Fatal("out-of-range pair not rejected")
	}
}

// asInt64 widens a vertex, edge-id or distance slice so that every
// row of TestFacadeParallelVariantsAgree compares one type.
func asInt64[T ~int32 | ~int64](xs []T) []int64 {
	out := make([]int64, len(xs))
	for i, x := range xs {
		out[i] = int64(x)
	}
	return out
}

// TestFacadeParallelVariantsAgree pins the facade's execution contract:
// every function that takes an ExecCtx returns the same clustering,
// edge ids or distances on nil, SequentialExec(), ParallelExec(2) and
// ParallelExec(0), with and without a cost, and records nonzero work
// whenever the cost is non-nil. The searches must also equal
// ShortestPaths, and the goroutine hop-limited kernel its sequential
// reference.
func TestFacadeParallelVariantsAgree(t *testing.T) {
	withProcs(t, 4, func() {
		g := WithUniformWeights(RandomGraph(2000, 8000, 21), 30, 22)
		exact := asInt64(ShortestPaths(g, 0).Dist)
		rows := []struct {
			name string
			run  func(ec *ExecCtx, cost *Cost) []int64
			want []int64 // nil: the first run's answer
		}{
			{"ESTClusterOn", func(ec *ExecCtx, cost *Cost) []int64 {
				c := ESTClusterOn(g, 0.2, 23, ec, cost)
				return append(asInt64(c.Center), asInt64(c.DistToCenter)...)
			}, nil},
			{"UnweightedSpannerOn", func(ec *ExecCtx, cost *Cost) []int64 {
				return asInt64(UnweightedSpannerOn(g, 3, 24, ec, cost).EdgeIDs)
			}, nil},
			{"WeightedSpannerOn", func(ec *ExecCtx, cost *Cost) []int64 {
				return asInt64(WeightedSpannerOn(g, 4, 25, ec, cost).EdgeIDs)
			}, nil},
			{"WeightedParallelBFSOn", func(ec *ExecCtx, cost *Cost) []int64 {
				return asInt64(WeightedParallelBFSOn(g, 0, ec, cost).Dist)
			}, exact},
			{"ParallelShortestPathsOn", func(ec *ExecCtx, cost *Cost) []int64 {
				return asInt64(ParallelShortestPathsOn(g, 0, ec, cost).Dist)
			}, exact},
		}
		ctxs := []struct {
			name string
			ec   *ExecCtx
		}{
			{"nil", nil},
			{"SequentialExec()", SequentialExec()},
			{"ParallelExec(2)", ParallelExec(2)},
			{"ParallelExec(0)", ParallelExec(0)},
		}
		for _, row := range rows {
			want := row.want
			for _, c := range ctxs {
				for _, cost := range []*Cost{nil, NewCost()} {
					got := row.run(c.ec, cost)
					if want == nil {
						want = got
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s on %s (cost %v): answer differs", row.name, c.name, cost != nil)
					}
					if cost != nil && cost.Work() == 0 {
						t.Fatalf("%s on %s: no work recorded", row.name, c.name)
					}
				}
			}
		}

		hp := ParallelHopLimitedDistances(g, nil, 0, 8)
		hs := HopLimitedDistances(g, nil, 0, 8)
		if !slices.Equal(hp, hs) {
			t.Fatal("goroutine hop-limited distances differ from the sequential reference")
		}
	})
}

// TestHopsetOracleAnswersAcrossWorkers: a hopset oracle built and
// queried at 1, 2 and GOMAXPROCS workers answers 512 QueryBatch pairs
// bit-identically (distance, levels and fallback), on a graph answered
// by one direct hopset and on one the weight-class decomposition
// splits. Run under -race in CI.
func TestHopsetOracleAnswersAcrossWorkers(t *testing.T) {
	withProcs(t, 4, func() {
		for _, tc := range []struct {
			name       string
			g          *Graph
			decomposed bool
		}{
			{"direct", WithUniformWeights(GridGraph(24, 24), 100, 41), false},
			{"decomposed", WithMultiScaleWeights(RandomGraph(150, 600, 13), 4, 25, 14), true},
		} {
			n := tc.g.NumVertices()
			r := rng.New(42)
			pairs := make([][2]V, 512)
			for i := range pairs {
				pairs[i] = [2]V{V(r.Intn(int(n))), V(r.Intn(int(n)))}
			}
			answer := func(workers int) []QueryStats {
				ec := ParallelExec(workers)
				o := NewDistanceOracleOpts(tc.g, 0.3, 43, OracleOptions{Hopset: true, Exec: ec})
				if o.Decomposed() != tc.decomposed {
					t.Fatalf("%s: Decomposed() = %v", tc.name, o.Decomposed())
				}
				got, err := o.QueryBatch(pairs)
				if err != nil {
					t.Fatal(err)
				}
				return got
			}
			want := answer(1)
			for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
				got := answer(workers)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s, %d workers, pair %v: %+v, want %+v", tc.name, workers, pairs[i], got[i], want[i])
					}
				}
			}
		}
	})
}

// TestWeightedSpannerDigest pins WeightedSpannerOn's edge sets with one
// FNV-1a digest over k ∈ {2, 3, 4, 8}, four seeds, a sequential and a
// two-worker context, on an ER graph, a multi-scale grid and a uniform
// grid. The digest was taken from the build before the well-separated
// loop reused unweightedStep's forest, so a rewrite of that loop that
// changes any edge id, or the order of the output, fails here.
func TestWeightedSpannerDigest(t *testing.T) {
	graphs := []*Graph{
		WithUniformWeights(RandomGraph(600, 3000, 31), 1000, 32),
		WithMultiScaleWeights(GridGraph(20, 20), 4, 5, 33),
		WithUniformWeights(GridGraph(20, 20), 100, 34),
	}
	h := fnv.New64a()
	var buf [4]byte
	for gi, g := range graphs {
		for _, k := range []int{2, 3, 4, 8} {
			for seed := uint64(1); seed <= 4; seed++ {
				seq := WeightedSpannerOn(g, k, seed, SequentialExec(), nil)
				two := WeightedSpannerOn(g, k, seed, ParallelExec(2), nil)
				if !slices.Equal(seq.EdgeIDs, two.EdgeIDs) {
					t.Fatalf("graph %d, k %d, seed %d: sequential and 2-worker edge sets differ", gi, k, seed)
				}
				binary.LittleEndian.PutUint32(buf[:], uint32(len(seq.EdgeIDs)))
				h.Write(buf[:])
				for _, e := range seq.EdgeIDs {
					binary.LittleEndian.PutUint32(buf[:], uint32(e))
					h.Write(buf[:])
				}
			}
		}
	}
	const want = 0x15f498db3f54890b
	if got := h.Sum64(); got != want {
		t.Fatalf("digest %#x, want %#x", got, uint64(want))
	}
}
