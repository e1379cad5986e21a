package spanhop

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"slices"
	"testing"
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
	o := NewDistanceOracle(g, 0.25, 1)
	if _, err := o.QueryBatch([][2]V{{0, 3}, {0, 99}}); err == nil {
		t.Fatal("out-of-range pair not rejected")
	}
}

// TestFacadeParallelVariantsAgree pins the facade-level contract: the
// parallel entry points return the same distances / edge sets /
// clusterings as their sequential oracles.
func TestFacadeParallelVariantsAgree(t *testing.T) {
	withProcs(t, 4, func() {
		g := WithUniformWeights(RandomGraph(2000, 8000, 21), 30, 22)

		ds := ParallelShortestPaths(g, 0, nil)
		dj := ShortestPaths(g, 0)
		for v := range ds.Dist {
			if ds.Dist[v] != dj.Dist[v] {
				t.Fatalf("Δ-stepping dist[%d] = %d, want %d", v, ds.Dist[v], dj.Dist[v])
			}
		}

		cp := ESTClusterParallel(g, 0.2, 23, nil)
		cs := ESTCluster(g, 0.2, 23)
		for v := range cs.Center {
			if cp.Center[v] != cs.Center[v] {
				t.Fatalf("parallel clustering diverged at %d", v)
			}
		}

		sp := UnweightedSpannerParallel(g, 3, 24, nil)
		ss := UnweightedSpanner(g, 3, 24)
		if len(sp.EdgeIDs) != len(ss.EdgeIDs) {
			t.Fatalf("spanner sizes diverged: %d vs %d", len(sp.EdgeIDs), len(ss.EdgeIDs))
		}
		for i := range ss.EdgeIDs {
			if sp.EdgeIDs[i] != ss.EdgeIDs[i] {
				t.Fatalf("spanner edge %d diverged", i)
			}
		}

		hp := ParallelHopLimitedDistances(g, nil, 0, 8)
		hs := HopLimitedDistances(g, nil, 0, 8)
		for v := range hs {
			if hp[v] != hs[v] {
				t.Fatalf("hop-limited dist diverged at %d", v)
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
