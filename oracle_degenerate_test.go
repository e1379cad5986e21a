package spanhop

// Degenerate DistanceOracle coverage: graphs NewDistanceOracle refuses
// to preprocess (n < 2 or no edges) must still answer queries with
// defined semantics — 0 on the diagonal, InfDist off it — through both
// Query and QueryBatch, and report themselves via the introspection
// accessors, whichever engine the oracle was built with.

import "testing"

func TestDegenerateOracleEdgeless(t *testing.T) {
	for _, hop := range []bool{false, true} {
		testDegenerateOracleEdgeless(t, hop)
	}
}

func testDegenerateOracleEdgeless(t *testing.T, hop bool) {
	g := NewGraph(4, nil, false)
	o := NewDistanceOracleOpts(g, 0.25, 1, OracleOptions{Hopset: hop})
	if !o.Degenerate() {
		t.Fatalf("hopset=%v: edgeless oracle not marked degenerate", hop)
	}
	if o.InstanceCount() != 0 {
		t.Fatalf("hopset=%v: InstanceCount = %d, want 0", hop, o.InstanceCount())
	}
	if o.HopsetSize() != 0 {
		t.Fatalf("hopset=%v: HopsetSize = %d, want 0", hop, o.HopsetSize())
	}
	if d, err := o.Query(0, 0); err != nil || d != 0 {
		t.Fatalf("hopset=%v: Query(0,0) = (%d, %v), want (0, nil)", hop, d, err)
	}
	for _, pair := range [][2]V{{0, 3}, {3, 0}, {1, 2}} {
		d, err := o.Query(pair[0], pair[1])
		if err != nil {
			t.Fatalf("hopset=%v: Query(%d,%d) error: %v", hop, pair[0], pair[1], err)
		}
		if d != InfDist {
			t.Fatalf("hopset=%v: Query(%d,%d) = %d, want InfDist", hop, pair[0], pair[1], d)
		}
	}
	if _, err := o.Query(0, 4); err == nil {
		t.Fatalf("hopset=%v: Query(0,4) out of range: want error", hop)
	}
	res, err := o.QueryBatch([][2]V{{0, 1}, {2, 2}, {3, 1}})
	if err != nil {
		t.Fatalf("hopset=%v: QueryBatch error: %v", hop, err)
	}
	want := []Dist{InfDist, 0, InfDist}
	for i, st := range res {
		if st.Dist != want[i] {
			t.Fatalf("hopset=%v: QueryBatch[%d].Dist = %d, want %d", hop, i, st.Dist, want[i])
		}
	}
}

func TestDegenerateOracleSingleVertex(t *testing.T) {
	g := NewGraph(1, nil, false)
	for _, hop := range []bool{false, true} {
		o := NewDistanceOracleOpts(g, 0.5, 9, OracleOptions{Hopset: hop})
		if !o.Degenerate() {
			t.Fatalf("hopset=%v: single-vertex oracle not marked degenerate", hop)
		}
		if d, err := o.Query(0, 0); err != nil || d != 0 {
			t.Fatalf("hopset=%v: Query(0,0) = (%d, %v), want (0, nil)", hop, d, err)
		}
		if _, err := o.Query(0, 1); err == nil {
			t.Fatalf("hopset=%v: Query(0,1) out of range: want error", hop)
		}
	}
}

func TestOracleIntrospection(t *testing.T) {
	g := WithUniformWeights(RandomGraph(200, 600, 7), 50, 8)
	o := hopsetOracle(g, 0.3, 2)
	if o.Degenerate() {
		t.Fatalf("real oracle marked degenerate")
	}
	if o.Eps() != 0.3 {
		t.Fatalf("Eps = %v, want 0.3", o.Eps())
	}
	if o.NumVertices() != 200 {
		t.Fatalf("NumVertices = %d, want 200", o.NumVertices())
	}
	if o.InstanceCount() < 1 {
		t.Fatalf("InstanceCount = %d, want >= 1", o.InstanceCount())
	}
}

// TestOracleOptsParallelEquivalent: a parallel build Exec must not
// change any answer (it only moves the construction onto goroutines).
func TestOracleOptsParallelEquivalent(t *testing.T) {
	withProcs(t, 4, func() {
		g := WithUniformWeights(GridGraph(12, 12), 30, 3)
		seq := hopsetOracle(g, 0.3, 5)
		parl := NewDistanceOracleOpts(g, 0.3, 5, OracleOptions{Hopset: true, Exec: ParallelExec(0)})
		pairs := [][2]V{{0, 143}, {5, 77}, {11, 132}, {60, 61}}
		for _, p := range pairs {
			ds, err1 := seq.Query(p[0], p[1])
			dp, err2 := parl.Query(p[0], p[1])
			if err1 != nil || err2 != nil {
				t.Fatalf("query errors: %v / %v", err1, err2)
			}
			exact := seq.ExactDistance(p[0], p[1])
			for name, d := range map[string]Dist{"seq": ds, "par": dp} {
				lo := (1-0.3)*float64(exact) - 1e-9
				hi := 2.5 * float64(exact)
				if float64(d) < lo || float64(d) > hi {
					t.Fatalf("%s Query(%d,%d) = %d outside [%.0f, %.0f] (exact %d)",
						name, p[0], p[1], d, lo, hi, exact)
				}
			}
		}
	})
}
