package dynamic

import (
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/rng"
)

// findNonEdge returns a vertex pair with no base edge in g.
func findNonEdge(t *testing.T, g *graph.Graph) (graph.V, graph.V) {
	t.Helper()
	present := map[pairKey]bool{}
	for _, e := range g.Edges() {
		present[keyOf(e.U, e.V)] = true
	}
	n := g.NumVertices()
	for u := graph.V(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !present[keyOf(u, v)] {
				return u, v
			}
		}
	}
	t.Fatal("graph is complete; no non-edge available")
	return 0, 0
}

// findHeavyEdge returns a base edge with weight >= 2, so a
// reweight-down stays a positive weight.
func findHeavyEdge(t *testing.T, g *graph.Graph) graph.Edge {
	t.Helper()
	for _, e := range g.Edges() {
		if e.W >= 2 {
			return e
		}
	}
	t.Fatal("no base edge with weight >= 2")
	return graph.Edge{}
}

// TestRegimeClassification walks Regime() through every
// mutation-driven transition: fresh oracles are clean, any pair that
// diverges from the base — an insert, a delete, or a reweight in
// either direction — makes the overlay degrading (answered by the
// exact patched search), reverting the patch to a net no-op returns to
// clean, and a Swap at the latest generation compacts the journal back
// to clean regardless of what preceded it. In the two mixed rows'
// names, "improving" names an insert and "degrading" a base-pair
// delete.
func TestRegimeClassification(t *testing.T) {
	type step struct {
		ops  func(t *testing.T, d *Oracle, g *graph.Graph) []Update
		want string
	}
	base := func() *graph.Graph {
		return graph.UniformWeights(graph.Grid2D(5, 5), 30, 2)
	}
	insertNew := func(t *testing.T, d *Oracle, g *graph.Graph) []Update {
		u, v := findNonEdge(t, g)
		return []Update{{Op: OpInsert, U: u, V: v, W: 3}}
	}
	deleteBase := func(t *testing.T, d *Oracle, g *graph.Graph) []Update {
		e := g.Edges()[0]
		return []Update{{Op: OpDelete, U: e.U, V: e.V}}
	}
	reweightUp := func(t *testing.T, d *Oracle, g *graph.Graph) []Update {
		e := g.Edges()[0]
		return []Update{{Op: OpReweight, U: e.U, V: e.V, W: e.W + 5}}
	}
	reweightDown := func(t *testing.T, d *Oracle, g *graph.Graph) []Update {
		e := findHeavyEdge(t, g)
		return []Update{{Op: OpReweight, U: e.U, V: e.V, W: e.W - 1}}
	}
	deleteInserted := func(t *testing.T, d *Oracle, g *graph.Graph) []Update {
		u, v := findNonEdge(t, g)
		return []Update{{Op: OpDelete, U: u, V: v}}
	}
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"fresh-clean", nil},
		{"insert-degrading", []step{{insertNew, "degrading"}}},
		{"insert-then-delete-clean", []step{
			{insertNew, "degrading"},
			// Deleting the inserted pair nets the patch back to a
			// no-op: non-empty journal, but no diverging pair.
			{deleteInserted, "clean"},
		}},
		{"delete-base-degrading", []step{{deleteBase, "degrading"}}},
		{"reweight-up-degrading", []step{{reweightUp, "degrading"}}},
		{"reweight-down-degrading", []step{{reweightDown, "degrading"}}},
		{"improving-to-degrading-flip", []step{
			{insertNew, "degrading"},
			{deleteBase, "degrading"},
		}},
		{"degrading-dominates-improving", []step{
			{deleteBase, "degrading"},
			// An insert cannot lift a deleted base pair.
			{insertNew, "degrading"},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := base()
			d := New(exactBase{g}, g, 0)
			if reg, gen := d.Regime(); reg != "clean" || gen != 0 {
				t.Fatalf("fresh oracle: Regime() = (%q, %d), want (clean, 0)", reg, gen)
			}
			for i, st := range tc.steps {
				ups := st.ops(t, d, g)
				gen, err := d.Apply(ups)
				if err != nil {
					t.Fatalf("step %d: Apply: %v", i, err)
				}
				reg, rgen := d.Regime()
				if reg != st.want {
					t.Fatalf("step %d: Regime() = %q, want %q", i, reg, st.want)
				}
				if rgen != gen {
					t.Fatalf("step %d: Regime() gen = %d, Apply returned %d", i, rgen, gen)
				}
			}
		})
	}
}

// TestRegimeSwapReset: a rebuild (Swap at the latest generation)
// compacts the journal away and resets any regime — including
// degrading — back to clean, with the floor advanced to the swap
// point.
func TestRegimeSwapReset(t *testing.T) {
	g := graph.UniformWeights(graph.Grid2D(5, 5), 30, 2)
	d := New(exactBase{g}, g, 0)
	e := g.Edges()[0]
	if _, err := d.Apply([]Update{{Op: OpDelete, U: e.U, V: e.V}}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	u, v := findNonEdge(t, g)
	gen, err := d.Apply([]Update{{Op: OpInsert, U: u, V: v, W: 2}})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if reg, _ := d.Regime(); reg != "degrading" {
		t.Fatalf("pre-swap Regime() = %q, want degrading", reg)
	}
	mg := d.MutatedGraph()
	if err := d.Swap(exactBase{mg}, mg, gen); err != nil {
		t.Fatalf("Swap: %v", err)
	}
	reg, rgen := d.Regime()
	if reg != "clean" || rgen != gen {
		t.Fatalf("post-swap Regime() = (%q, %d), want (clean, %d)", reg, rgen, gen)
	}
	if fg := d.FloorGen(); fg != gen {
		t.Fatalf("post-swap FloorGen() = %d, want %d", fg, gen)
	}
	// Post-rebuild mutations classify from the new baseline: the
	// re-inserted pair is now a base edge, so deleting it degrades.
	if _, err := d.Apply([]Update{{Op: OpDelete, U: u, V: v}}); err != nil {
		t.Fatalf("post-swap Apply: %v", err)
	}
	if reg, _ := d.Regime(); reg != "degrading" {
		t.Fatalf("post-swap delete: Regime() = %q, want degrading", reg)
	}
}

// TestExactDistanceAt: the auditor's ground-truth probe matches plain
// Dijkstra on the materialized graph at every live generation, in
// every regime, and fails with the documented sentinels outside the
// retained window.
func TestExactDistanceAt(t *testing.T) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(40, 100, 3), 20, 5)
	d := New(exactBase{g}, g, 0)
	for round := 0; round < 4; round++ {
		ups := randomUpdates(t, d, d.MutatedGraph(), 4, uint64(round)*13+2)
		if _, err := d.Apply(ups); err != nil {
			t.Fatalf("round %d: Apply: %v", round, err)
		}
	}
	top := d.Generation()
	n := g.NumVertices()
	pairs := [][2]graph.V{{0, 1}, {3, 17}, {5, 5}, {n - 1, 0}, {12, 33}}
	for gen := uint64(0); gen <= top; gen++ {
		mg, err := d.MutatedGraphAt(gen)
		if err != nil {
			t.Fatalf("MutatedGraphAt(%d): %v", gen, err)
		}
		for _, p := range pairs {
			want := graph.Dist(0)
			if p[0] != p[1] {
				want = exactDist(mg, p[0], p[1])
			}
			got, err := d.ExactDistanceAt(gen, p[0], p[1])
			if err != nil {
				t.Fatalf("ExactDistanceAt(%d, %d, %d): %v", gen, p[0], p[1], err)
			}
			if got != want {
				t.Fatalf("ExactDistanceAt(%d, %d, %d) = %d, want %d", gen, p[0], p[1], got, want)
			}
		}
	}
	if _, err := d.ExactDistanceAt(top+1, 0, 1); !errors.Is(err, ErrFutureGen) {
		t.Fatalf("future gen: err = %v, want ErrFutureGen", err)
	}
	if _, err := d.ExactDistanceAt(top, -1, 1); err == nil {
		t.Fatal("out-of-range source: want error")
	}
	if _, err := d.ExactDistanceAt(top, 0, n); err == nil {
		t.Fatal("out-of-range target: want error")
	}
	// Compact at the midpoint: older generations must turn into
	// ErrCompactedGen (the auditor treats those as dropped samples),
	// newer ones keep answering.
	mid := top / 2
	mg, err := d.MutatedGraphAt(mid)
	if err != nil {
		t.Fatalf("MutatedGraphAt(%d): %v", mid, err)
	}
	if err := d.Swap(exactBase{mg}, mg, mid); err != nil {
		t.Fatalf("Swap: %v", err)
	}
	if mid > 0 {
		if _, err := d.ExactDistanceAt(mid-1, 0, 1); !errors.Is(err, ErrCompactedGen) {
			t.Fatalf("compacted gen: err = %v, want ErrCompactedGen", err)
		}
	}
	for gen := mid; gen <= top; gen++ {
		mgAt, err := d.MutatedGraphAt(gen)
		if err != nil {
			t.Fatalf("post-swap MutatedGraphAt(%d): %v", gen, err)
		}
		want := exactDist(mgAt, 2, 31)
		got, err := d.ExactDistanceAt(gen, 2, 31)
		if err != nil {
			t.Fatalf("post-swap ExactDistanceAt(%d): %v", gen, err)
		}
		if got != want {
			t.Fatalf("post-swap ExactDistanceAt(%d) = %d, want %d", gen, got, want)
		}
	}
}

// TestExactDistanceAtDisconnected: deleting a leafy vertex's only
// edges yields InfDist from the exact probe, never a panic or a
// finite fabrication.
func TestExactDistanceAtDisconnected(t *testing.T) {
	g := graph.Grid2D(4, 4)
	d := New(exactBase{g}, g, 0)
	// Corner vertex 0 in a 4x4 grid has exactly two incident edges.
	var ups []Update
	for _, e := range g.Edges() {
		if e.U == 0 || e.V == 0 {
			ups = append(ups, Update{Op: OpDelete, U: e.U, V: e.V})
		}
	}
	if len(ups) != 2 {
		t.Fatalf("corner vertex has %d incident edges, want 2", len(ups))
	}
	gen, err := d.Apply(ups)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	got, err := d.ExactDistanceAt(gen, 0, 15)
	if err != nil {
		t.Fatalf("ExactDistanceAt: %v", err)
	}
	if got < graph.InfDist {
		t.Fatalf("disconnected pair: got finite distance %d", got)
	}
	// Generation 0 still sees the intact grid.
	if got, err := d.ExactDistanceAt(0, 0, 15); err != nil || got != exactDist(g, 0, 15) {
		t.Fatalf("gen 0: got (%d, %v), want (%d, nil)", got, err, exactDist(g, 0, 15))
	}
}

// BenchmarkExactDistanceAt times the overlay's exact search, the
// ground truth the answer-quality auditor and perfbench's answer
// checker call, on offline-road's graph shape (a 100×100 grid with
// multi-scale weights: base 4, five scales), cycling over 64 fixed
// random pairs. The clean overlay has an empty journal; the dirty one
// carries 8 inserted long-range shortcuts, so its search walks patched
// vertices and inserted arcs too. work/op is the arcs the search scans
// per query, averaged over the pairs.
func BenchmarkExactDistanceAt(b *testing.B) {
	g := graph.ExponentialWeights(graph.Grid2D(100, 100), 4, 5, 1)
	n := g.NumVertices()
	r := rng.New(3)
	pairs := make([][2]graph.V, 64)
	for i := range pairs {
		pairs[i] = [2]graph.V{r.Int31n(n), r.Int31n(n)}
	}
	for _, tc := range []struct {
		name    string
		inserts int
	}{{"clean", 0}, {"dirty-8-inserts", 8}} {
		b.Run(tc.name, func(b *testing.B) {
			d := New(exactBase{g}, g, 0)
			var ups []Update
			for i := 0; i < tc.inserts; i++ {
				ups = append(ups, Update{Op: OpInsert, U: graph.V(i * 11), V: n - 1 - graph.V(i*17), W: graph.W(i + 1)})
			}
			if len(ups) > 0 {
				if _, err := d.Apply(ups); err != nil {
					b.Fatal(err)
				}
			}
			gen := d.Generation()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if _, err := d.ExactDistanceAt(gen, p[0], p[1]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			cost := par.NewCost()
			d.mu.RLock()
			for _, p := range pairs {
				d.exactPatchedLocked(gen, p[0], p[1], cost)
			}
			d.mu.RUnlock()
			b.ReportMetric(float64(cost.Work())/float64(len(pairs)), "work/op")
		})
	}
}
