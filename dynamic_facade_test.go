package spanhop

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/rng"
)

// mutationSequence builds a valid random mutation batch against the
// current mutated graph (mixing inserts, deletes, and — on weighted
// graphs — reweights).
func mutationSequence(g *Graph, count int, seed uint64) []DynamicUpdate {
	r := rng.New(seed)
	n := g.NumVertices()
	state := map[[2]V]W{}
	for _, e := range g.Edges() {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		state[[2]V{u, v}] = e.W
	}
	var out []DynamicUpdate
	for len(out) < count {
		u, v := r.Int31n(n), r.Int31n(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		k := [2]V{u, v}
		w, present := state[k]
		switch r.Intn(3) {
		case 0:
			if present {
				continue
			}
			nw := W(1)
			if g.Weighted() {
				nw = W(r.Intn(50) + 1)
			}
			out = append(out, DynamicUpdate{Op: UpdateInsert, U: u, V: v, W: nw})
			state[k] = nw
		case 1:
			if !present {
				continue
			}
			out = append(out, DynamicUpdate{Op: UpdateDelete, U: u, V: v})
			delete(state, k)
		default:
			if !present || !g.Weighted() {
				continue
			}
			nw := W(r.Intn(50) + 1)
			if nw == w {
				nw++
			}
			out = append(out, DynamicUpdate{Op: UpdateReweight, U: u, V: v, W: nw})
			state[k] = nw
		}
	}
	return out
}

// TestDynamicOracleDifferential is the acceptance differential: for
// every workload family (er/rmat/grid × weighted/unweighted), a
// DynamicOracle after a random mutation sequence answers every
// sampled query within the documented bound of the exact distance on
// the mutated graph — the same [(1−ε)·d, 3·d] envelope the static
// oracle tests use, since the overlay adds no error term — and after
// ForceRebuild its answers exactly match a from-scratch
// DistanceOracle built on the same mutated graph with the same eps
// and seed.
func TestDynamicOracleDifferential(t *testing.T) {
	const eps = 0.25
	families := []struct {
		name string
		g    *Graph
	}{
		{"er-unweighted", RandomGraph(90, 240, 1)},
		{"er-weighted", WithUniformWeights(RandomGraph(90, 240, 2), 25, 3)},
		{"rmat-unweighted", RMATGraph(6, 200, 4)},
		{"rmat-weighted", WithUniformWeights(RMATGraph(6, 200, 5), 25, 6)},
		{"grid-unweighted", GridGraph(8, 8)},
		{"grid-weighted", WithUniformWeights(GridGraph(8, 8), 25, 7)},
	}
	for fi, f := range families {
		f := f
		seed := uint64(fi)*13 + 2
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			o := hopsetOracle(f.g, eps, seed)
			d := NewDynamicOracle(o, RebuildPolicy{Disabled: true})
			defer d.Close()
			if _, err := d.ApplyUpdates(mutationSequence(f.g, 10, seed^0xfeed)); err != nil {
				t.Fatal(err)
			}
			mutated := d.MutatedGraph()
			fresh := hopsetOracle(mutated, eps, seed)

			r := rng.New(seed ^ 0xbeef)
			n := f.g.NumVertices()
			check := func(stage string, wantExactOracle *DistanceOracle) {
				for q := 0; q < 40; q++ {
					s, u := r.Int31n(n), r.Int31n(n)
					got, err := d.Query(s, u)
					if err != nil {
						t.Fatalf("%s: Query(%d,%d): %v", stage, s, u, err)
					}
					exact := ShortestPaths(mutated, s).Dist[u]
					if exact == InfDist {
						if got != InfDist {
							t.Fatalf("%s: (%d,%d) disconnected in mutated graph, answered %d", stage, s, u, got)
						}
						continue
					}
					if float64(got) < (1-eps)*float64(exact)-1e-9 {
						t.Fatalf("%s: (%d,%d) = %d below (1-eps)*%d", stage, s, u, got, exact)
					}
					if exact > 0 && float64(got) > 3*float64(exact) {
						t.Fatalf("%s: (%d,%d) = %d above 3*%d", stage, s, u, got, exact)
					}
					if wantExactOracle != nil {
						want, err := wantExactOracle.Query(s, u)
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Fatalf("%s: (%d,%d) = %d, from-scratch oracle says %d", stage, s, u, got, want)
						}
					}
				}
			}
			check("overlay", nil)

			// Rebuild through the scheduler machinery, then demand exact
			// agreement with the from-scratch oracle.
			if err := d.ForceRebuild(context.Background()); err != nil {
				t.Fatalf("ForceRebuild: %v", err)
			}
			if d.PendingUpdates() != 0 || d.BaseGeneration() != d.Generation() {
				t.Fatalf("rebuild left pending=%d floor=%d gen=%d",
					d.PendingUpdates(), d.BaseGeneration(), d.Generation())
			}
			check("rebuilt", fresh)
		})
	}
}

// TestDynamicOracleAutoRebuild: the journal-size policy fires on its
// own and swaps in a rebuilt oracle whose answers match a
// from-scratch build.
func TestDynamicOracleAutoRebuild(t *testing.T) {
	g := WithUniformWeights(RandomGraph(70, 180, 11), 20, 12)
	o := hopsetOracle(g, 0.25, 9)
	d := NewDynamicOracle(o, RebuildPolicy{MaxJournal: 6, MaxPatchFraction: -1, Workers: 2})
	defer d.Close()
	if _, err := d.ApplyUpdates(mutationSequence(g, 7, 77)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for d.PendingUpdates() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("auto rebuild never ran: %+v", d.RebuildStats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := d.RebuildStats()
	if st.Rebuilds < 1 || st.LastError != "" || st.LastCause != "journal" {
		t.Fatalf("rebuild stats = %+v", st)
	}
	fresh := hopsetOracle(d.MutatedGraph(), 0.25, 9)
	r := rng.New(5)
	for q := 0; q < 30; q++ {
		s, u := r.Int31n(g.NumVertices()), r.Int31n(g.NumVertices())
		got, err1 := d.Query(s, u)
		want, err2 := fresh.Query(s, u)
		if err1 != nil || err2 != nil || got != want {
			t.Fatalf("(%d,%d): dynamic %d (%v) vs fresh %d (%v)", s, u, got, err1, want, err2)
		}
	}
}

// TestDynamicOracleQueryAtAndBatch: generation pinning survives
// concurrent-looking use, batch answers align with serial ones, and a
// rebuild compacts old generations away.
func TestDynamicOracleQueryAtAndBatch(t *testing.T) {
	g := WithUniformWeights(GridGraph(6, 6), 15, 21)
	o := hopsetOracle(g, 0.3, 4)
	d := NewDynamicOracle(o, RebuildPolicy{Disabled: true})
	defer d.Close()

	gen0 := d.Generation()
	before, err := d.QueryAt(gen0, 0, 35)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyUpdates([]DynamicUpdate{{Op: UpdateInsert, U: 0, V: 35, W: 1}}); err != nil {
		t.Fatal(err)
	}
	after, err := d.Query(0, 35)
	if err != nil {
		t.Fatal(err)
	}
	if after != 1 {
		t.Fatalf("shortcut not honored: %d", after)
	}
	// The pinned generation still sees the pre-mutation graph.
	if got, err := d.QueryAt(gen0, 0, 35); err != nil || got != before {
		t.Fatalf("QueryAt(gen0) = %d (%v), want %d", got, err, before)
	}

	pairs := [][2]V{{0, 35}, {3, 30}, {7, 7}, {12, 29}}
	batch, err := d.QueryBatch(pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		st, err := d.QueryStats(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != st {
			t.Fatalf("batch[%d] = %+v, serial %+v", i, batch[i], st)
		}
	}

	if err := d.ForceRebuild(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.QueryAt(gen0, 0, 35); err == nil {
		t.Fatal("compacted generation still answered")
	}
	// Mutations on a degenerate-adjacent path: deleting the shortcut
	// again exercises the exact regime post-rebuild.
	if _, err := d.ApplyUpdates([]DynamicUpdate{{Op: UpdateDelete, U: 0, V: 35}}); err != nil {
		t.Fatal(err)
	}
	exact := ShortestPaths(d.MutatedGraph(), 0).Dist[35]
	if got, err := d.Query(0, 35); err != nil || got != exact {
		t.Fatalf("post-delete Query = %d (%v), want exact %d", got, err, exact)
	}
}

// TestDynamicOracleQueryStatsDispatch: QueryStats follows the
// overlay's own regime. An insert-then-delete no-op overlay is clean,
// so the static oracle's full diagnostics pass through; a dirty
// overlay answers the exact distance on the mutated graph.
func TestDynamicOracleQueryStatsDispatch(t *testing.T) {
	g := WithUniformWeights(GridGraph(8, 8), 20, 5)
	o := hopsetOracle(g, 0.3, 6)
	d := NewDynamicOracle(o, RebuildPolicy{Disabled: true})
	defer d.Close()
	pairs := [][2]V{{0, 63}, {7, 56}, {10, 45}}

	if _, err := d.ApplyUpdates([]DynamicUpdate{
		{Op: UpdateInsert, U: 0, V: 63, W: 1},
		{Op: UpdateDelete, U: 0, V: 63},
	}); err != nil {
		t.Fatal(err)
	}
	if reg, _ := d.TraceInfo(); reg != "clean" {
		t.Fatalf("no-op overlay regime = %q, want clean", reg)
	}
	levels := int64(0)
	for _, p := range pairs {
		want, err := o.QueryStats(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.QueryStats(p[0], p[1])
		if err != nil || got != want {
			t.Fatalf("no-op overlay QueryStats(%d,%d) = %+v (%v), want static %+v", p[0], p[1], got, err, want)
		}
		levels += got.Levels
	}
	if levels == 0 {
		t.Fatal("static diagnostics report no levels; the pass-through is unobservable")
	}

	if _, err := d.ApplyUpdates([]DynamicUpdate{{Op: UpdateInsert, U: 0, V: 63, W: 3}}); err != nil {
		t.Fatal(err)
	}
	if reg, _ := d.TraceInfo(); reg != "degrading" {
		t.Fatalf("dirty overlay regime = %q, want degrading", reg)
	}
	mg := d.MutatedGraph()
	for _, p := range pairs {
		want := QueryStats{Dist: ShortestPaths(mg, p[0]).Dist[p[1]]}
		if got, err := d.QueryStats(p[0], p[1]); err != nil || got != want {
			t.Fatalf("dirty overlay QueryStats(%d,%d) = %+v (%v), want %+v", p[0], p[1], got, err, want)
		}
	}
}

// TestDynamicOracleSnapshotRoundTrip: SaveDynamicOracle persists the
// base oracle plus the pending journal; LoadDynamicOracle replays it,
// reproducing generation and answers; plain LoadOracle refuses to
// silently drop the journal.
func TestDynamicOracleSnapshotRoundTrip(t *testing.T) {
	g := WithUniformWeights(RandomGraph(60, 150, 31), 20, 32)
	o := hopsetOracle(g, 0.25, 33)
	d := NewDynamicOracle(o, RebuildPolicy{Disabled: true})
	defer d.Close()
	if _, err := d.ApplyUpdates(mutationSequence(g, 8, 333)); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := SaveDynamicOracle(&buf, d, []byte("note")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadOracleNote(bytes.NewReader(buf.Bytes()), nil, OracleOptions{}); err == nil {
		t.Fatal("LoadOracle accepted a journal-carrying snapshot")
	}
	d2, note, err := LoadDynamicOracle(bytes.NewReader(buf.Bytes()), nil, OracleOptions{}, RebuildPolicy{Disabled: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if string(note) != "note" {
		t.Fatalf("note = %q", note)
	}
	if d2.Generation() != d.Generation() || d2.BaseGeneration() != d.BaseGeneration() ||
		d2.PendingUpdates() != d.PendingUpdates() {
		t.Fatalf("restored window gen=%d/%d pending=%d, want %d/%d pending=%d",
			d2.BaseGeneration(), d2.Generation(), d2.PendingUpdates(),
			d.BaseGeneration(), d.Generation(), d.PendingUpdates())
	}
	r := rng.New(6)
	n := g.NumVertices()
	for q := 0; q < 30; q++ {
		s, u := r.Int31n(n), r.Int31n(n)
		a, err1 := d.Query(s, u)
		b, err2 := d2.Query(s, u)
		if err1 != nil || err2 != nil || a != b {
			t.Fatalf("(%d,%d): %d (%v) vs restored %d (%v)", s, u, a, err1, b, err2)
		}
	}
	// A static save of a dynamic oracle with an EMPTY journal loads
	// either way.
	if err := d.ForceRebuild(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := SaveDynamicOracle(&buf2, d, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadOracleNote(bytes.NewReader(buf2.Bytes()), nil, OracleOptions{}); err != nil {
		t.Fatalf("journal-free dynamic snapshot rejected by LoadOracle: %v", err)
	}
}

// TestDynamicOracleUnweightedJournalRoundTrip: an unweighted insert
// sent without a weight (the HTTP default, W=0) must persist as the
// normalized weight-1 entry — the strict journal decoder would
// otherwise reject the snapshot the writer itself produced.
func TestDynamicOracleUnweightedJournalRoundTrip(t *testing.T) {
	g := GridGraph(4, 4) // unweighted
	o := NewDistanceOracle(g, 0.3, 2)
	d := NewDynamicOracle(o, RebuildPolicy{Disabled: true})
	defer d.Close()
	if _, err := d.ApplyUpdates([]DynamicUpdate{
		{Op: UpdateInsert, U: 0, V: 15},       // W omitted
		{Op: UpdateDelete, U: 0, V: 1, W: 99}, // junk delete weight must not persist
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveDynamicOracle(&buf, d, nil); err != nil {
		t.Fatal(err)
	}
	d2, _, err := LoadDynamicOracle(bytes.NewReader(buf.Bytes()), nil, OracleOptions{}, RebuildPolicy{Disabled: true})
	if err != nil {
		t.Fatalf("round trip of normalized journal failed: %v", err)
	}
	defer d2.Close()
	if got, err := d2.Query(0, 15); err != nil || got != 1 {
		t.Fatalf("restored Query(0,15) = %d (%v), want 1", got, err)
	}
}

// TestDynamicOracleDegenerateBase: a degenerate static oracle (no
// edges) becomes routable through overlay insertions alone, and a
// rebuild graduates it to a real oracle.
func TestDynamicOracleDegenerateBase(t *testing.T) {
	g := NewGraph(4, nil, false)
	o := hopsetOracle(g, 0.5, 1)
	if !o.Degenerate() {
		t.Fatal("edgeless oracle not degenerate")
	}
	d := NewDynamicOracle(o, RebuildPolicy{Disabled: true})
	defer d.Close()
	if _, err := d.ApplyUpdates([]DynamicUpdate{
		{Op: UpdateInsert, U: 0, V: 1},
		{Op: UpdateInsert, U: 1, V: 2},
	}); err != nil {
		t.Fatal(err)
	}
	if got, err := d.Query(0, 2); err != nil || got != 2 {
		t.Fatalf("Query(0,2) = %d (%v), want 2", got, err)
	}
	if got, err := d.Query(0, 3); err != nil || got != InfDist {
		t.Fatalf("Query(0,3) = %d (%v), want InfDist", got, err)
	}
	if err := d.ForceRebuild(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d.Oracle().Degenerate() {
		t.Fatal("rebuilt oracle still degenerate")
	}
	if got, err := d.Query(0, 2); err != nil || got != 2 {
		t.Fatalf("post-rebuild Query(0,2) = %d (%v), want 2", got, err)
	}
}
