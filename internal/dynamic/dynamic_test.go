package dynamic

import (
	"context"
	"errors"
	"maps"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sssp"
)

// exactBase answers exact base-graph distances, so every answer the
// overlay gives — clean or dirty — can be compared against plain
// Dijkstra on the materialized graph.
type exactBase struct{ g *graph.Graph }

func (e exactBase) Query(s, t graph.V) (graph.Dist, error) {
	return sssp.Dijkstra(e.g, []graph.V{s}, sssp.Options{}).Dist[t], nil
}

// skewBase is an approximate base: exact base-graph distances plus
// one for every connected pair s != t. Its answers never equal the
// exact distance, so a test can tell which path the overlay took.
type skewBase struct{ g *graph.Graph }

func (e skewBase) Query(s, t graph.V) (graph.Dist, error) {
	d := exactDist(e.g, s, t)
	if s != t && d < graph.InfDist {
		d++
	}
	return d, nil
}

func exactDist(g *graph.Graph, s, t graph.V) graph.Dist {
	return sssp.Dijkstra(g, []graph.V{s}, sssp.Options{}).Dist[t]
}

// pairWeights maps every vertex pair joined in g to its minimum edge
// weight — the pair-level view mutations address. Two graphs with
// equal pairWeights have equal distances.
func pairWeights(g *graph.Graph) map[pairKey]graph.W {
	out := map[pairKey]graph.W{}
	for _, e := range g.Edges() {
		k := keyOf(e.U, e.V)
		if w, ok := out[k]; !ok || e.W < w {
			out[k] = e.W
		}
	}
	return out
}

// randomUpdates generates a valid mutation sequence against a local
// replica of the evolving pair state.
func randomUpdates(t *testing.T, d *Oracle, g *graph.Graph, count int, seed uint64) []Update {
	t.Helper()
	r := rng.New(seed)
	n := g.NumVertices()
	// Track current pair state starting from the base graph.
	state := map[pairKey]graph.W{}
	for _, e := range g.Edges() {
		state[keyOf(e.U, e.V)] = e.W
	}
	var out []Update
	for len(out) < count {
		u, v := r.Int31n(n), r.Int31n(n)
		if u == v {
			continue
		}
		k := keyOf(u, v)
		w, present := state[k]
		switch r.Intn(3) {
		case 0: // insert
			if present {
				continue
			}
			nw := graph.W(1)
			if g.Weighted() {
				nw = graph.W(r.Intn(40) + 1)
			}
			out = append(out, Update{Op: OpInsert, U: u, V: v, W: nw})
			state[k] = nw
		case 1: // delete
			if !present {
				continue
			}
			out = append(out, Update{Op: OpDelete, U: u, V: v})
			delete(state, k)
		default: // reweight
			if !present || !g.Weighted() {
				continue
			}
			nw := graph.W(r.Intn(40) + 1)
			if nw == w {
				nw++
			}
			out = append(out, Update{Op: OpReweight, U: u, V: v, W: nw})
			state[k] = nw
		}
	}
	return out
}

// TestQueryMatchesExactOnMutatedGraph: the overlay answers every
// generation that diverges from the base with the exact distance on
// the mutated graph, and every generation that does not with the base
// querier's own value — across exact and approximate (skewBase) bases,
// weighted and unweighted graphs, and a random mix of all three ops.
func TestQueryMatchesExactOnMutatedGraph(t *testing.T) {
	weighted := graph.UniformWeights(graph.RandomConnectedGNM(60, 160, 1), 30, 2)
	grid := graph.Grid2D(7, 7)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		skew bool
	}{
		{"weighted-er", weighted, false},
		{"unweighted-grid", grid, false},
		{"weighted-er-skew-base", weighted, true},
		{"unweighted-grid-skew-base", grid, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var base Querier = exactBase{tc.g}
			if tc.skew {
				base = skewBase{tc.g}
			}
			d := New(base, tc.g, 0)
			basePairs := pairWeights(tc.g)
			r := rng.New(99)
			n := tc.g.NumVertices()
			check := func(gen uint64, queries int) {
				t.Helper()
				mg, err := d.MutatedGraphAt(gen)
				if err != nil {
					t.Fatalf("MutatedGraphAt(%d): %v", gen, err)
				}
				dirty := !maps.Equal(pairWeights(mg), basePairs)
				for q := 0; q < queries; q++ {
					s, u := r.Int31n(n), r.Int31n(n)
					want := exactDist(mg, s, u)
					if !dirty {
						want, _ = base.Query(s, u)
					}
					got, err := d.QueryAt(gen, s, u)
					if err != nil {
						t.Fatalf("QueryAt(%d, %d, %d): %v", gen, s, u, err)
					}
					if got != want {
						t.Fatalf("gen %d (dirty=%v): QueryAt(%d,%d) = %d, want %d", gen, dirty, s, u, got, want)
					}
				}
			}
			check(0, 10)
			for round := 0; round < 6; round++ {
				first := d.Generation() + 1
				ups := randomUpdates(t, d, d.MutatedGraph(), 5, uint64(round)*7+1)
				// Re-derive validity against the overlay's own state: the
				// helper tracked from the materialized graph, which IS the
				// overlay state, so Apply must accept.
				if _, err := d.Apply(ups); err != nil {
					t.Fatalf("round %d: Apply: %v", round, err)
				}
				for gen := first; gen <= d.Generation(); gen++ {
					check(gen, 10)
				}
			}
		})
	}
}

// TestNoOpPatchStaysClean: an insert-then-delete pair nets back to
// the base graph and keeps the base-oracle shortcut; a real insert
// makes the overlay dirty and its answers use the new edge.
func TestNoOpPatchStaysClean(t *testing.T) {
	g := graph.UniformWeights(graph.Grid2D(5, 5), 10, 3)
	d := New(exactBase{g}, g, 0)
	if _, err := d.Apply([]Update{
		{Op: OpInsert, U: 3, V: 17, W: 4},
		{Op: OpDelete, U: 3, V: 17}, // net no-op vs base
	}); err != nil {
		t.Fatal(err)
	}
	if reg, _ := d.Regime(); reg != "clean" {
		t.Fatalf("no-op patch: Regime() = %q, want clean", reg)
	}
	if _, err := d.Apply([]Update{{Op: OpInsert, U: 0, V: 24, W: 2}}); err != nil {
		t.Fatal(err)
	}
	if reg, _ := d.Regime(); reg != "degrading" {
		t.Fatalf("insert: Regime() = %q, want degrading", reg)
	}
	// The shortcut is used: 0→24 must now cost 2.
	if got, _ := d.Query(0, 24); got != 2 {
		t.Fatalf("Query(0,24) = %d, want 2", got)
	}
}

// TestQueryAtHistoricalGenerations: QueryAt(g) answers against the
// graph as of g, for every g in the journal window.
func TestQueryAtHistoricalGenerations(t *testing.T) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(40, 90, 5), 20, 6)
	d := New(exactBase{g}, g, 0)
	ups := randomUpdates(t, d, g, 12, 11)
	if _, err := d.Apply(ups); err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	n := g.NumVertices()
	for gen := uint64(0); gen <= d.Generation(); gen += 3 {
		mg, err := d.MutatedGraphAt(gen)
		if err != nil {
			t.Fatalf("MutatedGraphAt(%d): %v", gen, err)
		}
		for q := 0; q < 10; q++ {
			s, u := r.Int31n(n), r.Int31n(n)
			want := exactDist(mg, s, u)
			got, err := d.QueryAt(gen, s, u)
			if err != nil {
				t.Fatalf("QueryAt(%d,%d,%d): %v", gen, s, u, err)
			}
			if got != want {
				t.Fatalf("QueryAt(gen=%d, %d,%d) = %d, want %d", gen, s, u, got, want)
			}
		}
	}
	if _, err := d.QueryAt(d.Generation()+1, 0, 1); !errors.Is(err, ErrFutureGen) {
		t.Fatalf("future gen error = %v", err)
	}
}

// TestApplyValidation: every malformed update is rejected and a batch
// with one bad update commits nothing.
func TestApplyValidation(t *testing.T) {
	g := graph.Grid2D(4, 4) // unweighted
	d := New(exactBase{g}, g, 0)
	e := g.Edges()[0]
	cases := [][]Update{
		{{Op: OpInsert, U: 0, V: 99, W: 1}},                                  // out of range
		{{Op: OpInsert, U: 2, V: 2, W: 1}},                                   // self-loop
		{{Op: OpInsert, U: e.U, V: e.V, W: 1}},                               // already present
		{{Op: OpInsert, U: 0, V: 5, W: 7}},                                   // weight into unweighted
		{{Op: OpDelete, U: 0, V: 5}},                                         // not present
		{{Op: OpReweight, U: e.U, V: e.V, W: 3}},                             // reweight unweighted
		{{Op: Op(9), U: 0, V: 5}},                                            // unknown op
		{{Op: OpInsert, U: 0, V: 5, W: 1}, {Op: OpInsert, U: 0, V: 5, W: 1}}, // dup within batch
	}
	for i, us := range cases {
		if _, err := d.Apply(us); !errors.Is(err, ErrBadUpdate) {
			t.Errorf("case %d: err = %v, want ErrBadUpdate", i, err)
		}
	}
	if d.Generation() != 0 || d.Pending() != 0 {
		t.Fatalf("failed batches mutated state: gen=%d pending=%d", d.Generation(), d.Pending())
	}
	// Valid insert-then-delete within one batch is fine.
	if gen, err := d.Apply([]Update{
		{Op: OpInsert, U: 0, V: 5, W: 1},
		{Op: OpDelete, U: 0, V: 5},
	}); err != nil || gen != 2 {
		t.Fatalf("valid batch: gen=%d err=%v", gen, err)
	}
}

// TestApplyWeightCap: insert and reweight refuse a weight w with
// w·max(n−1, 1) ≥ InfDist, so no mutation can make a reachable pair
// read as unreachable; the cap itself is accepted.
func TestApplyWeightCap(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}}, true)
	d := New(exactBase{g}, g, 0)
	for _, u := range []Update{
		{Op: OpInsert, U: 0, V: 2, W: 1 << 61},
		{Op: OpReweight, U: 0, V: 1, W: 1 << 61},
	} {
		if _, err := d.Apply([]Update{u}); !errors.Is(err, ErrBadUpdate) {
			t.Errorf("%+v: err = %v, want ErrBadUpdate", u, err)
		}
	}
	wCap := graph.WeightCap(3)
	if _, err := d.Apply([]Update{{Op: OpReweight, U: 0, V: 1, W: wCap}, {Op: OpReweight, U: 1, V: 2, W: wCap}}); err != nil {
		t.Fatalf("reweight to the cap: %v", err)
	}
	if dist, _ := d.Query(0, 2); dist != 2*wCap {
		t.Fatalf("dist(0,2) = %d, want %d", dist, 2*wCap)
	}
}

// TestSwapCompaction: Swap drops absorbed journal entries, rebases
// pair histories, and invalidates generations below the new floor.
func TestSwapCompaction(t *testing.T) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(30, 70, 7), 15, 8)
	d := New(exactBase{g}, g, 0)
	ups := randomUpdates(t, d, g, 10, 21)
	if _, err := d.Apply(ups[:6]); err != nil {
		t.Fatal(err)
	}
	mid := d.Generation()
	midG, err := d.MutatedGraphAt(mid)
	if err != nil {
		t.Fatal(err)
	}
	// More updates land while the "rebuild" is in flight.
	if _, err := d.Apply(ups[6:]); err != nil {
		t.Fatal(err)
	}
	if err := d.Swap(exactBase{midG}, midG, mid); err != nil {
		t.Fatal(err)
	}
	if d.FloorGen() != mid {
		t.Fatalf("floor = %d, want %d", d.FloorGen(), mid)
	}
	if d.Pending() != 4 {
		t.Fatalf("pending = %d, want 4", d.Pending())
	}
	if _, err := d.QueryAt(mid-1, 0, 1); !errors.Is(err, ErrCompactedGen) {
		t.Fatalf("compacted gen error = %v", err)
	}
	// Post-swap queries still exact against the full mutation history.
	mg := d.MutatedGraph()
	r := rng.New(2)
	n := mg.NumVertices()
	for q := 0; q < 20; q++ {
		s, u := r.Int31n(n), r.Int31n(n)
		want := exactDist(mg, s, u)
		if got, err := d.Query(s, u); err != nil || got != want {
			t.Fatalf("post-swap Query(%d,%d) = %d (%v), want %d", s, u, got, err, want)
		}
	}
}

// TestCommitWorkIndependentOfJournal: a commit resolves only its own
// pairs against the base adjacency, so its base-arc reads do not grow
// with the journal, and OverlayEdges and Gauges read none. On a dense
// ER base (degree 64), commit 8 and commit 240 reweight the same four
// base pairs; every other commit touches four fresh pairs (an insert,
// a delete and two reweights).
func TestCommitWorkIndependentOfJournal(t *testing.T) {
	const n, batch, commits = 2048, 4, 240
	g := graph.UniformWeights(graph.RandomConnectedGNM(n, 32*n, 3), 100, 4)
	base := pairWeights(g)
	var present []pairKey
	for _, e := range g.Edges() {
		if k := keyOf(e.U, e.V); len(present) == 0 || present[len(present)-1] != k {
			present = append(present, k)
		}
	}
	fixed, present := present[:batch], present[batch:]
	used := map[pairKey]bool{}
	r := rng.New(5)
	fresh := func(op Op) Update {
		for {
			var k pairKey
			if op == OpInsert {
				k = keyOf(r.Int31n(n), r.Int31n(n))
				if _, ok := base[k]; ok || k.a == k.b {
					continue
				}
			} else {
				k, present = present[0], present[1:]
			}
			if used[k] {
				continue
			}
			used[k] = true
			// base[k]+1: a reweight that diverges from the base.
			return Update{Op: op, U: k.a, V: k.b, W: base[k] + 1}
		}
	}
	d := New(exactBase{g}, g, 0)
	reads := map[int]int64{}
	for c := 1; c <= commits; c++ {
		var ups []Update
		if c == 8 || c == commits {
			for _, k := range fixed {
				ups = append(ups, Update{Op: OpReweight, U: k.a, V: k.b, W: graph.W(100 + c)})
			}
		} else {
			ups = []Update{fresh(OpInsert), fresh(OpDelete), fresh(OpReweight), fresh(OpReweight)}
		}
		before := d.baseArcReads.Load()
		if _, err := d.Apply(ups); err != nil {
			t.Fatalf("commit %d: %v", c, err)
		}
		reads[c] = d.baseArcReads.Load() - before
	}
	maxDeg := int64(0)
	for v := graph.V(0); v < n; v++ {
		maxDeg = max(maxDeg, int64(g.Degree(v)))
	}
	if reads[commits] != reads[8] || reads[8] > batch*maxDeg {
		t.Fatalf("base arcs read: commit 8 %d, commit %d %d, want equal and at most %d (batch × max degree)",
			reads[8], commits, reads[commits], batch*maxDeg)
	}
	before := d.baseArcReads.Load()
	want := (commits-2)*batch + batch
	if got := d.OverlayEdges(); got != want {
		t.Fatalf("OverlayEdges() = %d, want %d", got, want)
	}
	if got := d.Gauges().OverlayEdges; got != want {
		t.Fatalf("Gauges().OverlayEdges = %d, want %d", got, want)
	}
	if got := d.baseArcReads.Load() - before; got != 0 {
		t.Fatalf("OverlayEdges and Gauges read %d base arcs, want 0", got)
	}
}

// TestReplayRoundTrip: a journal survives persistence: replaying it
// into a fresh overlay reproduces generation stamps and answers.
func TestReplayRoundTrip(t *testing.T) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(30, 70, 9), 15, 10)
	d := New(exactBase{g}, g, 0)
	if _, err := d.Apply(randomUpdates(t, d, g, 8, 31)); err != nil {
		t.Fatal(err)
	}
	journal := d.Journal()

	d2 := New(exactBase{g}, g, 0)
	if err := d2.Replay(journal); err != nil {
		t.Fatal(err)
	}
	if d2.Generation() != d.Generation() {
		t.Fatalf("replayed gen = %d, want %d", d2.Generation(), d.Generation())
	}
	mg := d.MutatedGraph()
	r := rng.New(3)
	n := mg.NumVertices()
	for q := 0; q < 15; q++ {
		s, u := r.Int31n(n), r.Int31n(n)
		a, err1 := d.Query(s, u)
		b, err2 := d2.Query(s, u)
		if err1 != nil || err2 != nil || a != b {
			t.Fatalf("replayed answers diverge at (%d,%d): %d vs %d (%v, %v)", s, u, a, b, err1, err2)
		}
	}
}

// TestSchedulerJournalTrigger: crossing MaxJournal rebuilds in the
// background, compacts, and leaves exact answers behind.
func TestSchedulerJournalTrigger(t *testing.T) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(40, 90, 13), 20, 14)
	d := New(exactBase{g}, g, 0)
	sch := NewScheduler(d, Policy{MaxJournal: 4, MaxPatchFraction: -1},
		func(ctx context.Context, mg *graph.Graph) (Querier, error) {
			return exactBase{mg}, nil
		})
	defer sch.Close()
	if _, err := d.Apply(randomUpdates(t, d, g, 5, 41)); err != nil {
		t.Fatal(err)
	}
	sch.Notify()
	deadline := time.Now().Add(5 * time.Second)
	for d.Pending() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("rebuild never compacted the journal (pending=%d)", d.Pending())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s := sch.Snapshot(); s.Rebuilds < 1 || s.LastError != "" {
		t.Fatalf("scheduler stats = %+v", s)
	}
	if d.FloorGen() != d.Generation() {
		t.Fatalf("floor %d != gen %d after rebuild", d.FloorGen(), d.Generation())
	}
	mg := d.MutatedGraph()
	if got, _ := d.Query(0, mg.NumVertices()-1); got != exactDist(mg, 0, mg.NumVertices()-1) {
		t.Fatal("post-rebuild answer wrong")
	}
}

// TestSchedulerForceAndCancel: Force rebuilds synchronously; a build
// that honors cancellation surfaces ctx.Err when closed mid-flight.
func TestSchedulerForceAndCancel(t *testing.T) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(30, 60, 17), 10, 18)
	d := New(exactBase{g}, g, 0)
	sch := NewScheduler(d, Policy{MaxJournal: -1, MaxPatchFraction: -1},
		func(ctx context.Context, mg *graph.Graph) (Querier, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return exactBase{mg}, nil
		})
	if _, err := d.Apply(randomUpdates(t, d, g, 3, 51)); err != nil {
		t.Fatal(err)
	}
	if err := sch.Force(context.Background()); err != nil {
		t.Fatalf("Force: %v", err)
	}
	if d.Pending() != 0 {
		t.Fatalf("pending = %d after Force", d.Pending())
	}
	sch.Close()
	if err := sch.Force(context.Background()); err == nil {
		t.Fatal("Force after Close succeeded")
	}
}

// TestConcurrentQueriesDuringSwap races queries (both regimes, plus
// the empty-patch delegation path) against mutation batches and
// rebuild swaps; under -race this pins the capture-base-under-lock
// contract, and every answer must still be exact for
// SOME generation in the journal window at the time it was issued —
// we simply require it to be a finite/consistent value and leave
// exactness to the quiescent check at the end. The readers also take
// the answer-quality auditor's path: ExactDistanceAt at a generation
// pinned a few queries earlier, which a swap may have compacted away
// meanwhile (ErrCompactedGen, a dropped sample); every other answer
// must equal the model's distance on that generation's graph.
func TestConcurrentQueriesDuringSwap(t *testing.T) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(50, 120, 23), 20, 24)
	d := New(exactBase{g}, g, 0)
	sch := NewScheduler(d, Policy{MaxJournal: 3, MaxPatchFraction: -1},
		func(ctx context.Context, mg *graph.Graph) (Querier, error) {
			return exactBase{mg}, nil
		})
	defer sch.Close()

	// A reader pins Generation(), which only ever reads a batch's last
	// generation: models holds the graph at each of them.
	models := map[uint64]*graph.Graph{0: g}
	type sample struct {
		gen  uint64
		s, t graph.V
		d    graph.Dist
	}
	samples := make([][]sample, 4)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w) + 100)
			n := g.NumVertices()
			var pinned uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s, u := r.Int31n(n), r.Int31n(n)
				if _, err := d.Query(s, u); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if i%16 == 0 {
					pinned = d.Generation()
				}
				got, err := d.ExactDistanceAt(pinned, s, u)
				switch {
				case errors.Is(err, ErrCompactedGen):
				case err != nil:
					t.Errorf("worker %d: ExactDistanceAt(%d): %v", w, pinned, err)
					return
				case len(samples[w]) < 4096:
					samples[w] = append(samples[w], sample{pinned, s, u, got})
				}
			}
		}(w)
	}
	for round := 0; round < 8; round++ {
		ups := randomUpdates(t, d, d.MutatedGraph(), 4, uint64(round)+700)
		gen, err := d.Apply(ups)
		if err != nil {
			t.Fatal(err)
		}
		models[gen] = d.MutatedGraph()
		sch.Notify()
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	for w := range samples {
		for _, sm := range samples[w] {
			if want := exactDist(models[sm.gen], sm.s, sm.t); sm.d != want {
				t.Fatalf("worker %d: ExactDistanceAt(%d, %d, %d) = %d, model %d", w, sm.gen, sm.s, sm.t, sm.d, want)
			}
		}
	}
	if err := sch.Force(context.Background()); err != nil {
		t.Fatal(err)
	}
	mg := d.MutatedGraph()
	r := rng.New(9)
	for q := 0; q < 20; q++ {
		s, u := r.Int31n(mg.NumVertices()), r.Int31n(mg.NumVertices())
		want := exactDist(mg, s, u)
		if got, err := d.Query(s, u); err != nil || got != want {
			t.Fatalf("quiescent (%d,%d) = %d (%v), want %d", s, u, got, err, want)
		}
	}
}

// TestPolicyDue covers each trigger arm.
func TestPolicyDue(t *testing.T) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(20, 40, 19), 10, 20)
	d := New(exactBase{g}, g, 0)
	if due, _ := (Policy{}).Due(d); due {
		t.Fatal("empty journal due")
	}
	if _, err := d.Apply(randomUpdates(t, d, g, 3, 61)); err != nil {
		t.Fatal(err)
	}
	if due, cause := (Policy{MaxJournal: 3, MaxPatchFraction: -1}).Due(d); !due || cause != "journal" {
		t.Fatalf("journal trigger: due=%v cause=%q", due, cause)
	}
	if due, cause := (Policy{MaxJournal: -1, MaxPatchFraction: 0.01}).Due(d); !due || cause != "patch-fraction" {
		t.Fatalf("patch trigger: due=%v cause=%q", due, cause)
	}
	if due, _ := (Policy{MaxJournal: -1, MaxPatchFraction: -1, MaxStaleness: time.Hour}).Due(d); due {
		t.Fatal("fresh journal already stale")
	}
	if due, cause := (Policy{MaxJournal: -1, MaxPatchFraction: -1, MaxStaleness: time.Nanosecond}).Due(d); !due || cause != "staleness" {
		t.Fatalf("staleness trigger: due=%v cause=%q", due, cause)
	}
}
