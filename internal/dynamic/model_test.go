package dynamic

import (
	"errors"
	"maps"
	"sort"
	"testing"

	"repro/internal/graph"
)

// FuzzOverlayModel runs the overlay through a bytecode program of
// mutation batches, pinned queries, rebuild swaps, and journal
// replays, and checks every observable against a from-scratch model:
// the pair state of every generation, materialized and searched with
// plain Dijkstra. A generation that diverges from the base must answer
// the exact distance; one that does not must answer the base querier's
// own value.
//
// Program layout: byte 0 picks the graph (bit 0: weighted ER or
// unweighted grid) and the initial base (bit 1: exactBase or
// skewBase); every later byte starts one op, op%6 selecting
//
//	0,1,2  insert / delete / reweight batch of 1-3 updates
//	3      QueryAt and ExactDistanceAt on every generation in the window
//	4      Swap at a generation in the window
//	5      Replay the journal into a fresh overlay
//
// with operands read from the following bytes (zero once exhausted).
func FuzzOverlayModel(f *testing.F) {
	// Opcodes, for writing the seed corpus. The ER graph's present
	// pairs sort as (0,6) (1,3) (1,6) (1,7) (1,8) (2,4) ...; (0,9),
	// (3,5), and (5,8) are absent. The grid's sort as (0,1) (0,4)
	// (1,2) (1,5) (2,3) ...; (0,11) and (3,8) are absent.
	const (
		ins, del, rw, qry, swp, rpl = 0, 1, 2, 3, 4, 5
		one, two, three             = 0, 1, 2 // batch sizes
		er, grid                    = 0, 1
		exact, skew                 = 0, 2
		byEnds                      = 0x80 // address a pair by its endpoints
	)
	for _, seed := range [][]byte{
		// Insert-only overlay, queried at every generation.
		{er | exact, ins, two, 0, 9, 2, 5, 8, 3, qry, 0, 9, qry, 3, 5},
		// The same on an approximate base.
		{er | skew, ins, one, 0, 9, 2, qry, 0, 9, qry, 4, 7},
		// Delete two base pairs, reweight one up and one down.
		{er | exact, del, two, 0, 3, rw, two, 1, 9, 2, 1, qry, 0, 5, qry, 8, 2},
		// Insert then delete the same pair: a no-op generation.
		{er | skew, ins, one, 0, 9, 4, del, one, byEnds, 0, 9, qry, 0, 9, qry, 5, 6},
		// Swap mid-window onto a skewed base, mutate on, replay.
		{er | exact, ins, one, 0, 1, 2, del, one, 5, swp, 1, 1, qry, 0, 4,
			ins, one, 3, 5, 1, qry, 2, 8, rpl, 3, 0, 0},
		// Swap at the latest generation, replay the empty journal.
		{er | skew, del, one, 2, swp, 1, 0, rpl, 0, 9, 1, qry, 1, 2},
		// Replay a mixed journal and keep serving from the replica.
		{er | exact, ins, two, 0, 9, 3, 3, 5, 2, rw, one, 7, 1, rpl, 0, 5, 1,
			del, one, 1, qry, 9, 5, swp, 2, 0, qry, 0, 3},
		// Unweighted grid: inserts (weight 0 means 1), a delete, a
		// rejected reweight, a rejected weight-2 insert.
		{grid | exact, ins, two, 0, 11, 1, 3, 8, 0, del, one, 4, rw, one, 0, 2,
			qry, 0, 11, ins, one, 0, 5, 2, qry, 3, 8},
		// Rejected batches: a self-loop, a zero weight, an absent pair.
		{er | exact, ins, two, 4, 4, 5, 0, 9, 2, rw, one, 3, 0,
			del, one, byEnds, 0, 9, qry, 0, 9, ins, one, 0, 9, 7, qry, 0, 9},
		// Unweighted grid on a skewed base: swaps and a kept replica.
		{grid | skew, del, three, 0, 5, 9, ins, one, 0, 11, 1, swp, 2, 1,
			qry, 0, 11, rpl, 1, 10, 1, del, one, byEnds, 0, 11, qry, 2, 9,
			swp, 9, 0, qry, 0, 3},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 128 {
			prog = prog[:128]
		}
		runOverlayModel(t, prog)
	})
}

// overlayModel is the reference the overlay is checked against.
type overlayModel struct {
	t        *testing.T
	prog     []byte
	d        *Oracle
	n        int32
	weighted bool
	// states[g] is the pair state at generation g, from gen 0 on.
	states []map[pairKey]graph.W
	floor  uint64
	base   Querier // the base querier of the current floor
}

// next returns the next program byte, or 0 once the program is spent.
func (m *overlayModel) next() byte {
	if len(m.prog) == 0 {
		return 0
	}
	b := m.prog[0]
	m.prog = m.prog[1:]
	return b
}

func (m *overlayModel) vertex() graph.V { return graph.V(int32(m.next()) % m.n) }

func (m *overlayModel) cur() uint64 { return uint64(len(m.states) - 1) }

// sortedPairs returns the pairs of a pair state in (a, b) order.
func sortedPairs(st map[pairKey]graph.W) []pairKey {
	keys := make([]pairKey, 0, len(st))
	for k := range st {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].a != keys[j].a {
			return keys[i].a < keys[j].a
		}
		return keys[i].b < keys[j].b
	})
	return keys
}

// materialize builds the graph of a pair state.
func (m *overlayModel) materialize(st map[pairKey]graph.W) *graph.Graph {
	keys := sortedPairs(st)
	edges := make([]graph.Edge, len(keys))
	for i, k := range keys {
		edges[i] = graph.Edge{U: k.a, V: k.b, W: st[k]}
	}
	return graph.FromEdges(m.n, edges, m.weighted)
}

func runOverlayModel(t *testing.T, prog []byte) {
	m := &overlayModel{t: t, prog: prog}
	sel := m.next()
	var g *graph.Graph
	if sel&1 == 0 {
		g = graph.UniformWeights(graph.RandomConnectedGNM(10, 15, 7), 9, 8)
	} else {
		g = graph.Grid2D(3, 4)
	}
	m.n, m.weighted = g.NumVertices(), g.Weighted()
	m.base = exactBase{g}
	if sel&2 != 0 {
		m.base = skewBase{g}
	}
	m.d = New(m.base, g, 0)
	m.states = []map[pairKey]graph.W{pairWeights(g)}
	for len(m.prog) > 0 {
		switch op := m.next() % 6; op {
		case 0, 1, 2:
			m.batch(Op(op))
		case 3:
			m.checkWindow(m.vertex(), m.vertex())
		case 4:
			m.swap()
		case 5:
			m.replay()
		}
		m.checkOverlayEdges()
	}
	m.checkWindow(0, graph.V(m.n-1))
}

// batch applies 1-3 updates of one kind, checking that the overlay
// accepts exactly the batches the model's validation accepts.
func (m *overlayModel) batch(op Op) {
	t := m.t
	st := maps.Clone(m.states[m.cur()])
	var ups []Update
	var after []map[pairKey]graph.W
	valid := true
	for i := int(m.next()%3) + 1; i > 0; i-- {
		var u Update
		switch op {
		case OpInsert:
			u = Update{Op: op, U: m.vertex(), V: m.vertex(), W: graph.W(m.next() % 10)}
			if !m.weighted {
				u.W %= 3
			}
		default:
			// High bit clear: address a present pair; set: any pair.
			if b := m.next(); b&0x80 == 0 && len(st) > 0 {
				keys := sortedPairs(st)
				k := keys[int(b)%len(keys)]
				u = Update{Op: op, U: k.a, V: k.b}
			} else {
				u = Update{Op: op, U: m.vertex(), V: m.vertex()}
			}
			if op == OpReweight {
				u.W = graph.W(m.next() % 10)
			}
		}
		ups = append(ups, u)
		k := keyOf(u.U, u.V)
		_, present := st[k]
		w := u.W
		if !m.weighted && op == OpInsert && w == 0 {
			w = 1
		}
		switch {
		case u.U == u.V:
			valid = false
		case op == OpInsert:
			valid = valid && !present && w > 0 && (m.weighted || w == 1)
			st[k] = w
		case op == OpDelete:
			valid = valid && present
			delete(st, k)
		case op == OpReweight:
			valid = valid && present && m.weighted && w > 0
			st[k] = w
		}
		after = append(after, maps.Clone(st))
	}
	gen, err := m.d.Apply(ups)
	if !valid {
		if !errors.Is(err, ErrBadUpdate) {
			t.Fatalf("Apply(%v): err = %v, want ErrBadUpdate", ups, err)
		}
		if g := m.d.Generation(); g != m.cur() {
			t.Fatalf("rejected batch moved the generation to %d, want %d", g, m.cur())
		}
		return
	}
	if err != nil {
		t.Fatalf("Apply(%v): %v", ups, err)
	}
	m.states = append(m.states, after...)
	if gen != m.cur() {
		t.Fatalf("Apply returned generation %d, want %d", gen, m.cur())
	}
}

// checkWindow checks QueryAt and ExactDistanceAt for (s, t) at every
// generation in [floor, cur], the regime at cur, and the typed errors
// just outside the window.
func (m *overlayModel) checkWindow(s, u graph.V) {
	t := m.t
	cur := m.cur()
	for gen := m.floor; gen <= cur; gen++ {
		mg := m.materialize(m.states[gen])
		exact := graph.Dist(0)
		if s != u {
			exact = exactDist(mg, s, u)
		}
		dirty := !maps.Equal(m.states[gen], m.states[m.floor])
		want := exact
		if !dirty && s != u {
			want, _ = m.base.Query(s, u)
		}
		got, err := m.d.QueryAt(gen, s, u)
		if err != nil || got != want {
			t.Fatalf("QueryAt(%d, %d, %d) = %d (%v), want %d (dirty=%v, floor=%d)", gen, s, u, got, err, want, dirty, m.floor)
		}
		if got, err := m.d.ExactDistanceAt(gen, s, u); err != nil || got != exact {
			t.Fatalf("ExactDistanceAt(%d, %d, %d) = %d (%v), want %d", gen, s, u, got, err, exact)
		}
		if gen == cur {
			wantReg := "clean"
			if dirty {
				wantReg = "degrading"
			}
			if reg, rgen := m.d.Regime(); reg != wantReg || rgen != cur {
				t.Fatalf("Regime() = (%q, %d), want (%q, %d)", reg, rgen, wantReg, cur)
			}
			if got, err := m.d.Query(s, u); err != nil || got != want {
				t.Fatalf("Query(%d, %d) = %d (%v), want %d", s, u, got, err, want)
			}
		}
	}
	if _, err := m.d.QueryAt(cur+1, s, u); !errors.Is(err, ErrFutureGen) {
		t.Fatalf("QueryAt(cur+1): err = %v, want ErrFutureGen", err)
	}
	if _, err := m.d.ExactDistanceAt(cur+1, s, u); !errors.Is(err, ErrFutureGen) {
		t.Fatalf("ExactDistanceAt(cur+1): err = %v, want ErrFutureGen", err)
	}
	if m.floor > 0 {
		if _, err := m.d.QueryAt(m.floor-1, s, u); !errors.Is(err, ErrCompactedGen) {
			t.Fatalf("QueryAt(floor-1): err = %v, want ErrCompactedGen", err)
		}
		if _, err := m.d.ExactDistanceAt(m.floor-1, s, u); !errors.Is(err, ErrCompactedGen) {
			t.Fatalf("ExactDistanceAt(floor-1): err = %v, want ErrCompactedGen", err)
		}
	}
}

// checkOverlayEdges checks OverlayEdges and Gauges against the
// model's count of pairs whose state at the latest generation differs
// from the base's.
func (m *overlayModel) checkOverlayEdges() {
	cur, base := m.states[m.cur()], m.states[m.floor]
	want := 0
	for k, w := range cur {
		if bw, ok := base[k]; !ok || bw != w {
			want++
		}
	}
	for k := range base {
		if _, ok := cur[k]; !ok {
			want++
		}
	}
	if got := m.d.OverlayEdges(); got != want {
		m.t.Fatalf("OverlayEdges() = %d, want %d", got, want)
	}
	if got := m.d.Gauges().OverlayEdges; got != want {
		m.t.Fatalf("Gauges().OverlayEdges = %d, want %d", got, want)
	}
}

// swap rebuilds at a generation in the window: the new base answers
// on MutatedGraphAt, exactly (even operand) or skewed (odd).
func (m *overlayModel) swap() {
	t := m.t
	upTo := m.floor + uint64(m.next())%(m.cur()-m.floor+1)
	kind := m.next()
	mg, err := m.d.MutatedGraphAt(upTo)
	if err != nil {
		t.Fatalf("MutatedGraphAt(%d): %v", upTo, err)
	}
	if !maps.Equal(pairWeights(mg), m.states[upTo]) {
		t.Fatalf("MutatedGraphAt(%d) disagrees with the model", upTo)
	}
	var base Querier = exactBase{mg}
	if kind&1 != 0 {
		base = skewBase{mg}
	}
	if err := m.d.Swap(base, mg, upTo); err != nil {
		t.Fatalf("Swap(%d): %v", upTo, err)
	}
	m.floor, m.base = upTo, base
	if fg, p := m.d.FloorGen(), m.d.Pending(); fg != upTo || uint64(p) != m.cur()-upTo {
		t.Fatalf("after Swap(%d): FloorGen %d, Pending %d, want %d, %d", upTo, fg, p, upTo, m.cur()-upTo)
	}
}

// replay restores the journal into a fresh overlay on the same base
// and checks that it answers like the original at every generation;
// an odd operand keeps serving from the replica.
func (m *overlayModel) replay() {
	t := m.t
	s, u, keep := m.vertex(), m.vertex(), m.next()
	base, baseG, floor, journal := m.d.PersistState()
	fresh := New(base, baseG, floor)
	if err := fresh.Replay(journal); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if g := fresh.Generation(); g != m.cur() {
		t.Fatalf("replayed generation %d, want %d", g, m.cur())
	}
	for gen := m.floor; gen <= m.cur(); gen++ {
		a, err1 := m.d.QueryAt(gen, s, u)
		b, err2 := fresh.QueryAt(gen, s, u)
		if err1 != nil || err2 != nil || a != b {
			t.Fatalf("replica diverges at gen %d (%d,%d): %d vs %d (%v, %v)", gen, s, u, a, b, err1, err2)
		}
	}
	if keep&1 != 0 {
		m.d = fresh
	}
}
