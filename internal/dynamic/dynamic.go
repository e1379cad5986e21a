// Package dynamic adds live mutation support to the
// preprocess-once/query-many pipeline: a versioned delta-overlay on
// top of a built (static) distance oracle. Edge insertions, deletions,
// and reweights append to an in-memory journal — each stamped with a
// monotonically increasing generation — and queries answer against
// the mutated graph without rebuilding the base oracle. A rebuild
// scheduler (scheduler.go) folds the journal back into a fresh base
// oracle in the background and atomically swaps generations.
//
// # Query semantics and bound
//
// Let G be the base graph the current static oracle was built on
// (generation = FloorGen) and G'(g) the graph after applying every
// journal entry with generation ≤ g. QueryAt(g, s, t) answers
// d_{G'(g)}(s, t) in one of two regimes:
//
//   - Clean (no pair's state at g diverges from G, e.g. an empty
//     journal or an insert that was deleted again): G'(g) = G, so the
//     base oracle answers directly: exactly for an exact base, within
//     its stretch envelope for a hopset base.
//
//   - Degrading (some pair is inserted, deleted, or reweighted
//     relative to G): the answer is an exact point-to-point Dijkstra
//     on sssp's radix heap over the patched adjacency (base CSR, with
//     per-edge patch resolution at the endpoints of patched pairs,
//     plus net-inserted overlay arcs):
//
//     answer = d_{G'}
//
//     The overlay adds zero approximation error, paid for with query
//     work proportional to the searched ball (plus one O(n) scratch
//     reset). The rebuild policy bounds how long this regime lasts.
//
// After the scheduler's rebuild completes at generation g*, queries
// at g ≥ g* answer through a from-scratch oracle on G'(g*) and match
// it bit-for-bit.
//
// # Cost of a commit
//
// Apply costs O(batch·degree): it resolves only the batch's distinct
// pairs against the base adjacency, and for those pairs alone moves
// the latest generation's count of diverging pairs and its net-insert
// arcs. OverlayEdges, Gauges and Regime read that count in O(1). Full
// rescans of the patch set remain only in Swap, which changes the
// base every pair compares against, and in QueryAt / ExactDistanceAt
// at a historical generation.
//
// # Pair semantics
//
// Mutations address vertex PAIRS, not edge ids: deleting (u,v)
// removes every parallel base edge between u and v, reweighting sets
// the pair's single surviving weight, inserting requires the pair to
// be currently absent. The vertex set is fixed at the base graph's;
// mutations never add vertices. Unweighted base graphs accept only
// weight-1 insertions and no reweights (an unweighted graph stays
// unweighted across its whole dynamic life).
package dynamic

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// Op is a mutation kind.
type Op uint8

const (
	// OpInsert adds a currently-absent pair edge.
	OpInsert Op = iota
	// OpDelete removes a currently-present pair edge.
	OpDelete
	// OpReweight changes a currently-present pair edge's weight.
	OpReweight
)

// String returns the wire name of the op ("insert"/"delete"/"reweight").
func (op Op) String() string {
	switch op {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpReweight:
		return "reweight"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// ParseOp is the inverse of Op.String.
func ParseOp(s string) (Op, error) {
	switch s {
	case "insert":
		return OpInsert, nil
	case "delete":
		return OpDelete, nil
	case "reweight":
		return OpReweight, nil
	default:
		return 0, fmt.Errorf("dynamic: unknown op %q", s)
	}
}

// Update is one requested mutation. W is ignored for OpDelete; for an
// unweighted base graph W must be 0 or 1 on OpInsert.
type Update struct {
	Op   Op
	U, V graph.V
	W    graph.W
}

// Entry is one applied mutation: the update plus its generation stamp
// and apply time (the staleness clock; not persisted).
type Entry struct {
	Update
	Gen     uint64
	Applied time.Time
}

// Typed errors.
var (
	// ErrCompactedGen: QueryAt asked for a generation older than the
	// current base oracle (the journal below it was compacted away).
	ErrCompactedGen = errors.New("dynamic: generation compacted into the base oracle")
	// ErrFutureGen: QueryAt asked for a generation not yet applied.
	ErrFutureGen = errors.New("dynamic: generation not yet applied")
	// ErrBadUpdate wraps every mutation validation failure.
	ErrBadUpdate = errors.New("dynamic: invalid update")
)

func badUpdatef(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadUpdate, fmt.Sprintf(format, args...))
}

// Querier is the slice of the static oracle the overlay composes
// with: point-to-point distances on the base graph, exact or (for a
// hopset oracle) within its stretch envelope. Implementations must be
// safe for concurrent use and deterministic (the same (s,t) always
// returns the same answer).
type Querier interface {
	Query(s, t graph.V) (graph.Dist, error)
}

// pairKey is a canonical (min,max) vertex pair.
type pairKey struct{ a, b graph.V }

func keyOf(u, v graph.V) pairKey {
	if u > v {
		u, v = v, u
	}
	return pairKey{a: u, b: v}
}

// ver is one absolute pair state at a generation: either deleted or
// present with weight w. States are absolute (not diffs), so they
// survive a base swap unchanged: "state of pair at gen g" is the
// latest ver with Gen ≤ g, falling back to the base graph.
type ver struct {
	gen     uint64
	deleted bool
	w       graph.W
}

// pairState resolves a pair against base + history.
type pairState struct {
	present bool
	w       graph.W
}

// Oracle is the dynamic overlay engine: a static base Querier plus
// the versioned patch set. All methods are safe for concurrent use;
// queries proceed under a read lock so mutation batches and rebuild
// swaps serialize against them.
type Oracle struct {
	mu sync.RWMutex

	base  Querier
	baseG *graph.Graph

	floorGen uint64 // generation the base oracle reflects
	curGen   uint64 // latest applied generation

	entries []Entry           // pending journal, ascending Gen
	patch   map[pairKey][]ver // per-pair absolute state history, ascending gen

	// curDiverging/curIns are the current generation's regime and the
	// net-insert adjacency the exact search walks — the values every
	// Query (the overwhelmingly common gen == curGen case) needs.
	// curDiverging counts the pairs whose state at curGen differs from
	// the base graph (the overlay is clean iff it is 0, and it is what
	// OverlayEdges and Gauges report in O(1)); curIns holds the arcs of
	// the pairs present at curGen and absent from the base. Apply moves
	// both for the batch's distinct pairs only, so a commit costs
	// O(batch·degree) base-adjacency reads whatever the journal's
	// length. Full rescans remain only in Swap, which changes the base
	// every pair compares against, and at historical QueryAt /
	// ExactDistanceAt generations (dirtyAtLocked, insAdjLocked).
	curDiverging int
	curIns       map[graph.V][]arc

	// baseArcReads counts the base arcs basePairLocked has scanned —
	// the base-adjacency work of pair resolution, which tests pin per
	// commit. Atomic: historical queries resolve pairs under the read
	// lock.
	baseArcReads atomic.Int64

	// touched[v] reports whether v is an endpoint of some pair in
	// patch, at any generation: the exact search relaxes every other
	// vertex straight from the base CSR. Apply marks a batch's pairs;
	// Swap, which drops pairs, rebuilds it.
	touched []bool
}

// New wraps a built static oracle (base, answering distances on
// baseG) into a dynamic overlay starting at floorGen with an empty
// journal.
func New(base Querier, baseG *graph.Graph, floorGen uint64) *Oracle {
	return &Oracle{
		base:     base,
		baseG:    baseG,
		floorGen: floorGen,
		curGen:   floorGen,
		patch:    map[pairKey][]ver{},
		curIns:   map[graph.V][]arc{},
		touched:  make([]bool, baseG.NumVertices()),
	}
}

// Generation returns the latest applied generation.
func (d *Oracle) Generation() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.curGen
}

// FloorGen returns the generation the current base oracle reflects;
// QueryAt accepts generations in [FloorGen, Generation].
func (d *Oracle) FloorGen() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.floorGen
}

// Pending returns the number of journal entries not yet absorbed by a
// rebuild.
func (d *Oracle) Pending() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.entries)
}

// OverlayEdges returns how many pairs currently diverge from the base
// graph (net inserts, deletes, and reweights at the latest
// generation). O(1): Apply keeps the count.
func (d *Oracle) OverlayEdges() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.curDiverging
}

// Gauges is a mutually consistent snapshot of the overlay's
// observability gauges, taken under one lock acquisition so a
// concurrent Apply or Swap cannot tear it (e.g. a generation from
// before a swap paired with a pending count from after).
type Gauges struct {
	Generation    uint64
	FloorGen      uint64
	Pending       int
	OverlayEdges  int
	OldestPending time.Time
}

// Gauges snapshots the observability gauges atomically.
func (d *Oracle) Gauges() Gauges {
	d.mu.RLock()
	defer d.mu.RUnlock()
	g := Gauges{
		Generation:   d.curGen,
		FloorGen:     d.floorGen,
		Pending:      len(d.entries),
		OverlayEdges: d.curDiverging,
	}
	if len(d.entries) > 0 {
		g.OldestPending = d.entries[0].Applied
	}
	return g
}

// Regime classifies the query path the latest generation dispatches
// to — the label request traces carry: "clean" (no divergence from
// the base, queries hit the base oracle directly) or "degrading"
// (diverges from the base; answered by the exact patched search).
// Returns the latest applied generation alongside. Mirrors
// queryRLocked's dispatch exactly.
func (d *Oracle) Regime() (string, uint64) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.curDiverging > 0 {
		return "degrading", d.curGen
	}
	return "clean", d.curGen
}

// OldestPending returns the apply time of the oldest journal entry
// (zero time when the journal is empty) — the staleness clock.
func (d *Oracle) OldestPending() time.Time {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if len(d.entries) == 0 {
		return time.Time{}
	}
	return d.entries[0].Applied
}

// Base returns the current base Querier (after a rebuild swap this is
// the freshly built oracle).
func (d *Oracle) Base() Querier {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.base
}

// BaseGraph returns the graph the current base oracle answers on.
func (d *Oracle) BaseGraph() *graph.Graph {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.baseG
}

// Journal returns a copy of the pending journal (persistence).
func (d *Oracle) Journal() []Entry {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return append([]Entry(nil), d.entries...)
}

// PersistState returns a mutually consistent snapshot of (base
// querier, base graph, floor generation, pending journal) under one
// lock acquisition — the tuple persistence must capture atomically so
// a rebuild swap can never interleave between reading the oracle and
// reading its journal.
func (d *Oracle) PersistState() (Querier, *graph.Graph, uint64, []Entry) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.base, d.baseG, d.floorGen, append([]Entry(nil), d.entries...)
}

// basePairLocked resolves a pair against the base graph only:
// presence and (minimum, for parallel edges) weight. O(min degree).
func (d *Oracle) basePairLocked(k pairKey) pairState {
	u, v := k.a, k.b
	if d.baseG.Degree(v) < d.baseG.Degree(u) {
		u, v = v, u
	}
	wide := d.baseG.Wide(u)
	arcs := d.baseG.Arcs(u)
	d.baseArcReads.Add(int64(len(arcs)))
	st := pairState{}
	for i, a := range arcs {
		if a.To != v {
			continue
		}
		w := graph.W(a.W)
		if wide != nil {
			w = wide[i]
		}
		if !st.present || w < st.w {
			st = pairState{present: true, w: w}
		}
	}
	return st
}

// state is the pair state version v sets.
func (v ver) state() pairState {
	if v.deleted {
		return pairState{}
	}
	return pairState{present: true, w: v.w}
}

// divergesLocked reports whether version v differs from the pair's
// base state (a deleted-then-reinserted-at-base-weight pair does not
// diverge).
func (d *Oracle) divergesLocked(k pairKey, v ver) bool {
	return v.state() != d.basePairLocked(k)
}

// Apply validates and applies a batch of updates atomically: either
// every update commits (each with its own fresh generation, in order)
// or none does and the error names the first offender. Returns the
// last generation of the batch.
func (d *Oracle) Apply(us []Update) (uint64, error) {
	if len(us) == 0 {
		return d.Generation(), nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.baseG.NumVertices()
	weighted := d.baseG.Weighted()

	// Stage: per distinct pair of the batch, its base state, its
	// committed state and its net state as the batch validates in
	// order. The latest version of a pair's history is its committed
	// state: every version's gen is ≤ curGen.
	stage := map[pairKey]*pairStage{}
	stateOf := func(k pairKey) *pairStage {
		if ps, ok := stage[k]; ok {
			return ps
		}
		ps := &pairStage{base: d.basePairLocked(k)}
		ps.before = ps.base
		if hist := d.patch[k]; len(hist) > 0 {
			ps.before = hist[len(hist)-1].state()
		}
		ps.after = ps.before
		stage[k] = ps
		return ps
	}
	staged := make([]ver, 0, len(us))
	keys := make([]pairKey, 0, len(us))
	wCap := graph.WeightCap(n)
	for i := range us {
		u := us[i]
		if u.U < 0 || u.U >= n || u.V < 0 || u.V >= n {
			return 0, badUpdatef("update %d: endpoint (%d,%d) out of range n=%d", i, u.U, u.V, n)
		}
		if u.U == u.V {
			return 0, badUpdatef("update %d: self-loop at %d", i, u.U)
		}
		k := keyOf(u.U, u.V)
		ps := stateOf(k)
		st := ps.after
		var nv ver
		switch u.Op {
		case OpInsert:
			if st.present {
				return 0, badUpdatef("update %d: insert (%d,%d): edge already present (use reweight)", i, u.U, u.V)
			}
			w := u.W
			if !weighted {
				if w != 0 && w != 1 {
					return 0, badUpdatef("update %d: insert (%d,%d): weight %d into an unweighted graph", i, u.U, u.V, w)
				}
				w = 1
			}
			if w <= 0 || w > wCap {
				return 0, badUpdatef("update %d: insert (%d,%d): weight %d outside [1, %d]", i, u.U, u.V, w, wCap)
			}
			nv = ver{w: w}
		case OpDelete:
			if !st.present {
				return 0, badUpdatef("update %d: delete (%d,%d): edge not present", i, u.U, u.V)
			}
			nv = ver{deleted: true}
		case OpReweight:
			if !weighted {
				return 0, badUpdatef("update %d: reweight (%d,%d): graph is unweighted", i, u.U, u.V)
			}
			if !st.present {
				return 0, badUpdatef("update %d: reweight (%d,%d): edge not present", i, u.U, u.V)
			}
			if u.W <= 0 || u.W > wCap {
				return 0, badUpdatef("update %d: reweight (%d,%d): weight %d outside [1, %d]", i, u.U, u.V, u.W, wCap)
			}
			nv = ver{w: u.W}
		default:
			return 0, badUpdatef("update %d: unknown op %d", i, u.Op)
		}
		ps.after = nv.state()
		staged = append(staged, nv)
		keys = append(keys, k)
	}

	// Commit: one generation per update, in batch order. The journal
	// stores the NORMALIZED update (insert weight resolved to 1 on
	// unweighted graphs, delete weight zeroed): the journal is
	// persisted and replayed by the strict snapshot decoder, which
	// rejects e.g. a w=0 insert a caller legitimately sent.
	now := time.Now()
	for i := range us {
		d.curGen++
		v := staged[i]
		v.gen = d.curGen
		d.patch[keys[i]] = append(d.patch[keys[i]], v)
		d.touched[keys[i].a], d.touched[keys[i].b] = true, true
		up := us[i]
		if up.Op == OpDelete {
			up.W = 0
		} else {
			up.W = v.w
		}
		d.entries = append(d.entries, Entry{Update: up, Gen: d.curGen, Applied: now})
	}
	for k, ps := range stage {
		if ps.before == ps.after {
			continue
		}
		d.movePairLocked(k, ps.base, ps.before, -1)
		d.movePairLocked(k, ps.base, ps.after, +1)
	}
	return d.curGen, nil
}

// pairStage is one pair's staging during Apply.
type pairStage struct{ base, before, after pairState }

// movePairLocked adds (sign +1) or removes (sign −1) pair k in state st
// to or from the current generation's caches: a state that differs
// from base counts in curDiverging, and a state present at curGen but
// absent from the base owns an arc at each endpoint in curIns. d.mu
// held for writing.
func (d *Oracle) movePairLocked(k pairKey, base, st pairState, sign int) {
	if st != base {
		d.curDiverging += sign
	}
	if !st.present || base.present {
		return
	}
	if sign > 0 {
		addArcs(d.curIns, k, st.w)
		return
	}
	dropArc(d.curIns, k.a, k.b)
	dropArc(d.curIns, k.b, k.a)
}

// addArcs adds pair k's arc at each endpoint to ins, with weight w.
func addArcs(ins map[graph.V][]arc, k pairKey, w graph.W) {
	ins[k.a] = append(ins[k.a], arc{u: k.a, v: k.b, w: w})
	ins[k.b] = append(ins[k.b], arc{u: k.b, v: k.a, w: w})
}

// dropArc removes u's arc to v from ins.
func dropArc(ins map[graph.V][]arc, u, v graph.V) {
	arcs := ins[u]
	for i := range arcs {
		if arcs[i].v == v {
			arcs[i] = arcs[len(arcs)-1]
			arcs = arcs[:len(arcs)-1]
			break
		}
	}
	if len(arcs) == 0 {
		delete(ins, u)
		return
	}
	ins[u] = arcs
}

// recountLocked rebuilds curDiverging and curIns from the whole patch
// set: Swap's one full rescan. d.mu held for writing.
func (d *Oracle) recountLocked() {
	d.curDiverging = 0
	d.curIns = map[graph.V][]arc{}
	for k, hist := range d.patch {
		d.movePairLocked(k, d.basePairLocked(k), hist[len(hist)-1].state(), +1)
	}
}

// Replay re-applies a persisted journal (snapshot warm start) as ONE
// batched Apply — a long journal replays in O(J + |patch|), not
// per-entry rescans. The entries must be gen-ascending and start
// above the current generation; the overlay adopts their stamps
// verbatim so a restored oracle reports the same generation it was
// saved at. Apply times are reset to now (staleness restarts with the
// process).
func (d *Oracle) Replay(entries []Entry) error {
	if len(entries) == 0 {
		return nil
	}
	prev := d.Generation()
	start := prev
	ups := make([]Update, len(entries))
	for i, e := range entries {
		if e.Gen <= prev {
			return badUpdatef("replay: journal generations not ascending at %d", e.Gen)
		}
		prev = e.Gen
		ups[i] = e.Update
	}
	if _, err := d.Apply(ups); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	// Apply stamped the batch start+1 .. start+len; rewrite every
	// stamp (journal tail and pair-history versions) to the persisted
	// generations. The mapping is order-preserving, so histories stay
	// gen-ascending and the graph state at any stamped generation is
	// unchanged.
	d.mu.Lock()
	defer d.mu.Unlock()
	remap := func(gen uint64) uint64 {
		if gen <= start {
			return gen
		}
		return entries[gen-start-1].Gen
	}
	tail := d.entries[len(d.entries)-len(entries):]
	for i := range tail {
		tail[i].Gen = remap(tail[i].Gen)
	}
	for _, hist := range d.patch {
		for i := range hist {
			hist[i].gen = remap(hist[i].gen)
		}
	}
	d.curGen = entries[len(entries)-1].Gen
	return nil
}

// dirtyAtLocked reports whether any pair's state at generation g
// diverges from the base graph — the generations the exact patched
// search answers. It stops at the first diverging pair.
func (d *Oracle) dirtyAtLocked(g uint64) bool {
	for k, hist := range d.patch {
		i := sort.Search(len(hist), func(i int) bool { return hist[i].gen > g })
		if i > 0 && d.divergesLocked(k, hist[i-1]) {
			return true
		}
	}
	return false
}

// checkGenLocked validates a query generation.
func (d *Oracle) checkGenLocked(g uint64) error {
	if g < d.floorGen {
		return fmt.Errorf("%w: generation %d < base %d", ErrCompactedGen, g, d.floorGen)
	}
	if g > d.curGen {
		return fmt.Errorf("%w: generation %d > current %d", ErrFutureGen, g, d.curGen)
	}
	return nil
}

// Query estimates the s-t distance on the latest generation's graph.
// It resolves the generation under the same lock acquisition the
// query runs under, so a rebuild swap between "read curGen" and "run
// the query" can never surface as a spurious ErrCompactedGen.
func (d *Oracle) Query(s, t graph.V) (graph.Dist, error) {
	d.mu.RLock()
	return d.queryRLocked(d.curGen, s, t)
}

// QueryAt estimates the s-t distance on G'(gen), the base graph with
// every journal entry of generation ≤ gen applied. gen must lie in
// [FloorGen, Generation]. See the package comment for the bound.
func (d *Oracle) QueryAt(gen uint64, s, t graph.V) (graph.Dist, error) {
	d.mu.RLock()
	return d.queryRLocked(gen, s, t)
}

// queryRLocked is the query body; the caller holds d.mu for reading
// and EVERY return path releases it.
func (d *Oracle) queryRLocked(gen uint64, s, t graph.V) (graph.Dist, error) {
	if err := d.checkGenLocked(gen); err != nil {
		d.mu.RUnlock()
		return 0, err
	}
	n := d.baseG.NumVertices()
	if s < 0 || s >= n || t < 0 || t >= n {
		d.mu.RUnlock()
		return 0, fmt.Errorf("dynamic: query (%d,%d) out of range n=%d", s, t, n)
	}
	if s == t {
		d.mu.RUnlock()
		return 0, nil
	}
	// The common case queries the latest generation, whose regime is
	// precomputed; historical generations rescan.
	dirty := d.curDiverging > 0
	if gen != d.curGen {
		dirty = d.dirtyAtLocked(gen)
	}
	if !dirty {
		// Capture the base under the lock: a concurrent Swap may
		// replace it once the lock is released.
		base := d.base
		d.mu.RUnlock()
		return base.Query(s, t)
	}
	// Exact search on the patched adjacency (still under the read
	// lock — mutations wait).
	dist := d.exactPatchedLocked(gen, s, t, nil)
	d.mu.RUnlock()
	return dist, nil
}

// ExactDistanceAt computes the exact s-t distance on G'(gen) with a
// point-to-point Dijkstra over the patched adjacency — the same search
// the degrading regime serves from, run unconditionally regardless of
// the generation's regime. Unlike QueryAt it never routes through the
// base oracle, so it is an independent search whatever the base's
// engine: this is the ground truth the serving layer's answer-quality
// auditor re-checks sampled answers against. Returns
// graph.InfDist for disconnected pairs. gen must lie in
// [FloorGen, Generation] (ErrCompactedGen / ErrFutureGen otherwise —
// an auditor holding a generation a rebuild compacted away must treat
// that as a dropped sample, never a violation). Cost is one O(n)
// scratch reset plus the searched ball; callers budget accordingly.
func (d *Oracle) ExactDistanceAt(gen uint64, s, t graph.V) (graph.Dist, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if err := d.checkGenLocked(gen); err != nil {
		return 0, err
	}
	n := d.baseG.NumVertices()
	if s < 0 || s >= n || t < 0 || t >= n {
		return 0, fmt.Errorf("dynamic: query (%d,%d) out of range n=%d", s, t, n)
	}
	if s == t {
		return 0, nil
	}
	return d.exactPatchedLocked(gen, s, t, nil), nil
}

// Swap installs a freshly built base oracle reflecting G'(upTo):
// journal entries with gen ≤ upTo are compacted away and pair
// histories drop versions the new base already embodies. newG must be
// the materialization the new base was built on (MutatedGraphAt(upTo)).
func (d *Oracle) Swap(base Querier, newG *graph.Graph, upTo uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if upTo < d.floorGen || upTo > d.curGen {
		return fmt.Errorf("dynamic: swap at generation %d outside [%d,%d]", upTo, d.floorGen, d.curGen)
	}
	d.base = base
	d.baseG = newG
	d.floorGen = upTo
	// Drop compacted journal entries.
	i := sort.Search(len(d.entries), func(i int) bool { return d.entries[i].Gen > upTo })
	d.entries = append([]Entry(nil), d.entries[i:]...)
	// Drop pair versions the new base embodies.
	for k, hist := range d.patch {
		j := sort.Search(len(hist), func(i int) bool { return hist[i].gen > upTo })
		if j == len(hist) {
			delete(d.patch, k)
			continue
		}
		d.patch[k] = append([]ver(nil), hist[j:]...)
	}
	clear(d.touched)
	for k := range d.patch {
		d.touched[k.a], d.touched[k.b] = true, true
	}
	d.recountLocked()
	return nil
}

// MutatedGraph materializes the latest generation's graph. The
// generation resolves under the same lock the materialization runs
// under (a swap in between cannot invalidate it).
func (d *Oracle) MutatedGraph() *graph.Graph {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.materializeLocked(d.curGen)
}

// MutatedGraphAt materializes G'(gen) as a fresh graph: base edges in
// their canonical order with deleted pairs dropped and reweighted
// pairs' weight replaced at their first occurrence (parallel
// duplicates of a patched pair are dropped), then net-inserted pairs
// appended in (u,v) order. The construction is deterministic, so two
// overlays that applied the same updates materialize CSR-identical
// graphs — the contract the rebuild differential tests rely on.
func (d *Oracle) MutatedGraphAt(gen uint64) (*graph.Graph, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if err := d.checkGenLocked(gen); err != nil {
		return nil, err
	}
	return d.materializeLocked(gen), nil
}

// materializeLocked builds G'(gen); d.mu held, gen already validated.
func (d *Oracle) materializeLocked(gen uint64) *graph.Graph {
	base := d.baseG
	edges := make([]graph.Edge, 0, int64(len(base.Edges()))+int64(len(d.patch)))
	emitted := map[pairKey]bool{}
	for _, e := range base.Edges() {
		k := keyOf(e.U, e.V)
		hist := d.patch[k]
		i := sort.Search(len(hist), func(i int) bool { return hist[i].gen > gen })
		if i == 0 {
			edges = append(edges, e)
			continue
		}
		v := hist[i-1]
		if v.deleted || emitted[k] {
			continue
		}
		emitted[k] = true
		edges = append(edges, graph.Edge{U: e.U, V: e.V, W: v.w})
	}
	// Net inserts: pairs present at gen but absent from base.
	var ins []graph.Edge
	for k, hist := range d.patch {
		i := sort.Search(len(hist), func(i int) bool { return hist[i].gen > gen })
		if i == 0 {
			continue
		}
		v := hist[i-1]
		if v.deleted || d.basePairLocked(k).present {
			continue
		}
		ins = append(ins, graph.Edge{U: k.a, V: k.b, W: v.w})
	}
	sort.Slice(ins, func(i, j int) bool {
		if ins[i].U != ins[j].U {
			return ins[i].U < ins[j].U
		}
		return ins[i].V < ins[j].V
	})
	edges = append(edges, ins...)
	return graph.FromEdges(base.NumVertices(), edges, base.Weighted())
}
