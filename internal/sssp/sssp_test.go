package sssp

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/rng"
)

func TestBFSPath(t *testing.T) {
	g := graph.Path(6)
	res := BFS(g, []graph.V{0}, Options{})
	for v := graph.V(0); v < 6; v++ {
		if res.Dist[v] != graph.Dist(v) {
			t.Fatalf("dist[%d] = %d, want %d", v, res.Dist[v], v)
		}
	}
	p := res.PathTo(5)
	if len(p) != 6 || p[0] != 0 || p[5] != 5 {
		t.Fatalf("path to 5 = %v", p)
	}
}

func TestBFSMultiSource(t *testing.T) {
	g := graph.Path(10)
	res := BFS(g, []graph.V{0, 9}, Options{})
	if res.Dist[4] != 4 || res.Dist[5] != 4 {
		t.Fatalf("multi-source dist = %d, %d", res.Dist[4], res.Dist[5])
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}}, false)
	res := BFS(g, []graph.V{0}, Options{})
	if res.Reached(2) || res.Reached(3) {
		t.Fatal("reached disconnected vertices")
	}
	if res.PathTo(3) != nil {
		t.Fatal("path to unreached vertex should be nil")
	}
}

func TestBFSMaxDist(t *testing.T) {
	g := graph.Path(10)
	res := BFS(g, []graph.V{0}, Options{MaxDist: 3})
	if res.Dist[3] != 3 {
		t.Fatalf("dist[3] = %d", res.Dist[3])
	}
	if res.Reached(4) {
		t.Fatal("BFS went beyond MaxDist")
	}
}

func TestBFSMarkRestriction(t *testing.T) {
	// Cycle of 6; restrict to {0,1,2,3}: distance 0->3 is 3 not 3 via
	// other side (blocked by marks).
	g := graph.Cycle(6)
	mark := []int32{7, 7, 7, 7, 0, 0}
	res := BFS(g, []graph.V{0}, Options{Mark: mark, Token: 7})
	if res.Dist[3] != 3 {
		t.Fatalf("restricted dist[3] = %d, want 3", res.Dist[3])
	}
	if res.Reached(4) || res.Reached(5) {
		t.Fatal("BFS escaped the marked set")
	}
}

func TestBFSDepthEqualsLevels(t *testing.T) {
	g := graph.Path(100)
	cost := par.NewCost()
	BFS(g, []graph.V{0}, Options{Cost: cost})
	// 99 productive levels plus the final round that discovers the
	// frontier is exhausted.
	if d := cost.Depth(); d != 100 {
		t.Fatalf("BFS depth = %d, want 100 rounds", d)
	}
}

func TestDialSimpleWeighted(t *testing.T) {
	//  0 --5-- 1 --1-- 2   and a long direct 0--7--2
	g := graph.FromEdges(3, []graph.Edge{
		{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 7},
	}, true)
	res := Dial(g, []graph.V{0}, Options{})
	if res.Dist[2] != 6 {
		t.Fatalf("dist[2] = %d, want 6", res.Dist[2])
	}
	if res.Parent[2] != 1 {
		t.Fatalf("parent[2] = %d, want 1", res.Parent[2])
	}
}

func TestDialMatchesDijkstra(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		g := graph.UniformWeights(graph.RandomConnectedGNM(300, 900, seed), 20, seed^11)
		d1 := Dial(g, []graph.V{0}, Options{})
		d2 := Dijkstra(g, []graph.V{0}, Options{})
		for v := range d1.Dist {
			if d1.Dist[v] != d2.Dist[v] {
				t.Fatalf("seed %d: Dial %d vs Dijkstra %d at vertex %d",
					seed, d1.Dist[v], d2.Dist[v], v)
			}
		}
	}
}

func TestDialUnweightedMatchesBFS(t *testing.T) {
	g := graph.RandomConnectedGNM(200, 600, 4)
	d1 := Dial(g, []graph.V{7}, Options{})
	d2 := BFS(g, []graph.V{7}, Options{})
	for v := range d1.Dist {
		if d1.Dist[v] != d2.Dist[v] {
			t.Fatalf("Dial %d vs BFS %d at %d", d1.Dist[v], d2.Dist[v], v)
		}
	}
}

func TestDialMaxDist(t *testing.T) {
	g := graph.UniformWeights(graph.Path(20), 3, 9)
	full := Dijkstra(g, []graph.V{0}, Options{})
	bound := graph.Dist(10)
	res := Dial(g, []graph.V{0}, Options{MaxDist: bound})
	for v := range res.Dist {
		switch {
		case full.Dist[v] <= bound:
			if res.Dist[v] != full.Dist[v] {
				t.Fatalf("within bound: dist[%d] = %d, want %d", v, res.Dist[v], full.Dist[v])
			}
		default:
			if res.Reached(graph.V(v)) {
				t.Fatalf("vertex %d (true dist %d) settled beyond bound", v, full.Dist[v])
			}
		}
	}
}

func TestDijkstraMaxDist(t *testing.T) {
	g := graph.UniformWeights(graph.Path(20), 3, 9)
	full := Dijkstra(g, []graph.V{0}, Options{})
	bound := graph.Dist(10)
	res := Dijkstra(g, []graph.V{0}, Options{MaxDist: bound})
	for v := range res.Dist {
		if full.Dist[v] <= bound {
			if res.Dist[v] != full.Dist[v] {
				t.Fatalf("dist[%d] = %d, want %d", v, res.Dist[v], full.Dist[v])
			}
		} else if res.Reached(graph.V(v)) {
			t.Fatalf("vertex %d settled beyond bound", v)
		}
	}
}

func TestDialMarkRestriction(t *testing.T) {
	g := graph.UniformWeights(graph.Cycle(8), 2, 5)
	mark := make([]int32, 8)
	for i := 0; i < 5; i++ {
		mark[i] = 1
	}
	res := Dial(g, []graph.V{0}, Options{Mark: mark, Token: 1})
	if res.Reached(5) || res.Reached(6) || res.Reached(7) {
		t.Fatal("Dial escaped the marked set")
	}
	// Distances within the marked path must match Dijkstra on the
	// induced subgraph.
	sub, origOf := g.InducedSubgraph([]graph.V{0, 1, 2, 3, 4})
	ref := Dijkstra(sub, []graph.V{0}, Options{})
	for i, o := range origOf {
		if res.Dist[o] != ref.Dist[i] {
			t.Fatalf("restricted dist[%d] = %d, want %d", o, res.Dist[o], ref.Dist[i])
		}
	}
}

func TestHopLimited(t *testing.T) {
	// Path 0-1-2-3-4 (weights 1) plus a heavy shortcut 0-4 of weight 10.
	g := graph.FromEdges(5, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1}, {U: 3, V: 4, W: 1},
		{U: 0, V: 4, W: 10},
	}, true)
	// 1 hop: only the direct edge.
	d1 := HopLimited(g, nil, []graph.V{0}, 1, nil)
	if d1[4] != 10 {
		t.Fatalf("1-hop dist = %d, want 10", d1[4])
	}
	// 4 hops: the light path.
	d4 := HopLimited(g, nil, []graph.V{0}, 4, nil)
	if d4[4] != 4 {
		t.Fatalf("4-hop dist = %d, want 4", d4[4])
	}
	// Extra edge shrinks hops: add (0,3,3).
	extra := []graph.Edge{{U: 0, V: 3, W: 3}}
	d2 := HopLimited(g, extra, []graph.V{0}, 2, nil)
	if d2[4] != 4 {
		t.Fatalf("2-hop with hopset dist = %d, want 4", d2[4])
	}
}

func TestHopLimitedConvergesToDijkstra(t *testing.T) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(120, 360, 8), 9, 8)
	hop := HopLimited(g, nil, []graph.V{0}, int(g.NumVertices()), nil)
	ref := Dijkstra(g, []graph.V{0}, Options{})
	for v := range hop {
		if hop[v] != ref.Dist[v] {
			t.Fatalf("n-hop dist %d != Dijkstra %d at %d", hop[v], ref.Dist[v], v)
		}
	}
}

func TestHopLimitedMonotoneInHops(t *testing.T) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(80, 200, 12), 7, 13)
	prev := HopLimited(g, nil, []graph.V{3}, 1, nil)
	for h := 2; h <= 12; h++ {
		cur := HopLimited(g, nil, []graph.V{3}, h, nil)
		for v := range cur {
			if cur[v] > prev[v] {
				t.Fatalf("hop distance increased with more hops at %d", v)
			}
		}
		prev = cur
	}
}

func TestEccentricityAndDiameter(t *testing.T) {
	g := graph.Path(50)
	if e := Eccentricity(g, 0); e != 49 {
		t.Fatalf("ecc(0) = %d", e)
	}
	if e := Eccentricity(g, 25); e != 25 {
		t.Fatalf("ecc(25) = %d", e)
	}
	if d := EstimateDiameter(g, 25); d != 49 {
		t.Fatalf("diameter = %d, want 49 (exact on trees)", d)
	}
	grid := graph.Grid2D(8, 8)
	if d := EstimateDiameter(grid, 0); d != 14 {
		t.Fatalf("grid diameter = %d, want 14", d)
	}
}

// weightRanges are the edge-weight ceilings randomSearch draws from,
// selected by flag bits 4–5: a narrow range Dial's buckets cover, then
// 2^16, 2^40 and 2^55, where distances span most of the int64 range
// below InfDist.
var weightRanges = [4]graph.W{15, 1 << 16, 1 << 40, 1 << 55}

// boundaryRanges replace weightRanges when flag bit 6 is set: ceilings
// on either side of math.MaxUint32, the largest weight an Arc holds,
// and on either side of ringMaxWeight, the largest weight Dijkstra
// searches on the ring rather than the radix heap. Edge 0 sits at the
// ceiling and half the others within 2 of it, so a 2^32+1 graph mixes
// narrow arcs with arcs only its Wide weights describe, a 2^32-1 graph
// stores weights up to exactly math.MaxUint32 in its arcs, and the
// last two run Dijkstra on either queue.
var boundaryRanges = [4]graph.W{1<<32 - 1, 1<<32 + 1, ringMaxWeight, ringMaxWeight + 1}

// randomSearch draws a random search instance for the differential
// properties: a connected graph with unit weights or random weights up
// to weightRanges[flags>>4&3] (boundaryRanges[flags>>4&3] when flags
// has bit 6), optional parallel edges (a second copy
// of some edges at a new weight), one or several possibly duplicated
// sources, an optional Mark/Token restriction to about three quarters
// of the vertices, and an optional distance bound scaled to the
// weight range.
func randomSearch(seed uint64, boundRaw, flags uint8) (*graph.Graph, []graph.V, Options) {
	r := rng.New(seed)
	n := int32(r.Intn(60) + 2)
	m := int64(n) + int64(r.Intn(100))
	if max := int64(n) * int64(n-1) / 2; m > max {
		m = max
	}
	weighted := flags&1 == 0
	maxW := weightRanges[flags>>4&3]
	boundary := flags&0x40 != 0
	if boundary {
		maxW = boundaryRanges[flags>>4&3]
	}
	edges := append([]graph.Edge(nil), graph.RandomConnectedGNM(n, m, seed).Edges()...)
	if flags&2 != 0 {
		for i := range edges {
			if r.Intn(3) == 0 {
				edges = append(edges, edges[i])
			}
		}
	}
	for i := range edges {
		edges[i].W = 1 + r.Int63n(maxW)
		if boundary && r.Intn(2) == 0 {
			edges[i].W = maxW - r.Int63n(3)
		}
	}
	if boundary {
		edges[0].W = maxW
	}
	g := graph.FromEdges(n, edges, weighted)

	sources := []graph.V{graph.V(r.Int31n(n))}
	if flags&4 != 0 {
		for k := r.Intn(4); k >= 0; k-- {
			sources = append(sources, graph.V(r.Int31n(n)))
		}
		sources = append(sources, sources[0])
	}
	var opt Options
	if flags&8 != 0 {
		opt.Mark, opt.Token = make([]int32, n), 7
		for v := range opt.Mark {
			if r.Intn(4) != 0 {
				opt.Mark[v] = opt.Token
			}
		}
	}
	if boundRaw%2 == 0 {
		opt.MaxDist = graph.Dist(boundRaw)
		if weighted {
			opt.MaxDist *= maxW / 15
		}
	}
	return g, sources, opt
}

// certifyParents reports whether res is a valid shortest-path forest
// from sources: every admitted source sits at distance 0 without a
// parent, and every other reached vertex has a reached parent joined
// to it by an edge whose weight closes the distance exactly.
func certifyParents(g *graph.Graph, sources []graph.V, opt Options, res *Result) bool {
	isSource := make(map[graph.V]bool)
	for _, s := range sources {
		if opt.admits(s) {
			isSource[s] = true
		}
	}
	for v := graph.V(0); v < g.NumVertices(); v++ {
		if !res.Reached(v) {
			if isSource[v] || res.Parent[v] != graph.NoVertex {
				return false
			}
			continue
		}
		p := res.Parent[v]
		if isSource[v] {
			if res.Dist[v] != 0 || p != graph.NoVertex {
				return false
			}
			continue
		}
		if p == graph.NoVertex || !res.Reached(p) {
			return false
		}
		ok := false
		ids := g.AdjEdgeIDs(v)
		for i, a := range g.Arcs(v) {
			if a.To == p && res.Dist[p]+g.EdgeWeight(ids[i]) == res.Dist[v] {
				ok = true
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// checkDijkstra runs Dijkstra twice on one instance and reports the
// first way it departs from the indexed-heap reference: a distance
// that differs, a second run that differs, parents that do not certify
// the distances, or work or depth other than the degree sum over the
// settled vertices.
func checkDijkstra(g *graph.Graph, sources []graph.V, opt Options) error {
	ref := referenceDijkstra(g, sources, opt)
	again := Dijkstra(g, sources, opt)
	cost := par.NewCost()
	opt.Cost = cost
	res := Dijkstra(g, sources, opt)
	var degrees int64
	for v := range res.Dist {
		if res.Dist[v] != ref.Dist[v] {
			return fmt.Errorf("dist[%d] = %d, reference %d", v, res.Dist[v], ref.Dist[v])
		}
		if res.Dist[v] != again.Dist[v] || res.Parent[v] != again.Parent[v] {
			return fmt.Errorf("vertex %d differs between two runs", v)
		}
		if res.Reached(graph.V(v)) {
			degrees += int64(g.Degree(graph.V(v)))
		}
	}
	if !certifyParents(g, sources, opt, res) {
		return errors.New("parents do not certify the distances")
	}
	if cost.Work() != degrees || cost.Depth() != degrees {
		return fmt.Errorf("work %d, depth %d; want the degree sum %d", cost.Work(), cost.Depth(), degrees)
	}
	return nil
}

// checkDijkstraTo runs DijkstraTo from src to every dst and reports the
// first way it departs from the full Dijkstra: a distance that
// differs, depth other than work, or work outside the only range a
// stop at dst allows. Every vertex closer than dst settles before it
// and ties may settle either way, so the work lies between the degree
// sums over {v : Dist[v] < Dist[dst]} and {v ≠ dst : Dist[v] <=
// Dist[dst]}; an unreached dst drains the search, paying the full
// degree sum.
func checkDijkstraTo(g *graph.Graph, src graph.V, opt Options, ec *exec.Ctx) error {
	full := Dijkstra(g, []graph.V{src}, opt).Dist
	for dst := graph.V(0); dst < g.NumVertices(); dst++ {
		var lo, hi int64
		for v, d := range full {
			if d == graph.InfDist {
				continue
			}
			deg := int64(g.Degree(graph.V(v)))
			if d < full[dst] || full[dst] == graph.InfDist {
				lo += deg
			}
			if d <= full[dst] && graph.V(v) != dst {
				hi += deg
			}
		}
		cost := par.NewCost()
		to := opt
		to.Cost, to.Exec = cost, ec
		if got := DijkstraTo(g, src, dst, to); got != full[dst] {
			return fmt.Errorf("%d->%d: DijkstraTo %d, Dijkstra %d", src, dst, got, full[dst])
		}
		if cost.Work() != cost.Depth() || cost.Work() < lo || cost.Work() > hi {
			return fmt.Errorf("%d->%d: work %d, depth %d; want equal and in [%d, %d]",
				src, dst, cost.Work(), cost.Depth(), lo, hi)
		}
	}
	return nil
}

// Property: on random instances (unit and random weights up to 2^55,
// parallel edges, multiple and duplicate sources, Mark/Token
// restriction, distance bounds) Dijkstra passes checkDijkstra, and
// where the weights fit Dial's buckets its distances equal Dial's.
// Instances at ringMaxWeight and one above it run Dijkstra on either
// side of its queue dispatch; the test fails unless both occur.
func TestDialDijkstraProperty(t *testing.T) {
	var queues queueSides
	f := func(seedRaw uint32, boundRaw, flags uint8) bool {
		g, sources, opt := randomSearch(uint64(seedRaw), boundRaw, flags)
		queues.count(g)
		if err := checkDijkstra(g, sources, opt); err != nil {
			t.Log(err)
			return false
		}
		return g.MaxWeight() > 1<<16 ||
			slices.Equal(Dial(g, sources, opt).Dist, Dijkstra(g, sources, opt).Dist)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	queues.check(t)
}

// queueSides counts the instances a test ran exactly at ringMaxWeight
// (Dijkstra on the ring) and exactly one above it (on the radix heap).
type queueSides struct{ atCap, aboveCap int }

func (q *queueSides) count(g *graph.Graph) {
	switch g.MaxWeight() {
	case ringMaxWeight:
		q.atCap++
	case ringMaxWeight + 1:
		q.aboveCap++
	}
}

func (q *queueSides) check(t *testing.T) {
	t.Helper()
	if q.atCap == 0 || q.aboveCap == 0 {
		t.Fatalf("%d instances at max weight %d (ring), %d at %d (radix heap); want both > 0",
			q.atCap, ringMaxWeight, q.aboveCap, ringMaxWeight+1)
	}
}

// TestDijkstraMatchesReference runs checkDijkstra on every randomSearch
// flag combination (unit or random weights in each weight range, on
// either side of math.MaxUint32 and on either side of the ring/radix
// dispatch, parallel edges, duplicate sources, Mark), unbounded and at
// two distance bounds, so each range, 2^55 included, is covered with
// and without MaxDist on every run.
func TestDijkstraMatchesReference(t *testing.T) {
	wide := 0
	var queues queueSides
	for flags := 0; flags < 128; flags++ {
		for _, boundRaw := range []uint8{1, 40, 120} {
			for seed := uint64(0); seed < 4; seed++ {
				g, sources, opt := randomSearch(seed, boundRaw, uint8(flags))
				queues.count(g)
				if g.Wide(0) != nil {
					wide++
				}
				if err := checkDijkstra(g, sources, opt); err != nil {
					t.Fatalf("flags %#x, MaxDist %d, seed %d: %v", flags, opt.MaxDist, seed, err)
				}
			}
		}
	}
	if wide == 0 {
		t.Fatal("no instance has Wide weights")
	}
	queues.check(t)
}

// dialShifts are the Options.Shift values TestDialMatchesReference
// draws: true weights, small granularities, and one above every weight
// in its ranges (every arc rounds to 1).
var dialShifts = [5]uint{0, 1, 2, 3, 20}

// boundaryShifts are its Shift values on boundaryRanges instances,
// coarse enough for Dial's buckets: at 31 and 32 the weights
// 2^32-1, 2^32 and 2^32+1 round to different values.
var boundaryShifts = [3]uint{20, 31, 32}

// roundedCopy materialises g with every weight w replaced by
// ⌈w/2^shift⌉, computed by division.
func roundedCopy(g *graph.Graph, shift uint) *graph.Graph {
	q := graph.W(1) << shift
	edges := append([]graph.Edge(nil), g.Edges()...)
	for i := range edges {
		edges[i].W = (edges[i].W + q - 1) / q
	}
	return graph.FromEdges(g.NumVertices(), edges, g.Weighted())
}

// Property: Dial returns the same Dist and Parent arrays, bit for bit,
// as the reference body (which re-allocates each drained bucket,
// reads a settled flag per arc and clears unsettled entries) on random
// instances with weights up to 2^16 or on either side of
// math.MaxUint32; with Options.Shift = s, as the reference body on the
// materialised ⌈w/2^s⌉ copy of the graph. The boundary instances run
// only at a boundaryShifts Shift, so every Wide graph is searched
// through Shift.
func TestDialMatchesReference(t *testing.T) {
	f := func(seedRaw uint32, boundRaw, flags uint8) bool {
		g, sources, opt := randomSearch(uint64(seedRaw), boundRaw, flags&^0x20)
		shift := dialShifts[seedRaw%uint32(len(dialShifts))]
		if flags&0x40 != 0 {
			shift = boundaryShifts[seedRaw%uint32(len(boundaryShifts))]
		}
		want, _ := referenceDial(roundedCopy(g, shift), sources, opt, graph.NoVertex)
		opt.Shift = shift
		got := Dial(g, sources, opt)
		return slices.Equal(got.Dist, want.Dist) && slices.Equal(got.Parent, want.Parent)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestDialToMatchesDial: on random instances (unit and random weights
// up to 15, parallel edges, Mark restriction, bounded and unbounded
// MaxDist, plus an isolated vertex) and every Shift in {0, 1, 2, 4},
// DialTo(src, dst) equals Dial's Dist[dst] for every dst — src itself,
// vertices beyond the bound and unreachable ones included — with no
// more depth or work than the full search. At Shift 0, DijkstraTo
// returns the same distance.
func TestDialToMatchesDial(t *testing.T) {
	ec := exec.Sequential()
	var self, beyond, unreachable, reached int
	for flags := 0; flags < 16; flags++ {
		for _, boundRaw := range []uint8{1, 20, 90} {
			for seed := uint64(0); seed < 3; seed++ {
				g, sources, opt := randomSearch(seed, boundRaw, uint8(flags))
				// One more vertex, joined to nothing.
				g = graph.FromEdges(g.NumVertices()+1, g.Edges(), g.Weighted())
				if opt.Mark != nil {
					opt.Mark = append(opt.Mark, opt.Token)
				}
				src := sources[0]
				for _, shift := range []uint{0, 1, 2, 4} {
					opt.Shift = shift
					fullCost := par.NewCost()
					full := opt
					full.Cost, full.Exec = fullCost, nil
					want := Dial(g, []graph.V{src}, full).Dist
					unbounded := full
					unbounded.MaxDist = 0
					free := Dial(g, []graph.V{src}, unbounded).Dist
					for dst := graph.V(0); dst < g.NumVertices(); dst++ {
						cost := par.NewCost()
						opt.Cost, opt.Exec = cost, ec
						got := DialTo(g, src, dst, opt)
						if got != want[dst] {
							t.Fatalf("flags %#x, MaxDist %d, seed %d, Shift %d, %d->%d: DialTo %d, Dial %d",
								flags, opt.MaxDist, seed, shift, src, dst, got, want[dst])
						}
						if shift == 0 {
							noCost := opt
							noCost.Cost = nil
							if exact := DijkstraTo(g, src, dst, noCost); exact != got {
								t.Fatalf("flags %#x, MaxDist %d, seed %d, %d->%d: DijkstraTo %d, Dial %d",
									flags, opt.MaxDist, seed, src, dst, exact, got)
							}
						}
						if cost.Depth() > fullCost.Depth() || cost.Work() > fullCost.Work() {
							t.Fatalf("flags %#x, seed %d, %d->%d: DialTo depth %d, work %d; Dial %d, %d",
								flags, seed, src, dst, cost.Depth(), cost.Work(), fullCost.Depth(), fullCost.Work())
						}
						switch {
						case dst == src && got == 0:
							self++
						case got < graph.InfDist:
							reached++
						case free[dst] < graph.InfDist:
							beyond++
						default:
							unreachable++
						}
					}
				}
			}
		}
	}
	if self == 0 || beyond == 0 || unreachable == 0 || reached == 0 {
		t.Fatalf("cases covered: %d self, %d beyond the bound, %d unreachable, %d reached; want each > 0",
			self, beyond, unreachable, reached)
	}
}

// TestDialWorkCounted pins the work Dial and DialTo report to
// referenceDial's count, on random instances (unit and random weights
// up to 15, at ringMaxWeight and at one above it, parallel edges,
// several sources, Mark restriction) at every Shift in {0, 1, 3},
// bounded and unbounded: Dial's work is Σ(1 + degree) over the
// vertices it settles, and DialTo's to each dst is that sum over the
// vertices settled before dst, plus one. The instances drain stale
// entries, so a kernel that expanded them again would report more.
// Dijkstra's work, the degree sum over its settled vertices, is pinned
// on the same instances by checkDijkstra, and DijkstraTo's to every
// dst by checkDijkstraTo, on either side of Dijkstra's queue dispatch.
func TestDialWorkCounted(t *testing.T) {
	ec := exec.Sequential()
	var stale int64
	var queues queueSides
	for i := 0; i < 48; i++ {
		// flags 0–15, then the same options at either boundaryRanges
		// ceiling around ringMaxWeight.
		flags := i&15 | []int{0, 0x60, 0x70}[i>>4]
		for _, boundRaw := range []uint8{1, 20} {
			for seed := uint64(0); seed < 3; seed++ {
				g, sources, opt := randomSearch(seed, boundRaw, uint8(flags))
				queues.count(g)
				if err := checkDijkstra(g, sources, opt); err != nil {
					t.Fatalf("flags %#x, MaxDist %d, seed %d: Dijkstra: %v", flags, opt.MaxDist, seed, err)
				}
				if err := checkDijkstraTo(g, sources[0], opt, ec); err != nil {
					t.Fatalf("flags %#x, MaxDist %d, seed %d: DijkstraTo: %v", flags, opt.MaxDist, seed, err)
				}
				for _, shift := range []uint{0, 1, 3} {
					opt.Shift = shift
					rounded := roundedCopy(g, shift)
					_, want := referenceDial(rounded, sources, opt, graph.NoVertex)
					stale += want.stale
					cost := par.NewCost()
					full := opt
					full.Cost = cost
					Dial(g, sources, full)
					if cost.Work() != want.work {
						t.Fatalf("flags %#x, MaxDist %d, seed %d, Shift %d: Dial work %d, counted %d",
							flags, opt.MaxDist, seed, shift, cost.Work(), want.work)
					}
					src := sources[0]
					for dst := graph.V(0); dst < g.NumVertices(); dst++ {
						_, want := referenceDial(rounded, []graph.V{src}, opt, dst)
						cost := par.NewCost()
						to := opt
						to.Cost, to.Exec = cost, ec
						DialTo(g, src, dst, to)
						if cost.Work() != want.work {
							t.Fatalf("flags %#x, MaxDist %d, seed %d, Shift %d, %d->%d: DialTo work %d, counted %d",
								flags, opt.MaxDist, seed, shift, src, dst, cost.Work(), want.work)
						}
					}
				}
			}
		}
	}
	if stale == 0 {
		t.Fatal("no instance drained a stale entry: the test must cover one")
	}
	queues.check(t)
}

// Property: Dial's parent pointers always certify the reported
// distance.
func TestParentCertifiesDistance(t *testing.T) {
	f := func(seedRaw uint32) bool {
		seed := uint64(seedRaw)
		g := graph.UniformWeights(graph.RandomConnectedGNM(50, 150, seed), 9, seed^7)
		sources := []graph.V{0}
		return certifyParents(g, sources, Options{}, Dial(g, sources, Options{}))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// dialCount is what referenceDial counts as it drains its buckets.
type dialCount struct {
	// work is the work Dial must report: one per settled vertex plus
	// its degree, and one for the stop vertex, which scans nothing.
	work int64
	// stale is the number of drained entries whose vertex had already
	// settled at a lower key.
	stale int64
}

// referenceDial is Dial without its shortcuts, kept as the
// bit-identity and work-counting oracle for TestDialMatchesReference
// and TestDialWorkCounted: it drops each drained bucket (so every
// refill re-grows it), keeps a settled array and tests it on every
// arc, and clears never-settled distances at the end. It returns as
// soon as stop settles (never, for NoVertex), with the result left
// partial and only the count meaningful.
func referenceDial(g *graph.Graph, sources []graph.V, opt Options, stop graph.V) (*Result, dialCount) {
	n := g.NumVertices()
	res := newResultOn(opt.Exec, n)
	bound := opt.bound()
	maxW := g.MaxWeight()
	if maxW < 1 {
		maxW = 1
	}
	// Circular buckets: a relaxation increases the key by at most
	// maxW, so maxW+1 buckets suffice. A bounded search never keeps
	// keys above the bound, so the bucket span clamps to it — this is
	// what keeps level-capped searches on huge-weight graphs cheap.
	span := maxW
	if bound < graph.InfDist && graph.W(bound)+1 < span {
		span = graph.W(bound) + 1
	}
	const maxBuckets = 1 << 28
	if span+1 > maxBuckets {
		panic(fmt.Sprintf("sssp: Dial bucket span %d too large; round weights or set MaxDist", span))
	}
	nb := int(span) + 1
	buckets := make([][]graph.V, nb)
	pending := 0
	for _, s := range sources {
		if !opt.admits(s) || res.Dist[s] == 0 {
			continue
		}
		res.Dist[s] = 0
		buckets[0] = append(buckets[0], s)
		pending++
	}
	settled := make([]bool, n)
	var count dialCount
	for level := graph.Dist(0); pending > 0 && level <= bound; level++ {
		// Every distance level is one synchronous round of the
		// weighted parallel BFS, empty or not: this is the "depth
		// linear in path lengths" that Section 5's rounding scheme
		// exists to shrink.
		opt.Cost.AddDepth(1)
		b := buckets[int(level)%nb]
		if len(b) == 0 {
			continue
		}
		if opt.Exec.Checkpoint() {
			return res, count // canceled: partial, invalid
		}
		buckets[int(level)%nb] = nil
		pending -= len(b)
		for _, v := range b {
			if settled[v] || res.Dist[v] != level {
				count.stale++
				continue // stale entry
			}
			settled[v] = true
			count.work++
			if v == stop {
				return res, count
			}
			arcs := g.Arcs(v)
			ids := g.AdjEdgeIDs(v)
			count.work += int64(len(arcs))
			for i, a := range arcs {
				u := a.To
				if !opt.admits(u) || settled[u] {
					continue
				}
				w := g.EdgeWeight(ids[i])
				nd := level + w
				if nd < res.Dist[u] && nd <= bound {
					res.Dist[u] = nd
					res.Parent[u] = v
					buckets[int(nd)%nb] = append(buckets[int(nd)%nb], u)
					pending++
				}
			}
		}
	}
	// Clear any tentative distances that were never settled within the
	// bound (stale bucket entries beyond it).
	if bound < graph.InfDist {
		for v := range res.Dist {
			if res.Dist[v] != graph.InfDist && !settled[v] {
				res.Dist[v] = graph.InfDist
				res.Parent[v] = graph.NoVertex
			}
		}
	}
	return res, count
}

// referenceDijkstra is Dijkstra on an indexed 4-ary heap, kept as the
// differential oracle for the radix-heap kernel: a per-vertex
// position array records each vertex as unqueued (0), queued at heap
// slot i (i+1), or settled (-1), and decrease-key sifts up.
func referenceDijkstra(g *graph.Graph, sources []graph.V, opt Options) *Result {
	n := g.NumVertices()
	res := newResultOn(opt.Exec, n)
	bound := opt.bound()
	h := indexedHeap{
		items: opt.Exec.Verts(int(n))[:0],
		pos:   opt.Exec.MarksZero(int(n)),
		dist:  res.Dist,
	}
	defer opt.Exec.PutVerts(h.items)
	defer opt.Exec.PutMarks(h.pos)
	for _, s := range sources {
		if !opt.admits(s) || h.pos[s] != 0 {
			continue
		}
		res.Dist[s] = 0
		h.push(s)
	}
	var ops int64
	for len(h.items) > 0 {
		if opt.Exec.Canceled() {
			return res // canceled: partial, invalid
		}
		v := h.pop()
		d := res.Dist[v]
		if d > bound {
			// Every key still queued is at least d: clear the
			// tentative labels past the bound and stop.
			res.Dist[v], res.Parent[v] = graph.InfDist, graph.NoVertex
			for _, u := range h.items {
				res.Dist[u], res.Parent[u] = graph.InfDist, graph.NoVertex
			}
			break
		}
		h.pos[v] = refSettled
		arcs := g.Arcs(v)
		ids := g.AdjEdgeIDs(v)
		ops += int64(len(arcs))
		for i, a := range arcs {
			u := a.To
			if h.pos[u] == refSettled || !opt.admits(u) {
				continue
			}
			w := g.EdgeWeight(ids[i])
			if nd := d + w; nd < res.Dist[u] {
				res.Dist[u] = nd
				res.Parent[u] = v
				if p := h.pos[u]; p == 0 {
					h.push(u)
				} else {
					h.up(int(p - 1))
				}
			}
		}
	}
	opt.Cost.AddWork(ops)
	opt.Cost.AddDepth(ops)
	return res
}

// refSettled marks a vertex referenceDijkstra has settled in
// indexedHeap.pos.
const refSettled = -1

// indexedHeap is a 4-ary min-heap of vertex ids keyed by dist[v].
// pos[v] is v's slot plus one while queued (0 when unqueued); the
// caller owns the refSettled marks. Decreasing dist[v] for a queued v
// must be followed by up(pos[v]-1).
type indexedHeap struct {
	items []graph.V
	pos   []int32
	dist  []graph.Dist
}

func (h *indexedHeap) push(v graph.V) {
	h.items = append(h.items, v)
	h.up(len(h.items) - 1)
}

// pop removes and returns the minimum; its pos entry is left stale
// for the caller to overwrite.
func (h *indexedHeap) pop() graph.V {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return top
}

func (h *indexedHeap) up(i int) {
	v := h.items[i]
	d := h.dist[v]
	for i > 0 {
		p := (i - 1) / 4
		pv := h.items[p]
		if h.dist[pv] <= d {
			break
		}
		h.items[i] = pv
		h.pos[pv] = int32(i + 1)
		i = p
	}
	h.items[i] = v
	h.pos[v] = int32(i + 1)
}

func (h *indexedHeap) down(i int) {
	items := h.items
	v := items[i]
	d := h.dist[v]
	for {
		c := 4*i + 1
		if c >= len(items) {
			break
		}
		best, bd := c, h.dist[items[c]]
		end := min(c+4, len(items))
		for j := c + 1; j < end; j++ {
			if dj := h.dist[items[j]]; dj < bd {
				best, bd = j, dj
			}
		}
		if bd >= d {
			break
		}
		items[i] = items[best]
		h.pos[items[i]] = int32(i + 1)
		i = best
	}
	items[i] = v
	h.pos[v] = int32(i + 1)
}

// TestDijkstraAllocsConstant pins the point-to-point kernels'
// allocation counts: on an execution context with released results,
// and on a nil context (the facade's ShortestPaths), Dijkstra,
// DijkstraTo and DialTo each allocate the same small constant however
// many edges they relax, on the ring (weights up to 50 here) and on
// the radix heap (weights up to 2^40) alike — the ring's buckets and
// bitmap, the radix heap's links and DialTo's distances come back
// from the arenas with their capacity, and a release reuses the
// arena's boxes, so nothing is allocated per push or per release.
// Dijkstra allocates its Result (and, on a nil context, the result's
// dist and parent arrays); the point-to-point kernels allocate
// nothing.
func TestDijkstraAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	sparseG := graph.UniformWeights(graph.RandomConnectedGNM(2000, 4000, 1), 50, 2)
	denseG := graph.UniformWeights(graph.RandomConnectedGNM(2000, 60000, 3), 50, 4)
	wideSparseG := graph.UniformWeights(graph.RandomConnectedGNM(2000, 4000, 5), 1<<40, 6)
	wideG := graph.UniformWeights(graph.RandomConnectedGNM(2000, 60000, 5), 1<<40, 6)
	// The point-to-point kernels run to the vertex the search settles
	// last, so they relax every edge.
	farthest := func(g *graph.Graph) graph.V {
		res := Dijkstra(g, []graph.V{0}, Options{})
		last := graph.V(0)
		for v, d := range res.Dist {
			if d > res.Dist[last] {
				last = graph.V(v)
			}
		}
		return last
	}
	for _, ctx := range []struct {
		name string
		ec   *exec.Ctx
	}{{"exec.Sequential()", exec.Sequential()}, {"nil context", nil}} {
		ec := ctx.ec
		check := func(kernel string, limit float64, run func(g *graph.Graph, opt Options) func()) {
			t.Helper()
			allocs := func(g *graph.Graph, opt Options) float64 {
				opt.Exec = ec
				return testing.AllocsPerRun(20, run(g, opt))
			}
			sparse, dense := allocs(sparseG, Options{}), allocs(denseG, Options{})
			wideSparse, wide := allocs(wideSparseG, Options{}), allocs(wideG, Options{})
			if sparse != dense || wideSparse != wide || dense != wide || dense > limit {
				t.Fatalf("%s on %s: allocs/op = %v (m=4000), %v (m=60000), %v (m=4000, w < 2^40), %v (m=60000, w < 2^40); want one constant <= %v",
					kernel, ctx.name, sparse, dense, wideSparse, wide, limit)
			}
		}
		// Dijkstra's Result, plus its dist and parent arrays on a nil
		// context.
		limit := 1.0
		if ec == nil {
			limit = 3
		}
		check("Dijkstra", limit, func(g *graph.Graph, opt Options) func() {
			return func() { Dijkstra(g, []graph.V{0}, opt).Release(opt.Exec) }
		})
		check("DijkstraTo", 0, func(g *graph.Graph, opt Options) func() {
			last := farthest(g)
			return func() { DijkstraTo(g, 0, last, opt) }
		})
		// DialTo rounds the wide graphs down to 2^10 buckets.
		check("DialTo", 0, func(g *graph.Graph, opt Options) func() {
			last := farthest(g)
			if g.MaxWeight() > 1<<32 {
				opt.Shift = 30
			}
			return func() { DialTo(g, 0, last, opt) }
		})
	}
}

// TestRingJumpsEmptyLevels runs Dijkstra down a 10^5-vertex path whose
// every weight is ringMaxWeight, so it searches on the ring and each
// step leaves ringMaxWeight-1 empty levels behind. The ring's visits —
// buckets drained plus bitmap words read — stay within 4(n+m); a ring
// that stepped through empty levels one by one would make about
// n·ringMaxWeight ≈ 4·10^8.
func TestRingJumpsEmptyLevels(t *testing.T) {
	const n = 100_000
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.V(i), V: graph.V(i + 1), W: ringMaxWeight}
	}
	g := graph.FromEdges(n, edges, true)
	res := newResult(n)
	c := ringSearch(g, []graph.V{0}, &Options{}, 0, g.MaxWeight(), graph.NoVertex, res, false)
	for v, d := range res.Dist {
		if d != graph.Dist(v)*ringMaxWeight {
			t.Fatalf("dist[%d] = %d, want %d", v, d, graph.Dist(v)*ringMaxWeight)
		}
	}
	if bound := 4 * (int64(n) + g.NumEdges()); c.visits > bound {
		t.Fatalf("%d ring visits, want at most 4(n+m) = %d", c.visits, bound)
	}
	cost := par.NewCost()
	if d := Dijkstra(g, []graph.V{0}, Options{Cost: cost}).Dist[n-1]; d != (n-1)*ringMaxWeight {
		t.Fatalf("Dijkstra dist[%d] = %d, want %d", n-1, d, (n-1)*ringMaxWeight)
	}
	if want := 2 * g.NumEdges(); cost.Work() != want || cost.Depth() != want {
		t.Fatalf("Dijkstra work %d, depth %d; want the degree sum %d", cost.Work(), cost.Depth(), want)
	}
}

func BenchmarkBFSGrid(b *testing.B) {
	g := graph.Grid2D(200, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BFS(g, []graph.V{0}, Options{})
	}
}

func BenchmarkDialRandom(b *testing.B) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(10000, 40000, 1), 50, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dial(g, []graph.V{0}, Options{})
	}
}

func BenchmarkDijkstraRandom(b *testing.B) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(10000, 40000, 1), 50, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dijkstra(g, []graph.V{0}, Options{})
	}
}

func BenchmarkDijkstraWide(b *testing.B) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(16384, 200000, 3), 1<<40, 4)
	if g.MaxWeight() <= ringMaxWeight {
		b.Fatalf("max weight %d runs on the ring; this benchmark times the radix heap", g.MaxWeight())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dijkstra(g, []graph.V{0}, Options{})
	}
}

func BenchmarkDijkstraMultiScale(b *testing.B) {
	g := graph.ExponentialWeights(graph.Grid2D(100, 100), 4, 5, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dijkstra(g, []graph.V{0}, Options{})
	}
}
