package sssp

import (
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

// randomSearch draws a random search instance for the differential
// properties: a connected graph with unit or random weights, optional
// parallel edges (a second copy of some edges at a new weight), one or
// several possibly duplicated sources, an optional Mark/Token
// restriction to about three quarters of the vertices, and an
// optional distance bound.
func randomSearch(seed uint64, boundRaw, flags uint8) (*graph.Graph, []graph.V, Options) {
	r := rng.New(seed)
	n := int32(r.Intn(60) + 2)
	m := int64(n) + int64(r.Intn(100))
	if max := int64(n) * int64(n-1) / 2; m > max {
		m = max
	}
	weighted := flags&1 == 0
	edges := append([]graph.Edge(nil), graph.RandomConnectedGNM(n, m, seed).Edges()...)
	if flags&2 != 0 {
		for i := range edges {
			if r.Intn(3) == 0 {
				edges = append(edges, edges[i])
			}
		}
	}
	for i := range edges {
		edges[i].W = graph.W(r.Intn(15) + 1)
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
		wts := g.AdjWeights(v)
		for i, u := range g.Neighbors(v) {
			w := graph.W(1)
			if wts != nil {
				w = wts[i]
			}
			if u == p && res.Dist[p]+w == res.Dist[v] {
				ok = true
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Property: on random instances (unit and random weights, parallel
// edges, multiple and duplicate sources, Mark/Token restriction,
// distance bounds) Dijkstra's distances equal Dial's, its parents
// certify them, two runs give identical results, and its work equals
// the degree sum over the settled vertices, with depth equal to work.
func TestDialDijkstraProperty(t *testing.T) {
	f := func(seedRaw uint32, boundRaw, flags uint8) bool {
		g, sources, opt := randomSearch(uint64(seedRaw), boundRaw, flags)
		a := Dial(g, sources, opt)
		again := Dijkstra(g, sources, opt)
		cost := par.NewCost()
		opt.Cost = cost
		b := Dijkstra(g, sources, opt)
		var degrees int64
		for v := range a.Dist {
			if a.Dist[v] != b.Dist[v] || b.Dist[v] != again.Dist[v] || b.Parent[v] != again.Parent[v] {
				return false
			}
			if b.Reached(graph.V(v)) {
				degrees += int64(g.Degree(graph.V(v)))
			}
		}
		return certifyParents(g, sources, opt, b) &&
			cost.Work() == degrees && cost.Depth() == degrees
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
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

// TestDijkstraAllocsConstant pins the kernel's allocation count: on an
// execution context with released results, a search allocates the
// same small constant however many edges it relaxes — the heap holds
// vertex ids in an arena buffer, nothing is boxed per push.
func TestDijkstraAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	ec := exec.Sequential()
	allocs := func(g *graph.Graph) float64 {
		return testing.AllocsPerRun(20, func() {
			Dijkstra(g, []graph.V{0}, Options{Exec: ec}).Release(ec)
		})
	}
	sparse := allocs(graph.UniformWeights(graph.RandomConnectedGNM(2000, 4000, 1), 50, 2))
	dense := allocs(graph.UniformWeights(graph.RandomConnectedGNM(2000, 60000, 3), 50, 4))
	if sparse != dense || dense > 8 {
		t.Fatalf("Dijkstra allocs/op = %v (m=4000), %v (m=60000); want the same constant <= 8", sparse, dense)
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
