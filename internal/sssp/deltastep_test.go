package sssp

import (
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/rng"
)

// withProcs forces GOMAXPROCS above 1 so that par.For actually spawns
// goroutines and the CAS relaxation paths run concurrently even on
// single-core hosts (essential for `go test -race` coverage).
func withProcs(t *testing.T, p int, body func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(old)
	body()
}

func sameDistances(t *testing.T, label string, got, want *Result) {
	t.Helper()
	for v := range want.Dist {
		if got.Dist[v] != want.Dist[v] {
			t.Fatalf("%s: dist[%d] = %d, want %d", label, v, got.Dist[v], want.Dist[v])
		}
	}
}

// TestDeltaSteppingMatchesDijkstra is the headline differential check:
// Δ-stepping distances are bit-identical to Dijkstra's on seeded
// random weighted graphs, under forced goroutine parallelism.
func TestDeltaSteppingMatchesDijkstra(t *testing.T) {
	withProcs(t, 4, func() {
		for seed := uint64(0); seed < 8; seed++ {
			g := graph.UniformWeights(graph.RandomConnectedGNM(2000, 8000, seed), 50, seed^11)
			got := DeltaStepping(g, []graph.V{0}, Options{})
			want := Dijkstra(g, []graph.V{0}, Options{})
			sameDistances(t, "gnm", got, want)
		}
	})
}

func TestDeltaSteppingGridAndPath(t *testing.T) {
	withProcs(t, 4, func() {
		cases := []*graph.Graph{
			graph.UniformWeights(graph.Grid2D(40, 40), 20, 3),
			graph.UniformWeights(graph.Path(500), 9, 4),
			graph.Grid2D(30, 30), // unweighted: degenerates to unit costs
		}
		for i, g := range cases {
			got := DeltaStepping(g, []graph.V{0}, Options{})
			want := Dijkstra(g, []graph.V{0}, Options{})
			sameDistances(t, "case", got, want)
			_ = i
		}
	})
}

func TestDeltaSteppingMultiSource(t *testing.T) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(400, 1200, 6), 15, 7)
	srcs := []graph.V{0, 100, 399}
	got := DeltaStepping(g, srcs, Options{})
	want := Dijkstra(g, srcs, Options{})
	sameDistances(t, "multi-source", got, want)
}

func TestDeltaSteppingDisconnected(t *testing.T) {
	g := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1, W: 3}, {U: 2, V: 3, W: 2}}, true)
	res := DeltaStepping(g, []graph.V{0}, Options{})
	if !res.Reached(1) || res.Reached(2) || res.Reached(4) {
		t.Fatalf("reachability wrong: %v", res.Dist)
	}
}

func TestDeltaSteppingMaxDist(t *testing.T) {
	g := graph.UniformWeights(graph.Path(50), 4, 9)
	bound := graph.Dist(30)
	got := DeltaStepping(g, []graph.V{0}, Options{MaxDist: bound})
	want := Dijkstra(g, []graph.V{0}, Options{MaxDist: bound})
	sameDistances(t, "bounded", got, want)
}

func TestDeltaSteppingMarkRestriction(t *testing.T) {
	g := graph.UniformWeights(graph.Cycle(12), 3, 5)
	mark := make([]int32, 12)
	for i := 0; i < 7; i++ {
		mark[i] = 1
	}
	opt := Options{Mark: mark, Token: 1}
	got := DeltaStepping(g, []graph.V{0}, opt)
	want := Dijkstra(g, []graph.V{0}, opt)
	sameDistances(t, "restricted", got, want)
	for v := 7; v < 12; v++ {
		if got.Reached(graph.V(v)) {
			t.Fatalf("Δ-stepping escaped the marked set at %d", v)
		}
	}
}

// TestDeltaSteppingExplicitDelta sweeps bucket widths: correctness
// must not depend on Δ (only performance does).
func TestDeltaSteppingExplicitDelta(t *testing.T) {
	withProcs(t, 4, func() {
		g := graph.UniformWeights(graph.RandomConnectedGNM(600, 2400, 13), 40, 14)
		want := Dijkstra(g, []graph.V{5}, Options{})
		for _, d := range []graph.W{1, 3, 10, 40, 1000} {
			got := DeltaStepping(g, []graph.V{5}, Options{Delta: d})
			sameDistances(t, "delta sweep", got, want)
		}
	})
}

// TestDeltaSteppingParentsCertify: the certification pass must emit
// parents whose tree distances telescope exactly.
func TestDeltaSteppingParentsCertify(t *testing.T) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(300, 1000, 21), 12, 22)
	res := DeltaStepping(g, []graph.V{0}, Options{})
	for v := graph.V(1); v < g.NumVertices(); v++ {
		if !res.Reached(v) {
			continue
		}
		p := res.Parent[v]
		if p == graph.NoVertex {
			t.Fatalf("reached vertex %d has no parent", v)
		}
		ok := false
		for _, a := range g.Arcs(v) {
			if a.To == p && res.Dist[p]+graph.W(a.W) == res.Dist[v] {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("parent %d of %d does not certify dist %d", p, v, res.Dist[v])
		}
		if path := res.PathTo(v); path[0] != 0 || path[len(path)-1] != v {
			t.Fatalf("PathTo(%d) malformed: %v", v, path)
		}
	}
}

// TestDeltaSteppingDeterministic: unlike BFSParallel, the whole Result
// (distances and parents) is schedule-independent.
func TestDeltaSteppingDeterministic(t *testing.T) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(1500, 6000, 31), 25, 32)
	a := DeltaStepping(g, []graph.V{3}, Options{})
	withProcs(t, 8, func() {
		b := DeltaStepping(g, []graph.V{3}, Options{})
		for v := range a.Dist {
			if a.Dist[v] != b.Dist[v] || a.Parent[v] != b.Parent[v] {
				t.Fatalf("schedule-dependent result at %d", v)
			}
		}
	})
}

// TestWeightedDispatcher: the two weighted kernels a caller picks
// between by execution context — Δ-stepping on a parallel one, the
// sequential Dial race otherwise — agree on every distance.
func TestWeightedDispatcher(t *testing.T) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(300, 900, 41), 18, 42)
	seqRes := Dial(g, []graph.V{0}, Options{})
	parRes := DeltaStepping(g, []graph.V{0}, Options{Exec: exec.Parallel(4)})
	sameDistances(t, "dispatcher", parRes, seqRes)
}

// Property: Δ-stepping == Dijkstra on arbitrary random weighted graphs
// including bounds and random sources, mirroring TestDialDijkstraProperty.
func TestDeltaSteppingDijkstraProperty(t *testing.T) {
	withProcs(t, 4, func() {
		f := func(seedRaw uint32, boundRaw uint8) bool {
			seed := uint64(seedRaw)
			r := rng.New(seed)
			n := int32(r.Intn(80) + 2)
			m := int64(n) + int64(r.Intn(150))
			if max := int64(n) * int64(n-1) / 2; m > max {
				m = max
			}
			g := graph.UniformWeights(graph.RandomConnectedGNM(n, m, seed), 15, seed^3)
			src := graph.V(r.Int31n(n))
			opt := Options{}
			if boundRaw%2 == 0 {
				opt.MaxDist = graph.Dist(boundRaw)
			}
			a := DeltaStepping(g, []graph.V{src}, opt)
			b := Dijkstra(g, []graph.V{src}, opt)
			for v := range a.Dist {
				if a.Dist[v] != b.Dist[v] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestDeltaSteppingCostAccounting(t *testing.T) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(500, 2000, 51), 10, 52)
	cost := par.NewCost()
	DeltaStepping(g, []graph.V{0}, Options{Cost: cost})
	if cost.Work() < g.NumEdges() {
		t.Fatalf("work %d below edge count %d", cost.Work(), g.NumEdges())
	}
	if cost.Depth() == 0 {
		t.Fatal("no depth recorded")
	}
}

// TestHopLimitedParallelMatches: the CAS-relaxed Bellman–Ford rounds
// are bit-identical to the sequential HopLimited at every hop count.
func TestHopLimitedParallelMatches(t *testing.T) {
	withProcs(t, 4, func() {
		g := graph.UniformWeights(graph.RandomConnectedGNM(400, 1600, 61), 9, 62)
		extra := []graph.Edge{{U: 0, V: 200, W: 3}, {U: 5, V: 399, W: 7}}
		for _, hops := range []int{1, 2, 5, 20, int(g.NumVertices())} {
			seqD := HopLimited(nil, g, extra, []graph.V{0}, hops, nil)
			parD := HopLimitedParallel(nil, g, extra, []graph.V{0}, hops, nil)
			for v := range seqD {
				if seqD[v] != parD[v] {
					t.Fatalf("hops=%d: parallel %d vs sequential %d at %d",
						hops, parD[v], seqD[v], v)
				}
			}
		}
	})
}

func BenchmarkDeltaSteppingRandom(b *testing.B) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(10000, 40000, 1), 50, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DeltaStepping(g, []graph.V{0}, Options{})
	}
}
