package sssp

import (
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/rng"
)

func TestBFSParallelMatchesSequentialDistances(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	cases := []*graph.Graph{
		graph.Path(500),
		graph.Grid2D(40, 40),
		graph.RandomConnectedGNM(2000, 8000, 1),
		graph.Star(100),
	}
	for gi, g := range cases {
		seq := BFS(g, []graph.V{0}, Options{})
		parr := BFSParallel(g, []graph.V{0}, Options{})
		for v := range seq.Dist {
			if seq.Dist[v] != parr.Dist[v] {
				t.Fatalf("graph %d vertex %d: %d vs %d", gi, v, seq.Dist[v], parr.Dist[v])
			}
		}
	}
}

func TestBFSParallelParentsValid(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	g := graph.RandomConnectedGNM(1000, 4000, 2)
	res := BFSParallel(g, []graph.V{0}, Options{})
	// Any parent must be an actual neighbor one level closer.
	for v := graph.V(0); v < g.NumVertices(); v++ {
		p := res.Parent[v]
		if p == graph.NoVertex {
			continue
		}
		if res.Dist[p]+1 != res.Dist[v] {
			t.Fatalf("parent level mismatch at %d", v)
		}
		found := false
		for _, a := range g.Arcs(v) {
			if a.To == p {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("parent %d of %d not adjacent", p, v)
		}
	}
}

func TestBFSParallelRestrictionsAndBounds(t *testing.T) {
	g := graph.Cycle(12)
	mark := make([]int32, 12)
	for i := 0; i < 7; i++ {
		mark[i] = 3
	}
	res := BFSParallel(g, []graph.V{0}, Options{Mark: mark, Token: 3, MaxDist: 4})
	if res.Reached(8) {
		t.Fatal("escaped mark restriction")
	}
	if res.Reached(5) {
		t.Fatal("escaped MaxDist bound")
	}
	if res.Dist[4] != 4 {
		t.Fatalf("dist[4] = %d", res.Dist[4])
	}
}

func TestBFSParallelCost(t *testing.T) {
	g := graph.Grid2D(20, 20)
	cSeq := par.NewCost()
	cPar := par.NewCost()
	BFS(g, []graph.V{0}, Options{Cost: cSeq})
	BFSParallel(g, []graph.V{0}, Options{Cost: cPar})
	if cSeq.Depth() != cPar.Depth() {
		t.Fatalf("depth differs: %d vs %d", cSeq.Depth(), cPar.Depth())
	}
	if cSeq.Work() != cPar.Work() {
		t.Fatalf("work differs: %d vs %d", cSeq.Work(), cPar.Work())
	}
}

// Property: distances agree on arbitrary random graphs and sources.
func TestBFSParallelProperty(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	f := func(seedRaw uint32) bool {
		seed := uint64(seedRaw)
		r := rng.New(seed)
		n := int32(r.Intn(200) + 2)
		m := int64(r.Intn(600))
		if max := int64(n) * int64(n-1) / 2; m > max {
			m = max
		}
		g := graph.RandomGNM(n, m, seed)
		src := []graph.V{r.Int31n(n), r.Int31n(n)}
		a := BFS(g, src, Options{})
		b := BFSParallel(g, src, Options{})
		for v := range a.Dist {
			if a.Dist[v] != b.Dist[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBFSParallelGrid(b *testing.B) {
	g := graph.Grid2D(200, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BFSParallel(g, []graph.V{0}, Options{})
	}
}
