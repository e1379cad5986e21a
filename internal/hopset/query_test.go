package hopset

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/sssp"
)

// queryPairs draws count random s-t pairs over [0, n).
func queryPairs(n graph.V, count int, seed uint64) [][2]graph.V {
	r := rng.New(seed)
	out := make([][2]graph.V, count)
	for i := range out {
		out[i] = [2]graph.V{r.Int31n(n), r.Int31n(n)}
	}
	return out
}

// answerDigests hashes QueryOn's (Dist, Scale, Fallback) and,
// separately, its Levels over the pairs with FNV-64a.
func answerDigests(s *Scaled, pairs [][2]graph.V) (answers, levels uint64) {
	ha, hl := fnv.New64a(), fnv.New64a()
	for _, p := range pairs {
		q := s.QueryOn(nil, p[0], p[1], nil)
		fmt.Fprintf(ha, "%d %d %v|", q.Dist, q.Scale, q.Fallback)
		fmt.Fprintf(hl, "%d|", q.Levels)
	}
	return ha.Sum64(), hl.Sum64()
}

// TestQueryOnAnswersPinned pins the query engine's answers, band
// choices and fallbacks on a multi-scale grid and an ER graph, and
// separately its depths. The answers are those of the full band race
// (every band searched to its level cap); stopping each band when dst
// settles and capping later bands at the best answer so far must not
// move them. Levels is pinned on its own: it is the sum of the levels
// the serial sweep actually runs, and any change to the kernel's stop
// or caps moves it.
func TestQueryOnAnswersPinned(t *testing.T) {
	for _, tc := range []struct {
		name            string
		g               *graph.Graph
		answers, levels uint64
	}{
		{"multiscale-grid", graph.ExponentialWeights(graph.Grid2D(24, 24), 4, 5, 1), 0x43727f0f9c4708f7, 0x02895782abd0aadc},
		{"er", graph.UniformWeights(graph.RandomConnectedGNM(500, 2000, 3), 1000, 4), 0xb6116ad5e86257c4, 0x34fb4c92253c66f8},
	} {
		s := BuildScaled(tc.g, DefaultWeightedParams(5), nil)
		answers, levels := answerDigests(s, queryPairs(tc.g.NumVertices(), 320, 7))
		if answers != tc.answers {
			t.Errorf("%s: answer digest %#x, want %#x", tc.name, answers, tc.answers)
		}
		if levels != tc.levels {
			t.Errorf("%s: levels digest %#x, want %#x", tc.name, levels, tc.levels)
		}
	}
}

// referenceQueryOn is the full band race QueryOn replaced, kept as the
// differential oracle for TestQueryOnMatchesReference: every band of a
// round runs a full Dial from src out to its level cap, the round's
// best band answers, and the round is costed as its band maximum.
func referenceQueryOn(s *Scaled, src, dst graph.V) QueryResult {
	if src == dst {
		return QueryResult{Dist: 0, Scale: -1}
	}
	n := int(s.Base.NumVertices())
	step := math.Pow(float64(n), s.Params.Eta)
	if step < 2 {
		step = 2
	}
	zeta := s.Params.Zeta
	var total QueryResult
	hbMax := make([]float64, len(s.Scales))
	globalMax := 16.0
	for i, sc := range s.Scales {
		hb := 4 * s.Params.ExpectedHops(n, 2*sc.D/float64(sc.WHat))
		if hb < 16 {
			hb = 16
		}
		if hb > float64(n) {
			hb = float64(n)
		}
		hbMax[i] = hb
		if hb > globalMax {
			globalMax = hb
		}
	}
	esc := s.Params.Escalation
	if esc < 2 {
		esc = 8
	}
	hb0 := s.Params.InitialHopBudget
	if hb0 < 1 {
		hb0 = 16
	}
	prev := make([]float64, len(s.Scales))
	for hb := hb0; ; hb *= esc {
		if hb > globalMax {
			hb = globalMax
		}
		roundCosts := make([]*par.Cost, 0, len(s.Scales))
		bestDist := graph.Dist(-1)
		bestScale := -1
		for idx := range s.Scales {
			b := hb
			if b > hbMax[idx] {
				b = hbMax[idx]
			}
			if b <= prev[idx] {
				continue
			}
			prev[idx] = b
			sc := s.Scales[idx]
			qHat := graph.W(math.Floor(zeta * (sc.D / step) / b))
			if qHat < 1 {
				qHat = 1
			}
			levelCap := graph.Dist(math.Ceil(2*sc.D/float64(qHat))) +
				graph.Dist(math.Ceil(b)) + 16
			bandCost := par.NewCost()
			res := sssp.Dial(s.Augmented(), []graph.V{src}, sssp.Options{
				Cost: bandCost, MaxDist: levelCap, Round: qHat,
			})
			roundCosts = append(roundCosts, bandCost)
			total.Work += bandCost.Work()
			if res.Reached(dst) {
				cand := graph.Dist(qHat) * res.Dist[dst]
				if bestDist < 0 || cand < bestDist {
					bestDist, bestScale = cand, idx
				}
			}
		}
		round := par.NewCost()
		round.JoinMax(roundCosts...)
		total.Levels += round.Depth()
		if bestDist >= 0 {
			total.Dist, total.Scale = bestDist, bestScale
			return total
		}
		if hb >= globalMax {
			break
		}
	}
	fb := par.NewCost()
	res := sssp.Dijkstra(s.Augmented(), []graph.V{src}, sssp.Options{Cost: fb})
	total.Levels += fb.Depth()
	total.Work += fb.Work()
	total.Dist, total.Scale, total.Fallback = res.Dist[dst], -1, true
	return total
}

// TestQueryOnMatchesReference: on ER, R-MAT (disconnected, so the
// Dijkstra fallback answers some pairs) and multi-scale grid graphs at
// several seeds, and on the disconnected graph of TestQueryDisconnected,
// QueryOn returns the full band race's Dist, Scale and Fallback for
// every pair, with no more relaxation work.
func TestQueryOnMatchesReference(t *testing.T) {
	type instance struct {
		name string
		g    *graph.Graph
	}
	var instances []instance
	for seed := uint64(1); seed <= 3; seed++ {
		instances = append(instances,
			instance{fmt.Sprintf("er/%d", seed), graph.UniformWeights(graph.RandomConnectedGNM(300, 1200, seed), 1000, seed+10)},
			instance{fmt.Sprintf("rmat/%d", seed), graph.UniformWeights(graph.RMAT(8, 700, 0.57, 0.19, 0.19, seed), 200, seed+20)},
			instance{fmt.Sprintf("multiscale-grid/%d", seed), graph.ExponentialWeights(graph.Grid2D(16, 16), 4, 5, seed)})
	}
	instances = append(instances, instance{"disconnected",
		graph.FromEdges(10, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}}, false)})
	fallbacks := 0
	for _, in := range instances {
		s := BuildScaled(in.g, DefaultWeightedParams(5), nil)
		ec := exec.Sequential()
		pairs := append(queryPairs(in.g.NumVertices(), 60, 11), [2]graph.V{0, 3})
		for _, p := range pairs {
			got := s.QueryOn(ec, p[0], p[1], nil)
			want := referenceQueryOn(s, p[0], p[1])
			if got.Dist != want.Dist || got.Scale != want.Scale || got.Fallback != want.Fallback {
				t.Fatalf("%s %v: QueryOn %+v, reference %+v", in.name, p, got, want)
			}
			if got.Work > want.Work {
				t.Fatalf("%s %v: QueryOn work %d exceeds the reference's %d", in.name, p, got.Work, want.Work)
			}
			if got.Fallback {
				fallbacks++
			}
		}
	}
	if fallbacks == 0 {
		t.Fatal("no pair took the fallback: the test must cover it")
	}
}

// TestSharedBandsCountedOnce: bands whose rounding collapses to ŵ = 1
// over the same edges share one Result, and Size, Edges and the
// augmented query graph hold its edges once.
func TestSharedBandsCountedOnce(t *testing.T) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(300, 900, 5), 2, 6)
	s := BuildScaled(g, DefaultWeightedParams(7), nil)
	results, index := s.Results()
	if len(results) >= len(s.Scales) {
		t.Fatalf("%d bands over %d distinct results: the test needs shared bands", len(s.Scales), len(results))
	}
	distinct := 0
	for _, res := range results {
		distinct += res.Size()
	}
	for i, sc := range s.Scales {
		if results[index[i]] != sc.Res {
			t.Fatalf("band %d indexes result %d, not its own", i, index[i])
		}
	}
	if s.Size() != distinct || len(s.Edges()) != distinct {
		t.Fatalf("Size %d, len(Edges) %d, want the distinct total %d", s.Size(), len(s.Edges()), distinct)
	}
	if got, want := s.Augmented().NumEdges(), s.Base.NumEdges()+int64(s.Size()); got != want {
		t.Fatalf("augmented graph has %d edges, want %d", got, want)
	}
}

// TestQueryOnConcurrentCold: GOMAXPROCS goroutines querying one cold
// Scaled (no augmented graph yet) return exactly the serial answers.
func TestQueryOnConcurrentCold(t *testing.T) {
	g := graph.ExponentialWeights(graph.Grid2D(16, 16), 4, 4, 2)
	built := BuildScaled(g, DefaultWeightedParams(3), nil)
	pairs := queryPairs(g.NumVertices(), 64, 9)
	want := make([]QueryResult, len(pairs))
	for i, p := range pairs {
		want[i] = built.QueryOn(nil, p[0], p[1], nil)
	}
	cold := NewScaled(built.Base, built.Scales, built.Params)
	workers := max(runtime.GOMAXPROCS(0), 2)
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ec := exec.Sequential()
			for k := range pairs {
				i := (k + w*len(pairs)/workers) % len(pairs)
				if got := cold.QueryOn(ec, pairs[i][0], pairs[i][1], nil); got != want[i] {
					errs <- fmt.Sprintf("worker %d pair %d: %+v, want %+v", w, i, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// BenchmarkScaledQueryOn times one point-to-point query through the
// band sweep on serve-hot's graph shape (a 64×64 grid, uniform weights
// up to 50, ζ = 0.25), cycling over 64 fixed random pairs on an
// execution context, and reports the sweep's relaxations and levels
// per query.
func BenchmarkScaledQueryOn(b *testing.B) {
	g := graph.UniformWeights(graph.Grid2D(64, 64), 50, 1)
	wp := DefaultWeightedParams(1)
	wp.Zeta = 0.25
	s := BuildScaled(g, wp, nil)
	pairs := queryPairs(g.NumVertices(), 64, 3)
	ec := exec.Sequential()
	s.QueryOn(ec, pairs[0][0], pairs[0][1], nil) // build the augmented graph
	var work, levels int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		q := s.QueryOn(ec, p[0], p[1], nil)
		work += q.Work
		levels += q.Levels
	}
	b.ReportMetric(float64(work)/float64(b.N), "work/op")
	b.ReportMetric(float64(levels)/float64(b.N), "levels/op")
}
