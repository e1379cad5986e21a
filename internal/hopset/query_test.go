package hopset

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
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
// separately its depths. The answers are those of the full power-of-two
// band race (every band searched to its level cap at ŵ = 2^⌊log₂(ζ·d/h)⌋);
// stopping each band when dst settles, skipping the bands whose ŵ is a
// multiple of the answer's and capping the others at the best answer
// so far must not move them. Levels is pinned on its own: it is the
// sum of the levels the serial sweep actually runs, and any change to
// the kernel's stop, skips or caps moves it.
func TestQueryOnAnswersPinned(t *testing.T) {
	for _, tc := range []struct {
		name            string
		g               *graph.Graph
		answers, levels uint64
	}{
		{"multiscale-grid", graph.ExponentialWeights(graph.Grid2D(24, 24), 4, 5, 1), 0x43727f0f9c4708f7, 0xd823901d7f64758e},
		{"er", graph.UniformWeights(graph.RandomConnectedGNM(500, 2000, 3), 1000, 4), 0x7ef1dd42b4108c77, 0xf1a33202bd1b528a},
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

// referenceQueryOn is the full power-of-two band race QueryOn sweeps,
// kept as the differential oracle for TestQueryOnMatchesReference:
// every band of a round runs a full Dial from src out to its level cap
// at ŵ = 2^⌊log₂(ζ·d/h)⌋, with no band skipped, the round's best band
// answers (the earliest on a tie), and the round is costed as its band
// maximum. finer reports whether, in the answering round, a band after
// the first one to reach dst had a strictly finer ŵ than it, so the
// sweep had to run it rather than skip it.
func referenceQueryOn(s *Scaled, src, dst graph.V) (total QueryResult, finer bool) {
	if src == dst {
		return QueryResult{Dist: 0, Scale: -1}, false
	}
	n := int(s.Base.NumVertices())
	step := math.Pow(float64(n), s.Params.Eta)
	if step < 2 {
		step = 2
	}
	zeta := s.Params.Zeta
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
		firstQ := graph.W(0) // ŵ of the first band to reach dst
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
			shift := uint(0)
			for q := zeta * (sc.D / step) / b; q >= 2; q /= 2 {
				shift++
			}
			qHat := graph.W(1) << shift
			if firstQ > 0 && qHat < firstQ {
				finer = true
			}
			levelCap := graph.Dist(math.Ceil(2*sc.D/float64(qHat))) +
				graph.Dist(math.Ceil(b)) + 16
			bandCost := par.NewCost()
			res := sssp.Dial(s.Augmented(), []graph.V{src}, sssp.Options{
				Cost: bandCost, MaxDist: levelCap, Shift: shift,
			})
			roundCosts = append(roundCosts, bandCost)
			total.Work += bandCost.Work()
			if res.Reached(dst) {
				if firstQ == 0 {
					firstQ = qHat
				}
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
			return total, finer
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
	return total, false
}

// clampedBand returns s with band k's hop-budget ceiling cut to the
// floor of 16, by scaling the build granularity WHat it is derived
// from, and queried from a first hop budget of 128. Band k then runs
// at 16 hops while band k+1 runs at 128, so its ŵ is coarser than band
// k+1's. BuildScaled never makes such bands (a later band's ŵ is never
// finer within a round), but the sweep must stay exact on any Scaled.
func clampedBand(s *Scaled, k int) *Scaled {
	scales := slices.Clone(s.Scales)
	sc := &scales[k]
	hbMax := 4 * s.Params.ExpectedHops(int(s.Base.NumVertices()), 2*sc.D/float64(sc.WHat))
	sc.WHat = graph.W(float64(sc.WHat) * hbMax / 16)
	wp := s.Params
	wp.InitialHopBudget = 128
	return NewScaled(s.Base, scales, wp)
}

// TestQueryOnMatchesReference: on ER, R-MAT (disconnected, so the
// Dijkstra fallback answers some pairs) and multi-scale grid graphs at
// several seeds, on a multi-scale 4×2048 ladder, and on the
// disconnected graph of TestQueryDisconnected, QueryOn returns the full
// power-of-two band race's Dist, Scale and Fallback for every pair,
// with no more relaxation work. The ladder, on fewer pairs since the
// reference searches every band to its cap, is also queried through
// clampedBand, where pairs have a band after the first answer with a
// finer ŵ, which the sweep must run, not skip.
func TestQueryOnMatchesReference(t *testing.T) {
	type instance struct {
		name  string
		s     *Scaled
		pairs int
	}
	build := func(g *graph.Graph) *Scaled { return BuildScaled(g, DefaultWeightedParams(5), nil) }
	var instances []instance
	for seed := uint64(1); seed <= 3; seed++ {
		instances = append(instances,
			instance{fmt.Sprintf("er/%d", seed), build(graph.UniformWeights(graph.RandomConnectedGNM(300, 1200, seed), 1000, seed+10)), 60},
			instance{fmt.Sprintf("rmat/%d", seed), build(graph.UniformWeights(graph.RMAT(8, 700, 0.57, 0.19, 0.19, seed), 200, seed+20)), 60},
			instance{fmt.Sprintf("multiscale-grid/%d", seed), build(graph.ExponentialWeights(graph.Grid2D(16, 16), 4, 5, seed)), 60})
	}
	ladder := build(graph.ExponentialWeights(graph.Grid2D(4, 2048), 4, 5, 1))
	instances = append(instances,
		instance{"ladder", ladder, 16},
		instance{"ladder/clamped-band-6", clampedBand(ladder, 6), 16},
		instance{"disconnected", build(graph.FromEdges(10, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}}, false)), 60})
	fallbacks, finer := 0, 0
	for _, in := range instances {
		s := in.s
		ec := exec.Sequential()
		pairs := append(queryPairs(s.Base.NumVertices(), in.pairs, 11), [2]graph.V{0, 3})
		for _, p := range pairs {
			got := s.QueryOn(ec, p[0], p[1], nil)
			want, f := referenceQueryOn(s, p[0], p[1])
			if f {
				finer++
			}
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
	if finer == 0 {
		t.Fatal("no pair had a finer band after the first answer: the test must cover one")
	}
}

// TestQueryOnStretchNotWorse: on serve-hot's uniform 64×64 grid,
// offline-road's multi-scale 100×100 grid and a multi-scale 4×4096
// ladder, the mean and max stretch of QueryOn over 64 fixed pairs,
// against ExactDistance, are no worse than before bands were rounded
// to power-of-two granularities. The bounds are the earlier sweep's
// figures on the same pairs, rounded up in the sixth decimal. It runs
// one goroutine, so the race detector would only slow it twentyfold.
func TestQueryOnStretchNotWorse(t *testing.T) {
	if raceEnabled {
		t.Skip("sequential quality check; nothing for the race detector")
	}
	for _, tc := range []struct {
		name      string
		g         *graph.Graph
		mean, max float64
	}{
		{"serve-grid", graph.UniformWeights(graph.Grid2D(64, 64), 50, 1), 1.013768, 1.066607},
		{"road-grid", graph.ExponentialWeights(graph.Grid2D(100, 100), 4, 5, 1), 1.011934, 1.037176},
		{"ladder", graph.ExponentialWeights(graph.Grid2D(4, 4096), 4, 5, 1), 1.055964, 1.133201},
	} {
		s := BuildScaled(tc.g, DefaultWeightedParams(1), nil)
		ec := exec.Sequential()
		pairs := queryPairs(tc.g.NumVertices(), 64, 5)
		var sum, worst float64
		for _, p := range pairs {
			exact := s.ExactDistance(p[0], p[1])
			got := s.QueryOn(ec, p[0], p[1], nil).Dist
			stretch := 1.0
			if exact > 0 {
				stretch = float64(got) / float64(exact)
			}
			sum += stretch
			worst = max(worst, stretch)
		}
		if mean := sum / float64(len(pairs)); mean > tc.mean || worst > tc.max {
			t.Errorf("%s: stretch mean %.6f, max %.6f; want at most %.6f, %.6f", tc.name, mean, worst, tc.mean, tc.max)
		}
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
	wp := DefaultWeightedParams(1)
	wp.Zeta = 0.25
	benchmarkQueryOn(b, graph.UniformWeights(graph.Grid2D(64, 64), 50, 1), wp)
}

func benchmarkQueryOn(b *testing.B, g *graph.Graph, wp WeightedParams) {
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

// BenchmarkScaledQueryOnRoad is BenchmarkScaledQueryOn on offline-road's
// graph shape: a 100×100 grid with multi-scale weights (base 4, five
// scales), where the sweep runs the most bands per query.
func BenchmarkScaledQueryOnRoad(b *testing.B) {
	benchmarkQueryOn(b, graph.ExponentialWeights(graph.Grid2D(100, 100), 4, 5, 1), DefaultWeightedParams(1))
}
