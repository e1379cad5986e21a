package hopset

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/rng"
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

// answerDigest hashes QueryOn's (Dist, Scale, Levels, Fallback) over
// the pairs with FNV-64a.
func answerDigest(s *Scaled, pairs [][2]graph.V) uint64 {
	h := fnv.New64a()
	for _, p := range pairs {
		q := s.QueryOn(nil, p[0], p[1], nil)
		fmt.Fprintf(h, "%d %d %d %v|", q.Dist, q.Scale, q.Levels, q.Fallback)
	}
	return h.Sum64()
}

// TestQueryOnAnswersPinned pins the query engine's answers, band
// choices, depths and fallbacks on a multi-scale grid and an ER graph.
// Rounding inside the band search instead of on a rounded graph copy,
// and searching each shared band's hopset once, must not move any of
// them: only the relaxation count (Work) may change.
func TestQueryOnAnswersPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		want uint64
	}{
		{"multiscale-grid", graph.ExponentialWeights(graph.Grid2D(24, 24), 4, 5, 1), 0x36367f3340ec2e4f},
		{"er", graph.UniformWeights(graph.RandomConnectedGNM(500, 2000, 3), 1000, 4), 0x943acadcd2594487},
	} {
		s := BuildScaled(tc.g, DefaultWeightedParams(5), nil)
		if got := answerDigest(s, queryPairs(tc.g.NumVertices(), 320, 7)); got != tc.want {
			t.Errorf("%s: answer digest %#x, want %#x", tc.name, got, tc.want)
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
