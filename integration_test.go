package spanhop

// Integration tests: compositions across subsystems that no single
// package exercises on its own.

import (
	"bytes"
	"testing"

	"repro/internal/distsim"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sparsify"
)

// TestSpannerThenOracle composes the two headline results: sparsify a
// weighted graph with the O(k)-spanner, then build the (1+ε) distance
// oracle on the spanner. Oracle answers on the spanner must be within
// the spanner's stretch envelope of the original graph's distances.
func TestSpannerThenOracle(t *testing.T) {
	g := WithUniformWeights(RandomGraph(800, 8000, 1), 20, 2)
	k := 3
	sp := WeightedSpanner(g, k, 3)
	h := sp.Graph(g)
	if h.NumEdges() >= g.NumEdges() {
		t.Fatal("spanner did not sparsify")
	}
	oracle := hopsetOracle(h, 0.25, 4)
	r := rng.New(5)
	for i := 0; i < 10; i++ {
		s := r.Int31n(g.NumVertices())
		u := r.Int31n(g.NumVertices())
		if s == u {
			continue
		}
		truth := ShortestPaths(g, s).Dist[u]
		approx, err := oracle.Query(s, u)
		if err != nil {
			t.Fatal(err)
		}
		// Lower bound: oracle on a subgraph can never undershoot the
		// full graph's distance by more than the decomposition ε (no
		// decomposition here: single scale weights).
		if approx < truth {
			t.Fatalf("oracle on spanner returned %d below true %d", approx, truth)
		}
		// Upper bound: spanner stretch O(k) times oracle (1+ε̃).
		if float64(approx) > float64(24*k)*float64(truth) {
			t.Fatalf("composed stretch too large: %d vs %d", approx, truth)
		}
	}
}

// TestSparsifyThenSpanner chains Koutis sparsification with a second
// spanner pass: the pipeline must keep shrinking the graph while
// preserving connectivity.
func TestSparsifyThenSpanner(t *testing.T) {
	g := RandomGraph(600, 18000, 6)
	sparse := sparsify.Spectral(g, sparsify.Options{K: 2, BundleSize: 2, MaxRounds: 8, Seed: 7})
	h := sparse.Graph(g.NumVertices())
	if h.NumEdges() >= g.NumEdges() {
		t.Fatal("sparsifier did not shrink")
	}
	sp := WeightedSpanner(h, 2, 8)
	if int64(sp.Size()) > h.NumEdges() {
		t.Fatal("spanner larger than input")
	}
	final := sp.Graph(h)
	if _, count := final.Components(); count != 1 {
		t.Fatal("pipeline disconnected the graph")
	}
}

// TestDistributedMatchesSharedMemorySize: the CONGEST-port spanner and
// the shared-memory spanner see the same clustering, so their sizes
// land in the same ballpark (selection rules differ slightly: weight
// vs id tie-breaks).
func TestDistributedMatchesSharedMemorySize(t *testing.T) {
	g := RandomGraph(300, 2400, 9)
	k := 3
	pairs, stats, err := distsim.DistributedSpanner(g, k, 11)
	if err != nil {
		t.Fatal(err)
	}
	shared := UnweightedSpanner(g, k, 11)
	lo, hi := shared.Size()/2, shared.Size()*2
	if len(pairs) < lo || len(pairs) > hi {
		t.Fatalf("distributed size %d far from shared-memory %d", len(pairs), shared.Size())
	}
	if stats.Rounds == 0 || stats.Messages == 0 {
		t.Fatal("no distributed activity recorded")
	}
}

// TestSerializationPipeline round-trips a graph through the on-disk
// format and verifies the seeded algorithms reproduce identical
// results on the reloaded copy.
func TestSerializationPipeline(t *testing.T) {
	g := WithMultiScaleWeights(RandomGraph(200, 1000, 12), 4, 8, 13)
	var buf bytes.Buffer
	if err := graph.WriteText(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := graph.ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := WeightedSpanner(g, 3, 14)
	b := WeightedSpanner(back, 3, 14)
	if a.Size() != b.Size() {
		t.Fatalf("spanner differs after round trip: %d vs %d", a.Size(), b.Size())
	}
	for i := range a.EdgeIDs {
		if a.EdgeIDs[i] != b.EdgeIDs[i] {
			t.Fatal("spanner edge ids differ after round trip")
		}
	}
}

// TestHopsetOnSpanner: hopsets compose with spanners — building the
// hopset on the spanner instead of the full graph preserves the hop
// reduction at a fraction of the edge budget (the paper's constructions
// are designed to stack this way).
func TestHopsetOnSpanner(t *testing.T) {
	g := GridGraph(36, 36)
	sp := UnweightedSpanner(g, 2, 15)
	h := sp.Graph(g)
	p := DefaultHopsetParams(16)
	p.Gamma2 = 0.6
	hs := BuildHopset(h, p)
	if hs.Size() == 0 {
		t.Fatal("no hopset on spanner")
	}
	// Hop count on the augmented spanner must beat plain BFS on the
	// original graph for a far pair (corner to corner).
	s, u := V(0), g.NumVertices()-1
	hops := eval.HopsForApprox(h, hs.Edges, s, u, 1.0)
	plain := eval.HopsForApprox(g, nil, s, u, 0.0)
	if hops <= 0 || plain <= 0 {
		t.Fatal("no hops measured")
	}
	if hops >= plain {
		t.Fatalf("hopset-on-spanner hops %d not below plain %d", hops, plain)
	}
}

// TestOracleAgreesWithHopLimited: the oracle's answer is always
// certified by some finite-hop path in the augmented graph.
func TestOracleAgreesWithHopLimited(t *testing.T) {
	g := WithUniformWeights(GridGraph(20, 20), 50, 17)
	o := hopsetOracle(g, 0.25, 18)
	r := rng.New(19)
	for i := 0; i < 6; i++ {
		s := r.Int31n(g.NumVertices())
		u := r.Int31n(g.NumVertices())
		if s == u {
			continue
		}
		approx, err := o.Query(s, u)
		if err != nil {
			t.Fatal(err)
		}
		exact := o.ExactDistance(s, u)
		if approx < exact || float64(approx) > 2.2*float64(exact) {
			t.Fatalf("oracle answer %d outside [exact, 2.2·exact] of %d", approx, exact)
		}
	}
}
