package spanhop

// Differential coverage for oracle snapshots: save → load must answer
// bit-identically to the in-memory oracle across every graph family
// and oracle shape (direct, decomposed, degenerate), because a
// warm-started daemon replaces a freshly built oracle wholesale.

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"
)

// queryPairs samples a deterministic mix of s-t pairs including
// identical, adjacent, and far endpoints.
func queryPairs(n int32, count int, seed int64) [][2]V {
	r := rand.New(rand.NewSource(seed))
	pairs := make([][2]V, 0, count+2)
	if n > 0 {
		pairs = append(pairs, [2]V{0, 0}, [2]V{0, n - 1})
	}
	for i := 0; i < count; i++ {
		pairs = append(pairs, [2]V{V(r.Int31n(n)), V(r.Int31n(n))})
	}
	return pairs
}

func assertOracleEquivalent(t *testing.T, name string, want, got *DistanceOracle, pairs [][2]V) {
	t.Helper()
	if got.Eps() != want.Eps() || got.Seed() != want.Seed() {
		t.Fatalf("%s: restored eps/seed = %v/%d, want %v/%d",
			name, got.Eps(), got.Seed(), want.Eps(), want.Seed())
	}
	if got.Degenerate() != want.Degenerate() || got.Decomposed() != want.Decomposed() {
		t.Fatalf("%s: restored shape degenerate=%v decomposed=%v, want %v/%v",
			name, got.Degenerate(), got.Decomposed(), want.Degenerate(), want.Decomposed())
	}
	if got.InstanceCount() != want.InstanceCount() || got.HopsetSize() != want.HopsetSize() {
		t.Fatalf("%s: restored instances=%d hopset=%d, want %d/%d",
			name, got.InstanceCount(), got.HopsetSize(), want.InstanceCount(), want.HopsetSize())
	}
	wantRes, err := want.QueryBatch(pairs)
	if err != nil {
		t.Fatalf("%s: original QueryBatch: %v", name, err)
	}
	gotRes, err := got.QueryBatch(pairs)
	if err != nil {
		t.Fatalf("%s: restored QueryBatch: %v", name, err)
	}
	for i := range pairs {
		if wantRes[i] != gotRes[i] {
			t.Fatalf("%s: pair %v: restored %+v != original %+v",
				name, pairs[i], gotRes[i], wantRes[i])
		}
	}
}

func saveLoad(t *testing.T, o *DistanceOracle, g *Graph) *DistanceOracle {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveOracle(&buf, o); err != nil {
		t.Fatalf("SaveOracle: %v", err)
	}
	back, err := LoadOracle(bytes.NewReader(buf.Bytes()), g, OracleOptions{})
	if err != nil {
		t.Fatalf("LoadOracle: %v", err)
	}
	return back
}

func TestSnapshotRoundTripFamilies(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
	}{
		{"er-unweighted", RandomGraph(220, 900, 7)},
		{"er-weighted", WithUniformWeights(RandomGraph(220, 900, 8), 40, 9)},
		{"rmat-unweighted", RMATGraph(7, 600, 10)},
		{"rmat-weighted", WithUniformWeights(RMATGraph(7, 600, 11), 25, 12)},
		{"grid-unweighted", GridGraph(12, 13)},
		{"grid-weighted", WithUniformWeights(GridGraph(12, 13), 30, 13)},
		{"grid-multiscale", WithMultiScaleWeights(GridGraph(9, 9), 10, 24, 14)},
		{"er-multiscale", WithMultiScaleWeights(RandomGraph(150, 600, 15), 10, 20, 16)},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			o := hopsetOracle(tc.g, 0.3, 42)
			pairs := queryPairs(tc.g.NumVertices(), 30, 99)
			// Load both against the caller graph and self-contained.
			back := saveLoad(t, o, tc.g)
			assertOracleEquivalent(t, tc.name, o, back, pairs)
			var buf bytes.Buffer
			if err := SaveOracle(&buf, o); err != nil {
				t.Fatalf("SaveOracle: %v", err)
			}
			selfContained, err := LoadOracle(&buf, nil, OracleOptions{})
			if err != nil {
				t.Fatalf("LoadOracle(nil graph): %v", err)
			}
			assertOracleEquivalent(t, tc.name+"/embedded", o, selfContained, pairs)
		})
	}
}

func TestSnapshotRoundTripDecomposed(t *testing.T) {
	// Extreme weight ratio forces the Appendix B decomposition.
	g := WithMultiScaleWeights(RandomGraph(120, 480, 21), 10, 30, 22)
	o := hopsetOracle(g, 0.25, 5)
	if !o.Decomposed() {
		t.Fatal("test graph did not trigger the weight-class decomposition")
	}
	back := saveLoad(t, o, g)
	if !back.Decomposed() {
		t.Fatal("restored oracle lost the decomposition")
	}
	assertOracleEquivalent(t, "decomposed", o, back, queryPairs(g.NumVertices(), 40, 7))
}

func TestSnapshotRoundTripDegenerate(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"single-vertex", NewGraph(1, nil, false)},
		{"no-edges", NewGraph(5, nil, false)},
	} {
		o := hopsetOracle(tc.g, 0.5, 3)
		if !o.Degenerate() {
			t.Fatalf("%s: oracle not degenerate", tc.name)
		}
		back := saveLoad(t, o, tc.g)
		if !back.Degenerate() {
			t.Fatalf("%s: restored oracle not degenerate", tc.name)
		}
		if tc.g.NumVertices() >= 2 {
			assertOracleEquivalent(t, tc.name, o, back, [][2]V{{0, 1}, {1, 1}, {0, 4}})
		}
		if _, err := back.Query(0, 0); err != nil {
			t.Fatalf("%s: restored degenerate query: %v", tc.name, err)
		}
	}
}

func TestSnapshotParallelQueryEquivalence(t *testing.T) {
	// A restored oracle handed a parallel query context must still
	// answer bit-identically (queries are context-invariant).
	g := WithUniformWeights(RandomGraph(200, 800, 31), 20, 32)
	o := hopsetOracle(g, 0.3, 9)
	var buf bytes.Buffer
	if err := SaveOracle(&buf, o); err != nil {
		t.Fatalf("SaveOracle: %v", err)
	}
	back, err := LoadOracle(&buf, g, OracleOptions{QueryExec: ParallelExec(0)})
	if err != nil {
		t.Fatalf("LoadOracle: %v", err)
	}
	assertOracleEquivalent(t, "parallel-query", o, back, queryPairs(g.NumVertices(), 40, 11))
}

func TestSnapshotRejectsCanceledBuild(t *testing.T) {
	// A cancel-aborted build leaves bands without hopsets; SaveOracle
	// must return an error, not panic and not freeze the partial
	// oracle to disk.
	g := WithUniformWeights(RandomGraph(300, 1200, 51), 25, 52)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the build starts
	ec := NewExecCtx(ctx, 2)
	o := NewDistanceOracleOpts(g, 0.3, 9, OracleOptions{Hopset: true, Exec: ec})
	var buf bytes.Buffer
	err := SaveOracle(&buf, o)
	if err == nil {
		t.Fatal("SaveOracle accepted a cancel-aborted oracle")
	}
	if !strings.Contains(err.Error(), "partial") {
		t.Fatalf("error %q does not name the partial oracle", err)
	}
}

func TestSnapshotFingerprintMismatch(t *testing.T) {
	g := WithUniformWeights(GridGraph(8, 8), 9, 1)
	o := NewDistanceOracleOpts(g, 0.3, 2, OracleOptions{})
	var buf bytes.Buffer
	if err := SaveOracle(&buf, o); err != nil {
		t.Fatalf("SaveOracle: %v", err)
	}
	other := WithUniformWeights(GridGraph(8, 8), 9, 2) // same shape, different weights
	if _, err := LoadOracle(bytes.NewReader(buf.Bytes()), other, OracleOptions{}); err == nil {
		t.Fatal("LoadOracle accepted a mismatched graph")
	} else if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("mismatch error %q does not mention the fingerprint", err)
	}
}

func TestSnapshotNoteRoundTrip(t *testing.T) {
	g := GridGraph(6, 6)
	o := NewDistanceOracleOpts(g, 0.4, 8, OracleOptions{})
	note := []byte(`{"gen":"grid:rows=6,cols=6"}`)
	var buf bytes.Buffer
	if err := SaveOracleNote(&buf, o, note); err != nil {
		t.Fatalf("SaveOracleNote: %v", err)
	}
	_, got, err := LoadOracleNote(&buf, g, OracleOptions{})
	if err != nil {
		t.Fatalf("LoadOracleNote: %v", err)
	}
	if !bytes.Equal(got, note) {
		t.Fatalf("note round-trip: got %q, want %q", got, note)
	}
}
