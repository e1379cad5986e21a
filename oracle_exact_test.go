package spanhop

// Differential coverage for the default (exact) engine: every answer a
// default oracle gives — Query, QueryBatch, a DynamicOracle clean,
// dirty and rebuilt, and a flat-arena round trip — must equal
// point-to-point Dijkstra on the graph it answers for.

import (
	"context"
	"testing"

	"repro/internal/sssp"
)

// hopsetOracle builds the opt-in hopset engine, for tests that pin
// hopset behaviour.
func hopsetOracle(g *Graph, eps float64, seed uint64) *DistanceOracle {
	return NewDistanceOracleOpts(g, eps, seed, OracleOptions{Hopset: true})
}

// exactFamilies are the differential inputs: ER, grid and RMAT with
// small weights (Dijkstra on the bucket ring), an unweighted graph,
// and weights up to 2^40 (Dijkstra on the radix heap).
func exactFamilies() []struct {
	name string
	g    *Graph
} {
	return []struct {
		name string
		g    *Graph
	}{
		{"er-weighted", WithUniformWeights(RandomGraph(300, 1200, 1), 50, 2)},
		{"grid-weighted", WithUniformWeights(GridGraph(15, 17), 30, 3)},
		{"rmat-weighted", WithUniformWeights(RMATGraph(8, 900, 4), 25, 5)},
		{"er-unweighted", RandomGraph(200, 500, 6)},
		{"er-wide", WithUniformWeights(RandomGraph(250, 1000, 7), 1<<40, 8)},
	}
}

// serialAnswers answers every pair with one call each.
func serialAnswers(t *testing.T, pairs [][2]V, answer func(s, t V) (QueryStats, error)) []QueryStats {
	t.Helper()
	out := make([]QueryStats, len(pairs))
	for i, p := range pairs {
		st, err := answer(p[0], p[1])
		if err != nil {
			t.Fatalf("(%d,%d): %v", p[0], p[1], err)
		}
		out[i] = st
	}
	return out
}

// checkExact asserts that each answer is DijkstraTo's distance on g,
// with no hopset diagnostics.
func checkExact(t *testing.T, stage string, g *Graph, pairs [][2]V, got []QueryStats) {
	t.Helper()
	for i, p := range pairs {
		want := QueryStats{Dist: sssp.DijkstraTo(g, p[0], p[1], sssp.Options{})}
		if got[i] != want {
			t.Fatalf("%s: (%d,%d) = %+v, DijkstraTo says %+v", stage, p[0], p[1], got[i], want)
		}
	}
}

func TestExactOracleMatchesDijkstra(t *testing.T) {
	for _, f := range exactFamilies() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			g := f.g
			if f.name == "er-wide" && g.MaxWeight() <= 1<<32 {
				t.Fatalf("max weight %d does not reach the radix heap", g.MaxWeight())
			}
			o := NewDistanceOracleOpts(g, 0.25, 11, OracleOptions{})
			if o.HopsetSize() != 0 || o.InstanceCount() != 0 || o.Decomposed() {
				t.Fatalf("default oracle built something: edges=%d instances=%d decomposed=%v",
					o.HopsetSize(), o.InstanceCount(), o.Decomposed())
			}
			if !isExact(o) {
				t.Fatal("default oracle's envelope is not [1, 1]")
			}
			pairs := queryPairs(g.NumVertices(), 40, 21)
			checkExact(t, "Query", g, pairs, serialAnswers(t, pairs, o.QueryStats))
			batch, err := o.QueryBatch(pairs)
			if err != nil {
				t.Fatal(err)
			}
			checkExact(t, "QueryBatch", g, pairs, batch)

			// The flat arena keeps the engine: a mapped exact oracle
			// builds nothing and answers the same.
			mapped, _, err := OpenOracleFile(saveFlatFile(t, o), nil, OracleOptions{})
			if err != nil {
				t.Fatalf("OpenOracleFile: %v", err)
			}
			if !isExact(mapped) || mapped.Degenerate() {
				t.Fatalf("mapped oracle exact=%v degenerate=%v, want an exact oracle",
					isExact(mapped), mapped.Degenerate())
			}
			assertOracleEquivalent(t, "flat", o, mapped, pairs)

			// A dynamic oracle: clean, dirty, and rebuilt.
			d := NewDynamicOracle(o, RebuildPolicy{Disabled: true})
			defer d.Close()
			checkExact(t, "dynamic clean", g, pairs, serialAnswers(t, pairs, d.QueryStats))
			if _, err := d.ApplyUpdates(mutationSequence(g, 12, 31)); err != nil {
				t.Fatal(err)
			}
			if reg, _ := d.TraceInfo(); reg != "degrading" {
				t.Fatalf("regime after mutations = %q, want degrading", reg)
			}
			mutated := d.MutatedGraph()
			checkExact(t, "dynamic dirty", mutated, pairs, serialAnswers(t, pairs, d.QueryStats))
			batch, err = d.QueryBatch(pairs)
			if err != nil {
				t.Fatal(err)
			}
			checkExact(t, "dynamic dirty batch", mutated, pairs, batch)
			if err := d.ForceRebuild(context.Background()); err != nil {
				t.Fatal(err)
			}
			if !isExact(d.Oracle()) {
				t.Fatal("rebuild of an exact oracle built a hopset")
			}
			checkExact(t, "dynamic rebuilt", mutated, pairs, serialAnswers(t, pairs, d.QueryStats))
		})
	}
}

// TestRebuildKeepsHopsetEngine: a rebuild swaps in an oracle of the
// engine it replaces, so a hopset graph stays a hopset graph.
func TestRebuildKeepsHopsetEngine(t *testing.T) {
	g := WithUniformWeights(GridGraph(8, 8), 20, 1)
	d := NewDynamicOracle(hopsetOracle(g, 0.3, 2), RebuildPolicy{Disabled: true})
	defer d.Close()
	if _, err := d.ApplyUpdates(mutationSequence(g, 4, 3)); err != nil {
		t.Fatal(err)
	}
	if err := d.ForceRebuild(context.Background()); err != nil {
		t.Fatal(err)
	}
	if o := d.Oracle(); isExact(o) || o.HopsetSize() == 0 {
		t.Fatalf("rebuilt oracle exact=%v edges=%d, want a hopset", isExact(o), o.HopsetSize())
	}
}

// isExact reports whether o runs the exact engine, whose envelope, and
// only whose, is [1, 1].
func isExact(o *DistanceOracle) bool {
	lo, hi := o.StretchEnvelope()
	return lo == 1 && hi == 1
}
