package eval

import (
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/spanner"
)

func TestSpannerStretchExactOnFullGraph(t *testing.T) {
	g := graph.UniformWeights(graph.RandomConnectedGNM(60, 200, 1), 7, 2)
	all := make([]int32, g.NumEdges())
	for i := range all {
		all[i] = int32(i)
	}
	st := SpannerStretch(g, all, 1000, 3)
	if st.Samples == 0 {
		t.Fatal("no samples")
	}
	// The full graph has stretch exactly 1... unless an edge is not
	// its endpoints' shortest path, in which case ratio < 1. Max must
	// be ≤ 1.
	if st.Max > 1+1e-9 {
		t.Fatalf("full graph max stretch %v", st.Max)
	}
}

func TestSpannerStretchDetectsRealStretch(t *testing.T) {
	// Cycle: removing one edge gives stretch n-1 for that edge.
	g := graph.Cycle(10)
	ids := make([]int32, 0, 9)
	for e := int32(1); e < 10; e++ {
		ids = append(ids, e)
	}
	st := SpannerStretch(g, ids, 1000, 4)
	if st.Max < 9-1e-9 {
		t.Fatalf("max stretch %v, want 9", st.Max)
	}
}

func TestSpannerStretchOnRealSpanner(t *testing.T) {
	g := graph.RandomConnectedGNM(400, 2000, 5)
	res := spanner.Unweighted(g, 3, 6, spanner.Options{})
	st := SpannerStretch(g, res.EdgeIDs, 300, 7)
	if math.IsInf(st.Max, 1) {
		t.Fatal("spanner disconnected an edge")
	}
	if st.Mean < 1 || st.Max < st.Mean {
		t.Fatalf("inconsistent stats: mean %v max %v", st.Mean, st.Max)
	}
}

func TestHopsForApprox(t *testing.T) {
	g := graph.Path(50)
	// Without shortcuts: need exactly the hop distance.
	if h := HopsForApprox(g, nil, 0, 49, 0.0); h != 49 {
		t.Fatalf("path hops = %d, want 49", h)
	}
	// One big shortcut: 1 hop.
	extra := []graph.Edge{{U: 0, V: 49, W: 49}}
	if h := HopsForApprox(g, extra, 0, 49, 0.0); h != 1 {
		t.Fatalf("shortcut hops = %d, want 1", h)
	}
	// Approximate shortcut within eps.
	extra = []graph.Edge{{U: 0, V: 49, W: 54}}
	if h := HopsForApprox(g, extra, 0, 49, 0.2); h != 1 {
		t.Fatalf("approx shortcut hops = %d, want 1", h)
	}
	if h := HopsForApprox(g, extra, 0, 49, 0.05); h <= 1 {
		t.Fatalf("tight eps should reject the 54-weight shortcut, got %d", h)
	}
}

func TestHopsForApproxDisconnected(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}}, false)
	if h := HopsForApprox(g, nil, 0, 3, 0.1); h != -1 {
		t.Fatalf("disconnected hops = %d, want -1", h)
	}
}

func TestHopsetHops(t *testing.T) {
	g := graph.Path(40)
	pairs := [][2]graph.V{{0, 39}, {5, 35}, {0, 10}}
	st := HopsetHops(g, nil, pairs, 0)
	if st.Samples != 3 {
		t.Fatalf("samples = %d", st.Samples)
	}
	if st.Max != 39 || st.P50 != 30 {
		t.Fatalf("max %v p50 %v, want 39 / 30", st.Max, st.P50)
	}
}

func TestMeanQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if m := Mean(xs); m != 3 {
		t.Fatalf("mean %v", m)
	}
	if Mean(nil) != 0 {
		t.Fatal("mean of empty should be 0")
	}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Fatalf("median %v", q)
	}
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("q0 %v", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Fatalf("q1 %v", q)
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("quantile of empty should be 0")
	}
}

func TestRandomPairs(t *testing.T) {
	g := graph.Path(10)
	pairs := RandomPairs(g, 50, 1)
	if len(pairs) != 50 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	for _, p := range pairs {
		if p[0] == p[1] || p[0] < 0 || p[1] >= 10 {
			t.Fatalf("bad pair %v", p)
		}
	}
	if RandomPairs(graph.FromEdges(1, nil, false), 5, 1) != nil {
		t.Fatal("single-vertex graph should yield no pairs")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Demo", "algo", "size", "stretch")
	tb.Add("ours", "123", "3.5")
	tb.Addf("baswana-sen", 456, 7.25)
	out := tb.RenderString()
	for _, want := range []string{"== Demo ==", "algo", "ours", "baswana-sen", "456", "7.250"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{3, "3"}, {3.5, "3.500"}, {123.456, "123.5"}, {0.001, "0.001"},
	}
	for _, c := range cases {
		if got := FormatFloat(c.in); got != c.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}
