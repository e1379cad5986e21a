// Package eval provides the measurement toolkit the benchmark harness
// uses to regenerate the paper's tables: spanner stretch measurement,
// hopset hop-count measurement, summary statistics, and plain-text
// table rendering.
package eval

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sssp"
)

// StretchStats summarizes measured multiplicative stretch.
type StretchStats struct {
	Max, Mean float64
	Samples   int
}

// SpannerStretch measures distH(u,v)/w(u,v) for up to `samples`
// randomly chosen edges of g (checking edge endpoints suffices to
// bound spanner stretch). Queries sharing a source share one Dijkstra.
func SpannerStretch(g *graph.Graph, spannerIDs []int32, samples int, seed uint64) StretchStats {
	m := g.NumEdges()
	if m == 0 || samples <= 0 {
		return StretchStats{}
	}
	h := g.SubgraphFromEdgeIDs(spannerIDs)
	r := rng.New(seed)
	bySource := map[graph.V][]int32{}
	if int64(samples) >= m {
		for e := int32(0); int64(e) < m; e++ {
			bySource[g.Edges()[e].U] = append(bySource[g.Edges()[e].U], e)
		}
	} else {
		for i := 0; i < samples; i++ {
			e := int32(r.Int63n(m))
			bySource[g.Edges()[e].U] = append(bySource[g.Edges()[e].U], e)
		}
	}
	var st StretchStats
	sum := 0.0
	for s, es := range bySource {
		res := sssp.Dijkstra(h, []graph.V{s}, sssp.Options{})
		for _, e := range es {
			ed := g.Edges()[e]
			d := res.Dist[ed.V]
			if d == graph.InfDist {
				// A spanner never disconnects edge endpoints; report
				// an infinite stretch loudly rather than hiding it.
				return StretchStats{Max: math.Inf(1), Mean: math.Inf(1), Samples: st.Samples + 1}
			}
			ratio := float64(d) / float64(g.EdgeWeight(e))
			sum += ratio
			if ratio > st.Max {
				st.Max = ratio
			}
			st.Samples++
		}
	}
	if st.Samples > 0 {
		st.Mean = sum / float64(st.Samples)
	}
	return st
}

// HopsForApprox returns the smallest h such that the h-hop distance in
// g ∪ extra is within (1+eps) of the exact s-t distance, or -1 when s
// and t are disconnected. Doubling plus binary search over
// hop-limited Bellman–Ford rounds.
func HopsForApprox(g *graph.Graph, extra []graph.Edge, s, t graph.V, eps float64) int {
	exact := sssp.DijkstraTo(g, s, t, sssp.Options{})
	if exact == graph.InfDist {
		return -1
	}
	bound := graph.Dist(math.Ceil(float64(exact) * (1 + eps)))
	n := int(g.NumVertices())
	ok := func(h int) bool {
		return sssp.HopLimited(g, extra, []graph.V{s}, h, nil)[t] <= bound
	}
	h := 1
	for h < n && !ok(h) {
		h *= 2
	}
	if h >= n {
		if !ok(n) {
			return n
		}
		h = n
	}
	lo, hi := h/2+1, h
	if h == 1 {
		return 1
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if ok(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// HopStats summarizes hop counts over sampled vertex pairs.
type HopStats struct {
	Max, Mean, P50 float64
	Samples        int
}

// HopsetHops measures HopsForApprox over the given pairs, skipping
// disconnected ones.
func HopsetHops(g *graph.Graph, extra []graph.Edge, pairs [][2]graph.V, eps float64) HopStats {
	var hops []float64
	for _, p := range pairs {
		h := HopsForApprox(g, extra, p[0], p[1], eps)
		if h < 0 {
			continue
		}
		hops = append(hops, float64(h))
	}
	return summarize(hops)
}

func summarize(xs []float64) HopStats {
	if len(xs) == 0 {
		return HopStats{}
	}
	sort.Float64s(xs)
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return HopStats{
		Max:     xs[len(xs)-1],
		Mean:    sum / float64(len(xs)),
		P50:     Quantile(xs, 0.5),
		Samples: len(xs),
	}
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Quantile returns the q-th quantile (nearest-rank on sorted input).
// xs must be sorted ascending.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if q <= 0 {
		return xs[0]
	}
	if q >= 1 {
		return xs[len(xs)-1]
	}
	idx := int(math.Ceil(q*float64(len(xs)))) - 1
	if idx < 0 {
		idx = 0
	}
	return xs[idx]
}

// RandomPairs samples `count` (s, t) pairs with s != t, uniformly.
func RandomPairs(g *graph.Graph, count int, seed uint64) [][2]graph.V {
	n := g.NumVertices()
	if n < 2 {
		return nil
	}
	r := rng.New(seed)
	out := make([][2]graph.V, 0, count)
	for len(out) < count {
		s := r.Int31n(n)
		t := r.Int31n(n)
		if s != t {
			out = append(out, [2]graph.V{s, t})
		}
	}
	return out
}

// Table is a minimal fixed-width text table used by cmd/figures to
// print the paper-style comparison tables.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Add appends a row; cells beyond the header count are dropped,
// missing cells are blank.
func (t *Table) Add(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// Addf appends a row of formatted cells: each argument is rendered
// with %v.
func (t *Table) Addf(cells ...any) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case float64:
			row = append(row, FormatFloat(v))
		default:
			row = append(row, fmt.Sprintf("%v", c))
		}
	}
	t.Add(row...)
}

// FormatFloat renders floats compactly (integers without decimals,
// large values with thousands grouping suppressed).
func FormatFloat(v float64) string {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return fmt.Sprintf("%v", v)
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	if math.Abs(v) >= 100 {
		return fmt.Sprintf("%.1f", v)
	}
	return fmt.Sprintf("%.3f", v)
}

// Render writes the table as aligned plain text.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// RenderString returns the rendered table as a string.
func (t *Table) RenderString() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}
