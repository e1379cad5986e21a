package experiments

import (
	"fmt"
	"math"

	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/spanner"
	"repro/internal/sssp"
	"repro/internal/workload"
)

func exactDistances(g *graph.Graph, s graph.V) []graph.Dist {
	return sssp.Dijkstra(g, []graph.V{s}, sssp.Options{}).Dist
}

// spannerAlgo abstracts one Figure 1 contender.
type spannerAlgo struct {
	name    string
	promise string
	run     func(g *graph.Graph, k int, seed uint64, cost *par.Cost) *spanner.Result
	// smallOnly limits the algorithm to modest inputs (the greedy
	// baseline's work is O(m·n)-flavored, exactly as Figure 1 lists).
	smallOnly bool
}

func spannerContenders() []spannerAlgo {
	return []spannerAlgo{
		{
			name:    "est-spanner (ours)",
			promise: "O(k)",
			run: func(g *graph.Graph, k int, seed uint64, cost *par.Cost) *spanner.Result {
				if g.Weighted() {
					return spanner.Weighted(g, k, seed, spanner.Options{Cost: cost})
				}
				return spanner.Unweighted(g, k, seed, spanner.Options{Cost: cost})
			},
		},
		{
			name:    "baswana-sen [BS07]",
			promise: "2k-1",
			run:     spanner.BaswanaSen,
		},
		{
			name:    "greedy [ADD+93]",
			promise: "2k-1",
			run: func(g *graph.Graph, k int, seed uint64, cost *par.Cost) *spanner.Result {
				return spanner.Greedy(g, k, cost)
			},
			smallOnly: true,
		},
	}
}

func runSpannerRows(specs []workload.Spec, ks []int, seed uint64, stretchSamples int) []SpannerRow {
	var rows []SpannerRow
	for _, spec := range specs {
		g := spec.Gen()
		small := g.NumEdges() <= 6000
		for _, k := range ks {
			for ai, algo := range spannerContenders() {
				if algo.smallOnly && !small {
					continue
				}
				cost := par.NewCost()
				res := algo.run(g, k, seed+uint64(ai)*101+uint64(k), cost)
				st := eval.SpannerStretch(g, res.EdgeIDs, stretchSamples, seed+7)
				rows = append(rows, SpannerRow{
					Workload:   spec.Name,
					Algo:       algo.name,
					K:          k,
					N:          int64(g.NumVertices()),
					M:          g.NumEdges(),
					Size:       int64(res.Size()),
					Work:       cost.Work(),
					Depth:      cost.Depth(),
					StretchMax: st.Max,
					StretchAvg: st.Mean,
					Promise:    algo.promise,
				})
			}
		}
	}
	return rows
}

// Figure1Unweighted reproduces the unweighted table of Figure 1:
// size/work/depth/stretch of the contenders across unweighted
// workloads and k.
func Figure1Unweighted(scale Scale, seed uint64) []SpannerRow {
	nER := int32(scale.pick(1024, 8192))
	specs := []workload.Spec{
		workload.ER(nER, 8, seed),
		workload.RMATSpec(scale.pick(9, 13), 8, seed+1),
		workload.Grid(int32(scale.pick(24, 90))),
	}
	ks := []int{2, 4, 8}
	return runSpannerRows(specs, ks, seed, scale.pick(150, 400))
}

// Figure1Weighted reproduces the weighted table of Figure 1 across
// weight ranges U (the depth term O(k log* n log U)).
func Figure1Weighted(scale Scale, seed uint64) []SpannerRow {
	base := workload.ER(int32(scale.pick(1024, 8192)), 8, seed)
	var specs []workload.Spec
	for _, U := range []graph.W{1 << 4, 1 << 8, 1 << 12} {
		specs = append(specs, workload.WithUniformWeights(base, U, seed+uint64(U)))
	}
	specs = append(specs, workload.WithExponentialWeights(base, 2, 12, seed+99))
	ks := []int{2, 4}
	return runSpannerRows(specs, ks, seed, scale.pick(150, 400))
}

// RenderSpannerRows formats Figure 1 rows as a paper-style table.
func RenderSpannerRows(title string, rows []SpannerRow) *eval.Table {
	t := eval.NewTable(title,
		"workload", "k", "algorithm", "promise", "size", "work", "depth", "stretch max", "stretch avg")
	for _, r := range rows {
		t.Add(r.Workload, fmt.Sprint(r.K), r.Algo, r.Promise,
			fmt.Sprint(r.Size), fmt.Sprint(r.Work), fmt.Sprint(r.Depth),
			eval.FormatFloat(r.StretchMax), eval.FormatFloat(r.StretchAvg))
	}
	return t
}

// Theorem11Scaling validates the Theorem 1.1 size law O(n^{1+1/k}) (an
// O(log k) factor higher for weighted graphs): the Size/Bound ratio
// column should stay flat as n grows.
func Theorem11Scaling(scale Scale, seed uint64) []ScalingRow {
	var rows []ScalingRow
	ns := []int32{1 << 10, 1 << 11, 1 << 12}
	if scale == Full {
		ns = append(ns, 1<<13, 1<<14)
	}
	for _, weighted := range []bool{false, true} {
		for _, k := range []int{2, 3} {
			for _, n := range ns {
				g := workload.ER(n, 8, seed+uint64(n)).Gen()
				label := "unweighted"
				if weighted {
					g = graph.ExponentialWeights(g, 2, 10, seed+3)
					label = "weighted"
				}
				cost := par.NewCost()
				var size int
				if weighted {
					size = spanner.Weighted(g, k, seed+5, spanner.Options{Cost: cost}).Size()
				} else {
					size = spanner.Unweighted(g, k, seed+5, spanner.Options{Cost: cost}).Size()
				}
				bound := math.Pow(float64(n), 1+1/float64(k))
				if weighted {
					bound *= math.Max(1, math.Log2(float64(k)))
				}
				rows = append(rows, ScalingRow{
					Label: fmt.Sprintf("%s k=%d", label, k),
					N:     int64(n),
					M:     g.NumEdges(),
					K:     k,
					Size:  int64(size),
					Bound: bound,
					Ratio: float64(size) / bound,
					Work:  cost.Work(),
					Depth: cost.Depth(),
				})
			}
		}
	}
	return rows
}

// Theorem33Contraction measures the weighted spanner's per-k size
// growth (the log k column of Theorem 3.3) at fixed n.
func Theorem33Contraction(scale Scale, seed uint64) []ScalingRow {
	n := int32(scale.pick(2048, 8192))
	g := graph.ExponentialWeights(workload.ER(n, 8, seed).Gen(), 2, 14, seed+1)
	var rows []ScalingRow
	for _, k := range []int{2, 3, 4, 6, 8} {
		cost := par.NewCost()
		res := spanner.Weighted(g, k, seed+uint64(k), spanner.Options{Cost: cost})
		bound := math.Pow(float64(n), 1+1/float64(k)) * math.Max(1, math.Log2(float64(k)))
		rows = append(rows, ScalingRow{
			Label:   fmt.Sprintf("weighted k=%d", k),
			N:       int64(n),
			M:       g.NumEdges(),
			K:       k,
			Size:    int64(res.Size()),
			Bound:   bound,
			Ratio:   float64(res.Size()) / bound,
			Work:    cost.Work(),
			Depth:   cost.Depth(),
			Extra:   float64(res.Levels),
			Extraux: "groups",
		})
	}
	return rows
}

// RenderScalingRows formats scaling rows.
func RenderScalingRows(title string, rows []ScalingRow) *eval.Table {
	extraux := "extra"
	for _, r := range rows {
		if r.Extraux != "" {
			extraux = r.Extraux
		}
	}
	t := eval.NewTable(title,
		"config", "n", "m", "size", "bound", "size/bound", "work", "depth", extraux)
	for _, r := range rows {
		t.Add(r.Label, fmt.Sprint(r.N), fmt.Sprint(r.M), fmt.Sprint(r.Size),
			eval.FormatFloat(r.Bound), eval.FormatFloat(r.Ratio),
			fmt.Sprint(r.Work), fmt.Sprint(r.Depth), eval.FormatFloat(r.Extra))
	}
	return t
}
