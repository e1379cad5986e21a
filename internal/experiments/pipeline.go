package experiments

import (
	"fmt"

	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/hopset"
	"repro/internal/par"
	"repro/internal/sssp"
	"repro/internal/workload"
	"repro/internal/wscale"
)

// Theorem12Pipeline runs the end-to-end comparison behind Theorem 1.2
// / Corollaries 4.5 and 5.4: (1+ε)-approximate s-t distances through
// the multi-scale hopset versus exact searches, reporting query depth
// (levels) and realized distortion. The headline shape: hopset query
// levels ≪ plain weighted-BFS levels (= distance) on high-weighted-
// diameter graphs, at a few percent distortion.
func Theorem12Pipeline(scale Scale, seed uint64) []PipelineRow {
	side := int32(scale.pick(28, 45))
	specs := []workload.Spec{
		workload.WithUniformWeights(workload.Grid(side), 1000, seed),
		workload.WithUniformWeights(workload.ER(int32(scale.pick(768, 2048)), 3, seed+1), 5000, seed+2),
	}
	queries := scale.pick(5, 12)
	var rows []PipelineRow
	for _, spec := range specs {
		g := spec.Gen()
		pairs := connectedPairs(g, queries, 16, seed+3)

		// Method 1: the paper's pipeline.
		wp := hopset.DefaultWeightedParams(seed + 4)
		wp.Gamma2 = 0.7
		prep := par.NewCost()
		s := hopset.BuildScaled(g, wp, prep)
		row := PipelineRow{
			Workload: spec.Name, Method: "est-hopset query (ours)",
			N: int64(g.NumVertices()), M: g.NumEdges(),
			PrepWork: prep.Work(), PrepDepth: prep.Depth(),
		}
		var levels, dist []float64
		worst := 1.0
		for _, p := range pairs {
			exact := s.ExactDistance(p[0], p[1])
			q := s.Query(nil, p[0], p[1], nil)
			if q.Fallback {
				row.Fallbacks++
			}
			levels = append(levels, float64(q.Levels))
			ratio := float64(q.Dist) / float64(exact)
			dist = append(dist, ratio)
			if ratio > worst {
				worst = ratio
			}
		}
		row.QueryLevels = eval.Mean(levels)
		row.Distortion = eval.Mean(dist)
		row.WorstDist = worst
		row.Queries = len(pairs)
		rows = append(rows, row)

		// Method 2: plain weighted parallel BFS — depth equals the
		// distance range swept (what the rounding exists to shrink).
		var plainLevels []float64
		for _, p := range pairs {
			c := par.NewCost()
			res := sssp.Dial(g, []graph.V{p[0]}, sssp.Options{Cost: c, MaxDist: 0})
			_ = res
			plainLevels = append(plainLevels, float64(c.Depth()))
		}
		rows = append(rows, PipelineRow{
			Workload: spec.Name, Method: "weighted parallel BFS",
			N: int64(g.NumVertices()), M: g.NumEdges(),
			QueryLevels: eval.Mean(plainLevels), Distortion: 1, WorstDist: 1,
			Queries: len(pairs),
		})

		// Method 3: sequential Dijkstra — depth is its work.
		var seqDepth []float64
		for _, p := range pairs {
			c := par.NewCost()
			sssp.Dijkstra(g, []graph.V{p[0]}, sssp.Options{Cost: c})
			seqDepth = append(seqDepth, float64(c.Depth()))
		}
		rows = append(rows, PipelineRow{
			Workload: spec.Name, Method: "dijkstra (sequential)",
			N: int64(g.NumVertices()), M: g.NumEdges(),
			QueryLevels: eval.Mean(seqDepth), Distortion: 1, WorstDist: 1,
			Queries: len(pairs),
		})
	}
	return rows
}

// Corollary45Unweighted is the unweighted end-to-end comparison: on a
// long unweighted graph, hop-limited queries through the hopset need
// far fewer Bellman–Ford rounds than the graph's hop diameter.
func Corollary45Unweighted(scale Scale, seed uint64) []PipelineRow {
	side := int32(scale.pick(32, 64))
	g := workload.Grid(side).Gen()
	pairs := connectedPairs(g, scale.pick(4, 8), graph.Dist(side), seed+1)
	p := hopset.DefaultParams(seed)
	p.Gamma2 = 0.6
	prep := par.NewCost()
	res := hopset.Build(g, p, prep)
	hops := eval.HopsetHops(g, res.Edges, pairs, 0.5)
	raw := eval.HopsetHops(g, nil, pairs, 0.5)
	return []PipelineRow{
		{
			Workload: fmt.Sprintf("grid-%dx%d", side, side), Method: "est-hopset (ours)",
			N: int64(g.NumVertices()), M: g.NumEdges(),
			PrepWork: prep.Work(), PrepDepth: prep.Depth(),
			QueryLevels: hops.Mean, Distortion: 1.5, WorstDist: 1.5,
			Queries: hops.Samples,
		},
		{
			Workload: fmt.Sprintf("grid-%dx%d", side, side), Method: "plain BFS hops",
			N: int64(g.NumVertices()), M: g.NumEdges(),
			QueryLevels: raw.Mean, Distortion: 1, WorstDist: 1,
			Queries: raw.Samples,
		},
	}
}

// AppendixBDecomposition exercises the weight-class decomposition on a
// many-scale instance and reports the Lemma 5.1 quantities.
func AppendixBDecomposition(scale Scale, seed uint64) []StatRow {
	g := graph.ExponentialWeights(
		workload.ER(int32(scale.pick(256, 1024)), 4, seed).Gen(), 10, 15, seed+1)
	eps := 0.5
	cost := par.NewCost()
	d := wscale.Build(g, eps, cost)
	n := float64(g.NumVertices())
	ratioBound := (n / eps) * (n / eps) * (n / eps)
	rows := []StatRow{
		{
			Label:    "max instance weight ratio",
			Observed: d.MaxInstanceRatio(),
			Bound:    ratioBound,
			OK:       d.MaxInstanceRatio() <= ratioBound,
			Detail:   fmt.Sprintf("input ratio %.3g, %d categories", g.WeightRatio(), len(d.Cats)),
		},
		{
			Label:    "total instance edges",
			Observed: float64(d.TotalInstanceEdges()),
			Bound:    float64(3 * g.NumEdges()),
			OK:       d.TotalInstanceEdges() <= 3*g.NumEdges(),
			Detail:   fmt.Sprintf("m=%d", g.NumEdges()),
		},
	}
	// Query soundness sample.
	r := connectedPairsRNGSample(g, scale.pick(20, 60), seed+2)
	okCnt, total := 0, 0
	worstLow := 1.0
	for _, p := range r {
		truth := exactDistances(g, p[0])[p[1]]
		got := d.Query(p[0], p[1], nil)
		total++
		ratio := float64(got) / float64(truth)
		if ratio <= 1+1e-9 && ratio >= 1-eps-1e-9 {
			okCnt++
		}
		if ratio < worstLow {
			worstLow = ratio
		}
	}
	rows = append(rows, StatRow{
		Label:    "queries within [(1-eps)d, d]",
		Observed: float64(okCnt),
		Bound:    float64(total),
		OK:       okCnt == total,
		Detail:   fmt.Sprintf("worst low ratio %.3f", worstLow),
	})
	return rows
}

// connectedPairsRNGSample is connectedPairs without the min-distance
// filter (Appendix B wants arbitrary pairs).
func connectedPairsRNGSample(g *graph.Graph, count int, seed uint64) [][2]graph.V {
	return connectedPairs(g, count, 1, seed)
}

// RenderPipelineRows formats pipeline rows.
func RenderPipelineRows(title string, rows []PipelineRow) *eval.Table {
	t := eval.NewTable(title,
		"workload", "method", "prep work", "prep depth",
		"query levels", "distortion avg", "distortion max", "queries", "fallbacks")
	for _, r := range rows {
		t.Add(r.Workload, r.Method, fmt.Sprint(r.PrepWork), fmt.Sprint(r.PrepDepth),
			eval.FormatFloat(r.QueryLevels), eval.FormatFloat(r.Distortion),
			eval.FormatFloat(r.WorstDist), fmt.Sprint(r.Queries), fmt.Sprint(r.Fallbacks))
	}
	return t
}
