package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/spanner"
	"repro/internal/workload"
)

// Lemma21Diameter measures cluster radii against the Lemma 2.1 bound
// k·β^{-1}·ln n (k = 2, failure probability ~1/n per trial) across β.
func Lemma21Diameter(scale Scale, seed uint64) []StatRow {
	g := workload.ER(int32(scale.pick(1024, 4096)), 4, seed).Gen()
	n := float64(g.NumVertices())
	trials := scale.pick(8, 20)
	var rows []StatRow
	for _, beta := range []float64{0.1, 0.3, 0.6} {
		bound := 2 * math.Log(n) / beta
		worst := 0.0
		viol := 0
		for tr := 0; tr < trials; tr++ {
			res := core.Cluster(g, beta, seed+uint64(tr)+uint64(beta*1000), core.Options{})
			r := float64(res.MaxRadius())
			if r > worst {
				worst = r
			}
			if r > bound {
				viol++
			}
		}
		rows = append(rows, StatRow{
			Label:    fmt.Sprintf("beta=%.1f max radius", beta),
			Observed: worst,
			Bound:    bound,
			OK:       viol <= (trials+9)/10, // ≤10% of trials may exceed the whp bound
			Detail:   fmt.Sprintf("%d/%d trials above bound", viol, trials),
		})
	}
	return rows
}

// Lemma22Ball measures P[ball of radius r meets ≥ j clusters] against
// the (1−e^{−2rβ})^{j−1} bound.
func Lemma22Ball(scale Scale, seed uint64) []StatRow {
	g := workload.Grid(int32(scale.pick(24, 40))).Gen()
	beta := 0.15
	radius := graph.Dist(2)
	gamma := 1 - math.Exp(-2*float64(radius)*beta)
	trials := scale.pick(6, 15)
	samplesPer := scale.pick(40, 80)
	r := rng.New(seed + 5)
	counts := map[int]int{}
	total := 0
	for tr := 0; tr < trials; tr++ {
		res := core.Cluster(g, beta, seed+uint64(tr), core.Options{})
		for i := 0; i < samplesPer; i++ {
			v := r.Int31n(g.NumVertices())
			k := core.BallClusterCount(g, res, v, radius)
			total++
			for j := 2; j <= k; j++ {
				counts[j]++
			}
		}
	}
	var rows []StatRow
	for _, j := range []int{2, 3, 4} {
		got := float64(counts[j]) / float64(total)
		bound := math.Pow(gamma, float64(j-1))
		rows = append(rows, StatRow{
			Label:    fmt.Sprintf("P[ball(r=%d) meets >=%d clusters]", radius, j),
			Observed: got,
			Bound:    bound,
			OK:       got <= bound*1.3+0.02,
			Detail:   fmt.Sprintf("%d of %d samples", counts[j], total),
		})
	}
	return rows
}

// Corollary23Cut measures the expected cut-edge mass against the
// β·w(e) bound.
func Corollary23Cut(scale Scale, seed uint64) []StatRow {
	g := graph.UniformWeights(workload.ER(int32(scale.pick(512, 2048)), 4, seed).Gen(), 3, seed+1)
	trials := scale.pick(10, 30)
	var rows []StatRow
	for _, beta := range []float64{0.02, 0.05, 0.1} {
		totalCut := 0
		for tr := 0; tr < trials; tr++ {
			res := core.Cluster(g, beta, seed+uint64(tr)+uint64(beta*1e4), core.Options{})
			totalCut += len(core.CutEdges(g, res))
		}
		mean := float64(totalCut) / float64(trials)
		bound := beta * float64(g.TotalWeight())
		rows = append(rows, StatRow{
			Label:    fmt.Sprintf("beta=%.2f mean cut edges", beta),
			Observed: mean,
			Bound:    bound,
			OK:       mean <= bound*1.15,
			Detail:   fmt.Sprintf("m=%d", g.NumEdges()),
		})
	}
	return rows
}

// Corollary31Adjacency measures the mean number of clusters adjacent
// to a vertex (ball of radius 1) against n^{1/k} for the spanner's
// β = ln(n)/(2k).
func Corollary31Adjacency(scale Scale, seed uint64) []StatRow {
	g := workload.ER(int32(scale.pick(1024, 4096)), 5, seed).Gen()
	n := float64(g.NumVertices())
	var rows []StatRow
	for _, k := range []int{2, 3, 5} {
		res := spanner.Unweighted(g, k, seed+uint64(k), nil)
		total := 0.0
		for v := graph.V(0); v < g.NumVertices(); v++ {
			seen := map[int32]bool{res.Clustering.ClusterOf[v]: true}
			for _, a := range g.Arcs(v) {
				seen[res.Clustering.ClusterOf[a.To]] = true
			}
			total += float64(len(seen))
		}
		avg := total / n
		bound := math.Pow(n, 1/float64(k))
		rows = append(rows, StatRow{
			Label:    fmt.Sprintf("k=%d mean ball(1) clusters", k),
			Observed: avg,
			Bound:    bound,
			OK:       avg <= 2.5*bound,
			Detail:   "bound is E-envelope n^{1/k}",
		})
	}
	return rows
}

// Lemma52Rounding validates the Klein–Subramanian rounding bounds on
// random paths: w̃(p) ≤ ⌈ck/ζ⌉ and ŵ·w̃(p) ≤ (1+ζ)·w(p).
func Lemma52Rounding(scale Scale, seed uint64) []StatRow {
	r := rng.New(seed)
	trials := scale.pick(200, 1000)
	zeta := 0.25
	okCount, okLen := 0, 0
	worstDistort := 1.0
	for tr := 0; tr < trials; tr++ {
		k := r.Intn(50) + 1
		// A synthetic path of k edges with weights in [1, 100].
		weights := make([]graph.W, k)
		var total graph.W
		for i := range weights {
			weights[i] = 1 + r.Int63n(100)
			total += weights[i]
		}
		d := float64(total) / (1 + 3*r.Float64()) // estimate d ≤ w(p) ≤ cd
		c := float64(total) / d
		wHat := zeta * d / float64(k)
		var rounded graph.Dist
		for _, w := range weights {
			rounded += graph.Dist(math.Ceil(float64(w) / wHat))
		}
		if float64(rounded) <= math.Ceil(c*float64(k)/zeta)+float64(k) {
			okLen++
		}
		distort := wHat * float64(rounded) / float64(total)
		if distort > worstDistort {
			worstDistort = distort
		}
		if distort <= 1+zeta+1e-9 {
			okCount++
		}
	}
	return []StatRow{
		{
			Label:    "rounded length within ceil(ck/zeta)+k",
			Observed: float64(okLen),
			Bound:    float64(trials),
			OK:       okLen == trials,
			Detail:   fmt.Sprintf("%d/%d paths", okLen, trials),
		},
		{
			Label:    "worst multiplicative distortion",
			Observed: worstDistort,
			Bound:    1 + zeta,
			OK:       okCount == trials,
			Detail:   fmt.Sprintf("%d/%d paths within (1+zeta)", okCount, trials),
		},
	}
}

// RenderStatRows formats lemma-validation rows.
func RenderStatRows(title string, rows []StatRow) *eval.Table {
	t := eval.NewTable(title, "quantity", "observed", "bound", "ok", "detail")
	for _, r := range rows {
		ok := "yes"
		if !r.OK {
			ok = "NO"
		}
		t.Add(r.Label, eval.FormatFloat(r.Observed), eval.FormatFloat(r.Bound), ok, r.Detail)
	}
	return t
}
