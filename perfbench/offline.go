package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	spanhop "repro"
	"repro/internal/dynamic"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/workload"
)

// seedSalt derives independent streams from the workload seed: the
// warm-up pairs (so warm-up never pre-answers a timed pair), the
// serve-hot clients' picks and the offline-spanner construction seeds.
const seedSalt = 0x9e3779b97f4a7c15

// spannerChecks is how many check pairs each offline-spanner spanner
// answers for the stretch metrics. The workload checks every answer
// anyway; a fixed count keeps the metrics independent of speed.
const spannerChecks = 64

// warmQueries is how many queries each offline set-up answers before
// the clock stops: enough to fill the oracle's lazy rounded-graph
// cache and the arenas.
const warmQueries = 8

type answer struct {
	s, t graph.V
	d    graph.Dist
}

// runOfflineRoad: a library caller answers queries one at a time with
// DistanceOracle.QueryStats on a road-shaped multi-scale grid. The
// oracle builds on one worker and queries on nproc, as in the daemon.
func runOfflineRoad(b *bench) error {
	cfg := b.cfg
	side := cfg.sz.roadSide
	g := spanhop.WithMultiScaleWeights(spanhop.GridGraph(side, side), roadBase, roadScales, cfg.seed)
	n := g.NumVertices()
	queryEc := spanhop.ParallelExec(runtime.GOMAXPROCS(0))

	setup := b.phase("setup")
	var o *spanhop.DistanceOracle
	var tel *exec.Telemetry
	var setups []float64
	var warm []answer
	for rep := 0; rep < cfg.sz.reps; rep++ {
		tel = exec.NewTelemetry()
		mix := workload.UniformMix(n, cfg.seed^seedSalt)
		warm = warm[:0]
		d := timeIt(func() {
			o = spanhop.NewDistanceOracleOpts(g, eps, cfg.seed, spanhop.OracleOptions{
				Exec:      exec.New(exec.Options{Workers: 1, Telemetry: tel}),
				QueryExec: queryEc,
			})
			for i := 0; i < warmQueries; i++ {
				p := mix.Next()
				d, err := o.Query(p[0], p[1])
				if err != nil {
					b.fail(setup, err)
					continue
				}
				warm = append(warm, answer{p[0], p[1], d})
			}
		})
		setups = append(setups, d.Seconds())
	}
	dyn := spanhop.NewDynamicOracle(o, spanhop.RebuildPolicy{Disabled: true})
	defer dyn.Close()
	lo, hi := o.StretchEnvelope()
	exact := func(tr *tracer, a answer) (graph.Dist, error) {
		id := tr.begin("dynamic.exact", -1, 0)
		defer tr.end(id)
		return dyn.ExactDistanceAt(0, a.s, a.t)
	}
	checkAll := func(p *phase, as []answer, tr *tracer) []float64 {
		var ratios []float64
		for _, a := range as {
			d, err := exact(tr, a)
			if err != nil {
				b.fail(p, err)
				continue
			}
			b.check(p, inEnvelope(a.d, d, lo, hi), "d(%d,%d) = %d, exact %d, envelope [%g, %g]", a.s, a.t, a.d, d, lo, hi)
			if d > 0 {
				ratios = append(ratios, float64(a.d)/float64(d))
			}
		}
		return ratios
	}
	checkAll(setup, warm, nil)
	roadOverlay := func() (func([]dynamic.Update) error, func()) {
		d := spanhop.NewDynamicOracle(o, spanhop.RebuildPolicy{Disabled: true})
		return func(us []dynamic.Update) error {
			_, err := d.ApplyUpdates(us)
			return err
		}, d.Close
	}

	// The timed phase replays one seeded pair sequence. A traced run
	// first replays it untraced, for trace.overhead_frac.
	var levels, fallbacks int64
	phase := func(name string, tr *tracer, pr *prober) (*timed, *phase, []answer) {
		p := b.phase(name)
		mix := workload.UniformMix(n, cfg.seed)
		var as []answer
		t := closedLoop(1, cfg.dur, cfg.sz.windows, func(int) (bool, error) {
			q := mix.Next()
			id := tr.begin("oracle.query", -1, 0)
			st, err := o.QueryStats(q[0], q[1])
			tr.end(id)
			if err != nil {
				b.fail(p, err)
				return false, err
			}
			levels += st.Levels
			if st.Fallback {
				fallbacks++
			}
			as = append(as, answer{q[0], q[1], b.answer(st.Dist)})
			return false, nil
		}, func() { pr.tick(tr) })
		// Stretch is measured on the first checkPairs pairs of the
		// sequence whatever the speed: a slow build finishes them here.
		for len(as) < cfg.sz.checkPairs {
			q := mix.Next()
			d, err := o.Query(q[0], q[1])
			if err != nil {
				b.fail(p, err)
				continue
			}
			as = append(as, answer{q[0], q[1], d})
		}
		return t, p, as
	}

	if !cfg.traced {
		pr := newProber(b, g, roadOverlay)
		t, p, as := phase("timed", nil, pr)
		st := t.stats()
		b.set("heap_live_mb", heapLiveMB(), "MB")
		ratios := checkAll(p, as, nil)
		b.report(st)
		b.stretchStats(ratios[:min(len(ratios), cfg.sz.checkPairs)])
		b.set("setup_s", median(setups), "s")
		b.set("mutate_p50_ms", pr.finish(nil), "ms")
		return nil
	}

	b.layerDefaults()
	ref, p, as := phase("untraced", nil, nil)
	checkAll(p, as, nil)
	levels, fallbacks = 0, 0
	pr := newProber(b, g, roadOverlay)
	t, p, as := phase("traced", b.tr, pr)
	pr.finish(b.tr)
	checkAll(p, as, b.tr)
	b.traceOverhead(ref.stats(), t.stats(), "oracle.query")
	q50 := median(b.tr.self("oracle.query"))
	x50 := median(b.tr.self("dynamic.exact"))
	b.set("oracle.query_p50_ms", q50, "ms")
	b.set("oracle.levels_mean", float64(levels)/float64(len(t.samples)), "rounds")
	b.set("oracle.fallback_frac", float64(fallbacks)/float64(len(t.samples)), "ratio")
	b.set("dynamic.exact_p50_ms", x50, "ms")
	b.set("oracle.speedup_vs_exact", x50/q50, "ratio")
	b.set("hopset.build_s", stageMS(tel.Snapshot(), "hopset-build")/1000, "s")
	b.set("hopset.edges", float64(o.HopsetSize()), "count")
	b.set("wscale.decompose_s", stageMS(tel.Snapshot(), "wscale-decompose")/1000, "s")
	b.set("wscale.instances", float64(o.InstanceCount()), "count")
	b.estLayer(g)
	b.set("dynamic.apply_p50_ms", median(b.tr.self("dynamic.apply")), "ms")
	return nil
}

// spannerQuerier answers s–t queries with Dijkstra on the spanner; it
// is also the base a dynamic overlay mutates over in the probe.
type spannerQuerier struct{ h *graph.Graph }

func (q spannerQuerier) Query(s, t graph.V) (graph.Dist, error) {
	return spanhop.ShortestPaths(q.h, s).Dist[t], nil
}

// runOfflineSpanner builds weighted EST spanners (k = 4) of a dense
// weighted ER graph and answers s–t queries with Dijkstra on them.
// Spanner size swings by almost 2x with the construction's random
// draws (0.22 to 0.46 of m across seeds), and Dijkstra time on it by
// 40%, so each set-up builds its own spanner from a seed derived
// from --seed, and the queries rotate over all of them: a run
// averages over the construction's randomness instead of measuring a
// few draws.
func runOfflineSpanner(b *bench) error {
	cfg := b.cfg
	g := spanhop.WithUniformWeights(spanhop.RandomGraph(cfg.sz.spannerN, cfg.sz.spannerM, cfg.seed), spannerMaxW, cfg.seed)
	n := g.NumVertices()

	setup := b.phase("setup")
	var res []*spanhop.Spanner
	var hs []*graph.Graph
	var setups []float64
	for rep := 0; rep < cfg.sz.spanners; rep++ {
		mix := workload.UniformMix(n, cfg.seed^seedSalt)
		d := timeIt(func() {
			var r *spanhop.Spanner
			b.tr.around("spanner.build", func() {
				r = spanhop.WeightedSpannerOn(g, spannerK, cfg.seed+uint64(rep)*seedSalt, spanhop.SequentialExec(), nil)
			})
			h := r.Graph(g)
			for i := 0; i < warmQueries/2; i++ {
				p := mix.Next()
				setup.done(nil)
				_ = spanhop.ShortestPaths(h, p[0]).Dist[p[1]]
			}
			res, hs = append(res, r), append(hs, h)
		})
		setups = append(setups, d.Seconds())
	}
	// The overlay's exact path is bidirectional Dijkstra on g itself:
	// the checker's ground truth.
	dyn := dynamic.New(spannerQuerier{hs[0]}, g, 0)
	hi := float64(24*spannerK + 4) // the O(k) envelope of the weighted construction
	spannerOverlay := func() (func([]dynamic.Update) error, func()) {
		d := dynamic.New(spannerQuerier{hs[0]}, g, 0)
		return func(us []dynamic.Update) error {
			_, err := d.Apply(us)
			return err
		}, func() {}
	}
	// checkAll returns the served/exact ratio of each answer, NaN
	// where there is none.
	checkAll := func(p *phase, as []answer) []float64 {
		ratios := make([]float64, len(as))
		for i, a := range as {
			ratios[i] = math.NaN()
			d, err := dyn.ExactDistanceAt(0, a.s, a.t)
			if err != nil {
				b.fail(p, err)
				continue
			}
			b.check(p, inEnvelope(a.d, d, 1, hi), "spanner d(%d,%d) = %d, exact %d, envelope [1, %g]", a.s, a.t, a.d, d, hi)
			if d > 0 {
				ratios[i] = float64(a.d) / float64(d)
			}
		}
		return ratios
	}

	phase := func(name string, tr *tracer, pr *prober) (*timed, *phase, []answer) {
		p := b.phase(name)
		mix := workload.UniformMix(n, cfg.seed)
		var as []answer
		t := closedLoop(1, cfg.dur, cfg.sz.windows, func(int) (bool, error) {
			q := mix.Next()
			h := hs[len(as)%len(hs)]
			id := tr.begin("sssp.dijkstra_spanner", -1, 0)
			d := spanhop.ShortestPaths(h, q[0]).Dist[q[1]]
			tr.end(id)
			as = append(as, answer{q[0], q[1], b.answer(d)})
			return false, nil
		}, func() { pr.tick(tr) })
		for len(as) < spannerChecks*len(hs) {
			q := mix.Next()
			h := hs[len(as)%len(hs)]
			as = append(as, answer{q[0], q[1], spanhop.ShortestPaths(h, q[0]).Dist[q[1]]})
		}
		return t, p, as
	}

	if !cfg.traced {
		pr := newProber(b, g, spannerOverlay)
		t, p, as := phase("timed", nil, pr)
		st := t.stats()
		b.set("heap_live_mb", heapLiveMB(), "MB")
		runtime.KeepAlive(hs) // every spanner counts, whatever the code after this reads
		ratios := checkAll(p, as)
		b.report(st)
		b.spannerStretch(ratios[:spannerChecks*len(hs)], len(hs))
		b.set("setup_s", median(setups), "s")
		b.set("mutate_p50_ms", pr.finish(nil), "ms")
		return nil
	}

	b.layerDefaults()
	ref, p, as := phase("untraced", nil, nil)
	checkAll(p, as)
	pr := newProber(b, g, spannerOverlay)
	t, p, as := phase("traced", b.tr, pr)
	pr.finish(b.tr)
	checkAll(p, as)
	b.traceOverhead(ref.stats(), t.stats(), "sssp.dijkstra_spanner")
	b.set("sssp.dijkstra_spanner_ms", median(b.tr.self("sssp.dijkstra_spanner")), "ms")
	for i := 0; i < min(len(as), 16); i++ {
		b.tr.around("sssp.dijkstra_full", func() { _ = spanhop.ShortestPaths(g, as[i].s) })
	}
	b.set("sssp.dijkstra_full_ms", median(b.tr.self("sssp.dijkstra_full")), "ms")
	b.set("spanner.build_s", median(b.tr.self("spanner.build"))/1000, "s")
	var size, levels float64
	for _, r := range res {
		size += float64(r.Size()) / float64(len(res))
		levels += float64(r.Levels) / float64(len(res))
	}
	b.set("spanner.size_ratio", size/float64(g.NumEdges()), "ratio")
	b.set("spanner.levels", levels, "count")
	b.estLayer(g)
	b.set("dynamic.apply_p50_ms", median(b.tr.self("dynamic.apply")), "ms")
	return nil
}

// spannerStretch sets stretch_mean, the mean served/exact ratio over
// the check pairs, and stretch_max, the median over the spanners of
// the largest ratio each one served (pair i is answered on spanner
// i mod spanners). Some draws serve a pair at stretch 2.1 to 2.5
// where the rest stay below about 1.6, so the largest ratio over all
// spanners would report which draws a seed happened to make; the
// median reports the worst case of a typical draw. NaN ratios (no
// answer, or exact distance 0) are skipped.
func (b *bench) spannerStretch(ratios []float64, spanners int) {
	per := make([][]float64, spanners)
	var all []float64
	for i, r := range ratios {
		if math.IsNaN(r) {
			continue
		}
		all = append(all, r)
		per[i%spanners] = append(per[i%spanners], r)
	}
	var worst []float64
	for _, rs := range per {
		if len(rs) > 0 {
			worst = append(worst, maxOf(rs))
		}
	}
	b.set("stretch_mean", mean(all), "ratio")
	b.set("stretch_max", median(worst), "ratio")
}

// estLayer times ESTClusterOn on the workload graph (one worker),
// once per set-up repetition.
func (b *bench) estLayer(g *graph.Graph) {
	for rep := 0; rep < b.cfg.sz.reps; rep++ {
		b.tr.around("core.est", func() {
			_ = spanhop.ESTClusterOn(g, estBeta, b.cfg.seed, spanhop.SequentialExec(), nil)
		})
	}
	b.set("core.est_ms", median(b.tr.self("core.est")), "ms")
}

// probeRound is how many mutation batches a probe sends to one
// journal: one short of the default rebuild threshold, so the server
// never starts a background rebuild mid-probe, and short enough that
// an overlay's apply cost, which grows with its journal, stays level.
const probeRound = maxJournal/mutateBatch - 1

// prober measures mutate_p50_ms on the offline workloads, whose
// traffic has no writes: it applies seeded churn batches one at a time
// to a throwaway overlay over the served structure, in rounds of
// probeRound batches on a fresh overlay from overlay (whose release
// func it calls after the round). The timed phase spreads the batches
// evenly over its length, each sent after the first query to end past
// its slot, so the samples span the phase instead of one instant of a
// host whose speed drifts from second to second. The batches are
// drawn before the phase: a mutator holds a copy of the whole edge
// set, too big to build inside the phase or to keep alive through the
// heap reading.
type prober struct {
	b       *bench
	overlay func() (apply func([]dynamic.Update) error, release func())
	p       *phase
	batches [][]dynamic.Update
	n       int       // batches sent
	start   time.Time // of the pacing: the first tick
	apply   func([]dynamic.Update) error
	release func()
	lat     []float64
}

func newProber(b *bench, g *graph.Graph, overlay func() (func([]dynamic.Update) error, func())) *prober {
	pr := &prober{b: b, overlay: overlay, p: b.phase("probe")}
	for round := 0; len(pr.batches) < b.cfg.sz.probeBatches; round++ {
		mut, err := workload.NewMutator(g, "churn", g.MaxWeight(), b.cfg.seed+uint64(round))
		if err != nil {
			b.fail(pr.p, fmt.Errorf("mutator: %w", err))
			break
		}
		for i := 0; i < probeRound && len(pr.batches) < b.cfg.sz.probeBatches; i++ {
			pr.batches = append(pr.batches, mut.Batch(mutateBatch))
		}
	}
	return pr
}

// tick runs after each timed query: it sends the next batch once the
// batch's slot, n/len(batches) of the way through the phase, has come.
// A nil prober does nothing.
func (pr *prober) tick(tr *tracer) {
	if pr == nil || pr.n >= len(pr.batches) {
		return
	}
	if pr.start.IsZero() {
		pr.start = time.Now()
	}
	if time.Since(pr.start) >= pr.b.cfg.dur*time.Duration(pr.n)/time.Duration(len(pr.batches)) {
		pr.step(tr)
	}
}

// step applies the next batch, timed, as a dynamic.apply span of tr.
// A nil prober does nothing.
func (pr *prober) step(tr *tracer) {
	if pr == nil || pr.n >= len(pr.batches) {
		return
	}
	if pr.n%probeRound == 0 {
		pr.close()
		pr.apply, pr.release = pr.overlay()
	}
	us := pr.batches[pr.n]
	pr.n++
	var err error
	id := tr.begin("dynamic.apply", -1, 0)
	d := timeIt(func() { err = pr.apply(us) })
	tr.end(id)
	if err != nil {
		pr.b.fail(pr.p, err)
		return
	}
	pr.p.done(nil)
	pr.lat = append(pr.lat, ms(d))
}

func (pr *prober) close() {
	if pr.release != nil {
		pr.release()
	}
	pr.apply, pr.release = nil, nil
}

// finish sends whatever batches the timed phase left and returns the
// median batch latency in ms.
func (pr *prober) finish(tr *tracer) float64 {
	for pr.n < len(pr.batches) {
		pr.step(tr)
	}
	pr.close()
	return median(pr.lat)
}
