package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	spanhop "repro"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/workload"
)

// replayOps caps the traced replay at the sequence prefix holding 256
// mutation batches: four forced rebuilds.
const replayOps = 256 * (readsPerMut + 1)

// checkSalt derives the post-rebuild check pairs from the seed.
const checkSalt = 0x5bd1e9955bd1e995

// serveInput generates the serving workloads' graph locally, exactly
// as the server generates it from the same spec and seed.
func serveInput(cfg config) (*graph.Graph, error) {
	spec, err := workload.ParseSpec(cfg.sz.serveGen, cfg.seed)
	if err != nil {
		return nil, err
	}
	return spec.Gen(), nil
}

// localOracle builds the checker's copy of the served oracle with the
// daemon's build configuration (one worker), which the served answers
// must match bit for bit.
func localOracle(g *graph.Graph, seed uint64) *spanhop.DistanceOracle {
	return spanhop.NewDistanceOracleOpts(g, eps, seed, spanhop.OracleOptions{
		Exec:      spanhop.SequentialExec(),
		QueryExec: spanhop.ParallelExec(0),
	})
}

// runServeHot: nproc closed-loop HTTP clients repeat pairs from a pool
// that fits the result cache, so every timed request is a cache hit
// and the HTTP edge, executor cache and obs metering do all the work.
func runServeHot(b *bench) error {
	cfg := b.cfg
	clients := runtime.GOMAXPROCS(0)
	g, err := serveInput(cfg)
	if err != nil {
		return err
	}
	// The checker: a locally built oracle with the same spec and seed
	// answers the pool; served answers must be bit-identical. It is
	// dropped before the server starts, so heap_live_mb does not
	// count it.
	mix := workload.UniformMix(g.NumVertices(), cfg.seed)
	pool := make([][2]graph.V, cfg.sz.pool)
	for i := range pool {
		pool[i] = mix.Next()
	}
	want, ratios, err := func() ([]graph.Dist, []float64, error) {
		local := localOracle(g, cfg.seed)
		st, err := local.QueryBatch(pool)
		if err != nil {
			return nil, nil, err
		}
		want := make([]graph.Dist, len(pool))
		var ratios []float64
		for i, p := range pool {
			want[i] = st[i].Dist
			if d := local.ExactDistance(p[0], p[1]); d > 0 {
				ratios = append(ratios, float64(want[i])/float64(d))
			}
		}
		return want, ratios, nil
	}()
	if err != nil {
		return err
	}

	// Each set-up repetition gets a fresh server; the last one serves.
	var s *served
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	const id = "hot"
	queryPool := func(tr *tracer, p *phase, i int) error {
		d, err := s.query(tr, id, pool[i])
		if err != nil {
			b.fail(p, err)
			return err
		}
		d = b.answer(d)
		b.check(p, d == want[i], "served d(%d,%d) = %d, local oracle %d", pool[i][0], pool[i][1], d, want[i])
		return nil
	}

	setup := b.phase("setup")
	var setups []float64
	for rep := 0; rep < cfg.sz.reps; rep++ {
		if s != nil {
			s.close()
		}
		if s, err = startServer(b, clients); err != nil {
			return err
		}
		build, err := s.register(id, cfg.sz.serveGen, cfg.seed)
		if err != nil {
			return err
		}
		// Warm-up: every pool pair once, which fills the cache.
		warm := timeIt(func() {
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := c; i < len(pool); i += clients {
						_ = queryPool(nil, setup, i)
					}
				}(c)
			}
			wg.Wait()
		})
		setups = append(setups, (build + warm).Seconds())
	}

	phase := func(name string, tr *tracer) *timed {
		p := b.phase(name)
		rs := make([]*rng.RNG, clients)
		for c := range rs {
			rs[c] = rng.New(cfg.seed + uint64(c+1)*seedSalt)
		}
		return closedLoop(clients, cfg.dur, cfg.sz.windows, func(c int) (bool, error) {
			return false, queryPool(tr, p, rs[c].Intn(len(pool)))
		}, nil)
	}
	if !cfg.traced {
		st := phase("timed", nil).stats()
		b.set("heap_live_mb", heapLiveMB(), "MB")
		b.report(st)
		b.set("setup_s", median(setups), "s")
		b.stretchStats(ratios)
		b.set("mutate_p50_ms", s.probe(nil, id, g), "ms")
		s.checkQuality(b.phase("check"), id)
		return nil
	}
	b.layerDefaults()
	ref := phase("untraced", nil)
	before, err := s.stats(id)
	if err != nil {
		return err
	}
	t := phase("traced", b.tr)
	after, err := s.stats(id)
	if err != nil {
		return err
	}
	b.traceOverhead(ref.stats(), t.stats(), "server.handler", "client.query")
	if err := s.serverLayers(id, before, after); err != nil {
		return err
	}
	s.probe(b.tr, id, g)
	b.set("server.mutate_handler_p50_ms", median(b.tr.self("server.mutate_handler")), "ms")
	s.checkQuality(b.phase("check"), id)
	return nil
}

// probeGap spaces serve-hot's probe batches, so the probe spans about
// a second instead of one instant of a host whose speed drifts from
// second to second.
const probeGap = 4 * time.Millisecond

// probe posts probeBatches seeded churn batches to graph id one at a
// time, one every probeGap, folding the journal with an untimed forced
// rebuild every probeRound batches, and returns their median latency
// in ms: mutate_p50_ms of serve-hot, whose traffic has no writes.
func (s *served) probe(tr *tracer, id string, g *graph.Graph) float64 {
	b := s.b
	p := b.phase("probe")
	runtime.GC() // start the probe without a collection in flight
	mut, err := workload.NewMutator(g, "churn", serveMaxW, b.cfg.seed)
	if err != nil {
		b.fail(p, err)
		return 0
	}
	var lat []float64
	next := time.Now()
	for i := 0; i < b.cfg.sz.probeBatches; i++ {
		if i > 0 && i%probeRound == 0 {
			if err := s.do(nil, "", "POST", "/graphs/"+id+"/rebuild", nil, nil); err != nil {
				b.fail(p, err)
			}
			next = time.Now()
		}
		time.Sleep(time.Until(next))
		next = next.Add(probeGap)
		us := mut.Batch(mutateBatch)
		d := timeIt(func() { err = s.mutate(tr, id, us) })
		if err != nil {
			b.fail(p, err)
			continue
		}
		p.done(nil)
		lat = append(lat, ms(d))
	}
	return median(lat)
}

// churnSeq is serve-churn's one seeded operation sequence: a uniform
// read mix with a batch of mutateBatch churn updates after every
// readsPerMut reads. Draws are ordered by mu; a drawn mutation also
// takes send, which its sender holds until the POST returns, so
// batches reach the server in draw order whatever the client count.
type churnSeq struct {
	mu        sync.Mutex
	send      sync.Mutex
	mix       workload.Mix
	mut       *workload.Mutator
	since     int
	limit     int       // stop drawing after this many batches; 0 = never
	ops       []churnOp // drawn batches, and reads too when keepReads
	keepReads bool
	batches   int
	finished  bool
}

// churnOp is one drawn operation: a read pair, or a mutation batch.
type churnOp struct {
	pair  [2]graph.V
	batch []dynamic.Update
}

func newChurnSeq(g *graph.Graph, seed uint64) (*churnSeq, error) {
	mut, err := workload.NewMutator(g, "churn", serveMaxW, seed)
	if err != nil {
		return nil, err
	}
	return &churnSeq{mix: workload.UniformMix(g.NumVertices(), seed), mut: mut}, nil
}

// next draws the next operation; ok is false once limit batches have
// been drawn. For a mutation the caller must release q.send after
// its POST returns.
func (q *churnSeq) next() (op churnOp, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.finished {
		return churnOp{}, false
	}
	if q.since == readsPerMut {
		q.since = 0
		op.batch = q.mut.Batch(mutateBatch)
		q.batches++
		if q.limit > 0 && q.batches == q.limit {
			q.finished = true
		}
		q.send.Lock()
	} else {
		q.since++
		op.pair = q.mix.Next()
	}
	if op.batch != nil || q.keepReads {
		q.ops = append(q.ops, op)
	}
	return op, true
}

// run sends one drawn operation. Reads only need a 200 with a sane
// distance here; their answers are audited by the server and checked
// after the forced rebuild.
func (q *churnSeq) run(s *served, tr *tracer, p *phase, id string, op churnOp) (bool, error) {
	if op.batch != nil {
		err := s.mutate(tr, id, op.batch)
		q.send.Unlock()
		p.done(err)
		if err != nil {
			s.b.logf("%s: %v", p.name, err)
		}
		return true, err
	}
	d, err := s.query(tr, id, op.pair)
	if err == nil && d < 0 {
		err = fmt.Errorf("served d(%d,%d) = %d", op.pair[0], op.pair[1], d)
	}
	p.done(err)
	if err != nil {
		s.b.logf("%s: %v", p.name, err)
	}
	return false, err
}

// runServeChurn: the serve-hot server and graph under a uniform read
// mix with a mutation batch after every 8th read — the cache is
// flushed on each mutation, reads hit dirty overlays, and background
// rebuilds compete for the cores.
func runServeChurn(b *bench) error {
	cfg := b.cfg
	clients := runtime.GOMAXPROCS(0)
	g, err := serveInput(cfg)
	if err != nil {
		return err
	}
	// The checker's stretch envelope, from a local oracle built with
	// the same spec and seed before the server starts.
	lo, hi := localOracle(g, cfg.seed).StretchEnvelope()
	// Each set-up repetition gets a fresh server; the last one serves.
	var s *served
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	const id = "churn"
	setup := b.phase("setup")
	var setups []float64
	var seq *churnSeq
	for rep := 0; rep < cfg.sz.reps; rep++ {
		if s != nil {
			s.close()
		}
		if s, err = startServer(b, clients); err != nil {
			return err
		}
		if seq, err = newChurnSeq(g, cfg.seed); err != nil {
			return err
		}
		seq.keepReads = cfg.traced // the traced replay re-runs the reads
		build, err := s.register(id, cfg.sz.serveGen, cfg.seed)
		if err != nil {
			return err
		}
		// Warm-up: exactly one rebuild's worth of the sequence, then
		// wait for that background rebuild to swap in.
		seq.limit = maxJournal / mutateBatch
		var werr error
		warm := timeIt(func() {
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for op, ok := seq.next(); ok; op, ok = seq.next() {
						_, _ = seq.run(s, nil, setup, id, op)
					}
				}()
			}
			wg.Wait()
			_, werr = s.life.await("rebuild_swapped", id, 1, 60*time.Second)
		})
		if werr != nil {
			return werr
		}
		setups = append(setups, (build + warm).Seconds())
	}
	seq.limit, seq.finished = 0, false

	phase := func(name string, tr *tracer) *timed {
		p := b.phase(name)
		return closedLoop(clients, cfg.dur, cfg.sz.windows, func(int) (bool, error) {
			op, _ := seq.next()
			return seq.run(s, tr, p, id, op)
		}, nil)
	}
	var before, after graphStats
	if !cfg.traced {
		st := phase("timed", nil).stats()
		b.report(st)
		b.set("mutate_p50_ms", st.mutP50ms, "ms")
		b.set("setup_s", median(setups), "s")
	} else {
		b.layerDefaults()
		ref := phase("untraced", nil)
		if before, err = s.stats(id); err != nil {
			return err
		}
		t := phase("traced", b.tr)
		if after, err = s.stats(id); err != nil {
			return err
		}
		b.traceOverhead(ref.stats(), t.stats(), "server.handler", "client.query")
		b.set("server.mutate_handler_p50_ms", median(b.tr.self("server.mutate_handler")), "ms")
	}

	// Checks: a clean audit, then served answers after a forced
	// rebuild against exact distances on the mutated graph, which the
	// benchmark rebuilds locally from the batches it sent.
	cp := b.phase("check")
	s.checkQuality(cp, id)
	cp.done(s.do(nil, "", "POST", "/graphs/"+id+"/rebuild", nil, nil))
	if !cfg.traced {
		// Measured once the forced rebuild has folded the journal, so
		// the figure does not depend on where in a background rebuild
		// cycle the timed phase happened to end. The sequence's
		// mutator (a copy of the edge set) is dropped first: no more
		// operations are drawn.
		seq.mut = nil
		b.set("heap_live_mb", heapLiveMB(), "MB")
	}
	shadow := dynamic.New(noQuerier{}, g, 0)
	for _, op := range seq.ops {
		if op.batch != nil {
			if _, err := shadow.Apply(op.batch); err != nil {
				return fmt.Errorf("replaying the sent batches: %w", err)
			}
		}
	}
	mix := workload.UniformMix(g.NumVertices(), cfg.seed^checkSalt)
	var ratios []float64
	for i := 0; i < cfg.sz.checkPairs; i++ {
		p := mix.Next()
		a, err := s.query(nil, id, p)
		if err != nil {
			b.fail(cp, err)
			continue
		}
		a = b.answer(a)
		d, err := shadow.ExactDistanceAt(shadow.Generation(), p[0], p[1])
		if err != nil {
			b.fail(cp, err)
			continue
		}
		b.check(cp, inEnvelope(a, d, lo, hi), "after rebuild d(%d,%d) = %d, exact %d, envelope [%g, %g]", p[0], p[1], a, d, lo, hi)
		if d > 0 && d != graph.InfDist {
			ratios = append(ratios, float64(a)/float64(d))
		}
	}
	if !cfg.traced {
		b.stretchStats(ratios)
		return nil
	}
	if err := s.serverLayers(id, before, after); err != nil {
		return err
	}
	return replay(b, g, seq.ops)
}

// noQuerier is the base of the checker's shadow overlay, which only
// ever answers exact queries.
type noQuerier struct{}

func (noQuerier) Query(s, t graph.V) (graph.Dist, error) {
	return 0, errors.New("perfbench: shadow overlay has no base oracle")
}

// replay re-runs the recorded serve-churn sequence single-threaded
// against a facade DynamicOracle built from the same spec and seed,
// forcing a rebuild whenever the journal reaches the default policy's
// threshold, and times each dynamic-layer call by overlay regime.
func replay(b *bench, g *graph.Graph, ops []churnOp) error {
	o := spanhop.NewDistanceOracleOpts(g, eps, b.cfg.seed, spanhop.OracleOptions{
		Exec:      spanhop.SequentialExec(),
		QueryExec: spanhop.ParallelExec(runtime.GOMAXPROCS(0)),
	})
	dyn := spanhop.NewDynamicOracle(o, spanhop.RebuildPolicy{Disabled: true, Workers: 1})
	defer dyn.Close()
	p := b.phase("replay")
	count := map[string]int{}
	for _, op := range ops[:min(len(ops), replayOps)] {
		if op.batch != nil {
			id := b.tr.begin("dynamic.apply", -1, 0)
			_, err := dyn.ApplyUpdates(op.batch)
			b.tr.end(id)
			p.done(err)
			if err != nil {
				return fmt.Errorf("replay: %w", err)
			}
			if dyn.PendingUpdates() >= maxJournal {
				if err := dyn.ForceRebuild(context.Background()); err != nil {
					return fmt.Errorf("replay rebuild: %w", err)
				}
			}
			continue
		}
		regime, gen := dyn.TraceInfo()
		count[regime]++
		id := b.tr.begin("dynamic.query."+regime, -1, 0)
		_, err := dyn.QueryStats(op.pair[0], op.pair[1])
		b.tr.end(id)
		p.done(err)
		if count[regime]%8 == 1 {
			id := b.tr.begin("dynamic.exact", -1, 0)
			_, err := dyn.ExactDistanceAt(gen, op.pair[0], op.pair[1])
			b.tr.end(id)
			p.done(err)
		}
	}
	for _, r := range []string{"clean", "improving", "degrading"} {
		b.set("dynamic.query_p50_ms."+r, median(b.tr.self("dynamic.query."+r)), "ms")
		b.set("dynamic.share."+r, float64(count[r]), "count")
	}
	b.set("dynamic.apply_p50_ms", median(b.tr.self("dynamic.apply")), "ms")
	b.set("dynamic.exact_p50_ms", median(b.tr.self("dynamic.exact")), "ms")
	return nil
}
