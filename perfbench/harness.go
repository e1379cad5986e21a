package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/graph"
)

// sizes fixes every input size and repetition count of a run.
type sizes struct {
	roadSide     int32 // offline-road grid side
	spannerN     int32 // offline-spanner vertices
	spannerM     int64 // offline-spanner edges
	serveGen     string
	pool         int // serve-hot repeat pool (fits the 4096-entry cache)
	reps         int // set-ups per run; setup_s is their median
	spanners     int // offline-spanner's spanners per run (its set-ups)
	windows      int // timed-phase windows; rates and percentiles are window medians
	probeBatches int // mutation batches of the mutate_p50_ms probe
	checkPairs   int // pairs behind stretch_mean / stretch_max
}

// full is the benchmark's input scale.
var full = sizes{
	roadSide: 100, spannerN: 16384, spannerM: 524288,
	serveGen: "grid:side=64,w=uniform,maxw=50",
	pool:     512, reps: 3, spanners: 12, windows: 10, probeBatches: 252, checkPairs: 128,
}

type config struct {
	workload string
	seed     uint64
	dur      time.Duration
	traced   bool
	sz       sizes
	traceDir string
	// corrupt makes the first checked answer of the run wrong, so the
	// checker self-test can see it counted as failed.
	corrupt bool
}

// Shared workload parameters: the daemon's default accuracy, the
// churn batch shape, and the rebuild threshold of the default policy.
const (
	eps         = 0.25
	mutateBatch = 4
	readsPerMut = 8
	maxJournal  = 256
	spannerK    = 4
	spannerMaxW = 100
	serveMaxW   = 50
	roadBase    = 4
	roadScales  = 5
	estBeta     = 0.2
	maxLogs     = 8
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phase counts the operations one phase of a run attempted and failed.
type phase struct {
	name              string
	attempted, failed atomic.Int64
}

// bench is the state of one run: its phases, correctness verdict,
// tracer (nil when untraced) and the metrics it reports.
type bench struct {
	cfg     config
	tr      *tracer
	mu      sync.Mutex
	phases  []*phase
	wrong   int64
	metrics map[string]metric
	spoiled atomic.Bool
	logged  atomic.Int64
}

func newBench(cfg config) *bench {
	b := &bench{cfg: cfg, metrics: map[string]metric{}}
	if cfg.traced {
		b.tr = newTracer()
	}
	return b
}

func (b *bench) phase(name string) *phase {
	p := &phase{name: name}
	b.mu.Lock()
	b.phases = append(b.phases, p)
	b.mu.Unlock()
	return p
}

// done records one operation's outcome in its phase.
func (p *phase) done(err error) {
	p.attempted.Add(1)
	if err != nil {
		p.failed.Add(1)
	}
}

// fail records a failed operation that was not a wrong answer
// (transport error, refusal, bad status).
func (b *bench) fail(p *phase, err error) {
	p.done(err)
	b.logf("%s: %v", p.name, err)
}

// check records one checked answer; a false ok is a wrong answer: it
// fails the operation and the run's correctness verdict.
func (b *bench) check(p *phase, ok bool, format string, args ...any) {
	p.attempted.Add(1)
	if ok {
		return
	}
	p.failed.Add(1)
	b.mu.Lock()
	b.wrong++
	b.mu.Unlock()
	b.logf("%s: wrong answer: "+format, append([]any{p.name}, args...)...)
}

// logf reports a failure on standard error; only the first maxLogs
// of a run are printed.
func (b *bench) logf(format string, args ...any) {
	if b.logged.Add(1) <= maxLogs {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
}

// answer passes d through, except that a corrupt run replaces its
// first answer with -1, which no checker accepts.
func (b *bench) answer(d graph.Dist) graph.Dist {
	if b.cfg.corrupt && b.spoiled.CompareAndSwap(false, true) {
		return -1
	}
	return d
}

// set records a metric. An end-to-end metric without samples (NaN) is
// a broken run: it reads 0 and fails the correctness verdict. A
// per-layer one reads 0 because the workload never reached the layer.
func (b *bench) set(name string, v float64, unit string) {
	if finite(v) != v {
		if !b.cfg.traced {
			b.mu.Lock()
			b.wrong++
			b.mu.Unlock()
			b.logf("metric %s has no samples", name)
		}
		v = 0
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// finish prints each phase's tally and assembles the result line.
func (b *bench) finish() *result {
	res := &result{Metrics: b.metrics}
	for _, p := range b.phases {
		a, f := p.attempted.Load(), p.failed.Load()
		fmt.Fprintf(os.Stderr, "perfbench: phase %-8s attempted=%d ok=%d failed=%d\n", p.name, a, a-f, f)
		res.Attempted += a
		res.Failed += f
	}
	res.Correct = b.wrong == 0 && res.Attempted > 0
	if !b.cfg.traced && res.Attempted > 0 {
		b.set("success_frac", float64(res.Attempted-res.Failed)/float64(res.Attempted), "ratio")
	}
	return res
}

func execute(cfg config) (*result, error) {
	run, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	b := newBench(cfg)
	if err := run(b); err != nil {
		return nil, err
	}
	if b.tr != nil {
		if err := b.tr.write(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed)); err != nil {
			return nil, err
		}
	}
	return b.finish(), nil
}

var workloads = map[string]func(*bench) error{
	"offline-road":    runOfflineRoad,
	"offline-spanner": runOfflineSpanner,
	"serve-hot":       runServeHot,
	"serve-churn":     runServeChurn,
}

// ---------------------------------------------------------------------------
// The timed phase.

// sample is one completed operation of a timed phase.
type sample struct {
	end time.Duration // since phase start
	lat time.Duration
	mut bool
}

// timed is a finished closed-loop phase: per-operation samples plus
// the process CPU clock read at every window boundary.
type timed struct {
	dur     time.Duration
	windows int
	samples []sample
	cpu     []time.Duration // len windows+1
}

// closedLoop runs op from clients goroutines, each issuing its next
// operation only after the previous one returned, until dur has
// passed. op reports whether it was a mutation; its error (already
// tallied by op) only excludes it from the latency samples. between,
// when not nil, runs after each operation outside its timing.
func closedLoop(clients int, dur time.Duration, windows int, op func(client int) (mut bool, err error), between func()) *timed {
	t := &timed{dur: dur, windows: windows, cpu: make([]time.Duration, windows+1)}
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k <= windows; k++ {
			time.Sleep(time.Until(start.Add(dur * time.Duration(k) / time.Duration(windows))))
			t.cpu[k] = procCPU()
		}
	}()
	per := make([][]sample, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < dur {
				t0 := time.Now()
				mut, err := op(c)
				end := time.Since(start)
				if err == nil {
					per[c] = append(per[c], sample{end: end, lat: time.Since(t0), mut: mut})
				}
				if between != nil {
					between()
				}
			}
		}(c)
	}
	wg.Wait()
	for _, s := range per {
		t.samples = append(t.samples, s...)
	}
	return t
}

// phaseStats are the end-to-end figures of a timed phase: medians
// over its windows of the per-window query rate, latency percentiles
// and CPU per query, plus the pooled median mutation latency.
type phaseStats struct {
	qps, p50ms, p90ms, cpuMS, mutP50ms float64
	queries                            int
}

func (t *timed) stats() phaseStats {
	win := t.dur / time.Duration(t.windows)
	lats := make([][]float64, t.windows)
	// done[k] is the share of operations completed in window k: each
	// query counts 1 spread over its duration, so a window's rate is
	// not quantized to whole queries.
	done := make([]float64, t.windows)
	var muts []float64
	var st phaseStats
	for _, s := range t.samples {
		if s.mut {
			muts = append(muts, ms(s.lat))
			continue
		}
		start := s.end - s.lat
		for k := max(0, int(start/win)); k < t.windows && time.Duration(k)*win < s.end; k++ {
			lo := max(start, time.Duration(k)*win)
			hi := min(s.end, time.Duration(k+1)*win)
			if s.lat > 0 && hi > lo {
				done[k] += float64(hi-lo) / float64(s.lat)
			}
		}
		k := int(s.end / win)
		if k >= t.windows {
			continue // completed after the deadline
		}
		lats[k] = append(lats[k], ms(s.lat))
		st.queries++
	}
	var qps, p50, p90, cpu []float64
	for k, l := range lats {
		if len(l) == 0 {
			continue
		}
		qps = append(qps, done[k]/win.Seconds())
		p50 = append(p50, quantile(l, 0.5))
		p90 = append(p90, quantile(l, 0.9))
		cpu = append(cpu, ms(t.cpu[k+1]-t.cpu[k])/done[k])
	}
	st.qps, st.p50ms, st.p90ms, st.cpuMS = median(qps), median(p50), median(p90), median(cpu)
	st.mutP50ms = median(muts)
	fmt.Fprintf(os.Stderr, "perfbench: %d queries; per window: qps %.4g p50 %.4g p90 %.4g\n", st.queries, qps, p50, p90)
	return st
}

// report sets the timed-phase metrics of an end-to-end run.
func (b *bench) report(st phaseStats) {
	b.set("query_qps", st.qps, "1/s")
	b.set("query_p50_ms", st.p50ms, "ms")
	b.set("query_p90_ms", st.p90ms, "ms")
	b.set("cpu_ms_per_query", st.cpuMS, "ms")
}

// ---------------------------------------------------------------------------
// Small measurement helpers.

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the linearly interpolated q-quantile of xs (sorted in
// place); NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// procCPU is the process's user+system CPU time (getrusage).
func procCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapLiveMB is /gc/heap/live:bytes after two forced collections.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return math.NaN()
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// timeIt returns how long f took.
func timeIt(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// stretchStats sets stretch_mean and stretch_max from served/exact
// ratios.
func (b *bench) stretchStats(ratios []float64) {
	b.set("stretch_mean", mean(ratios), "ratio")
	b.set("stretch_max", maxOf(ratios), "ratio")
}

// inEnvelope reports lo·d ≤ a ≤ hi·d for positive d, with a relative
// slack for float rounding; a zero exact distance needs a zero answer.
func inEnvelope(a, d int64, lo, hi float64) bool {
	if d == 0 {
		return a == 0
	}
	const slack = 1e-9
	r := float64(a) / float64(d)
	return r >= lo*(1-slack) && r <= hi*(1+slack)
}
