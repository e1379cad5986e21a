package obs

// Answer-quality auditing: is the oracle telling the truth?
//
// Latency, cost and traffic dashboards would not notice the one
// failure mode that actually matters for a distance oracle: silently
// wrong answers. The Auditor closes that gap by shadow-sampling served
// queries and re-checking them against an independent exact
// recomputation (point-to-point Dijkstra over the patched adjacency,
// pinned to the generation the answer was served at). Served graphs
// answer exactly, so any difference — in distance or in connectivity
// — is a correctness alarm: the serving path is broken (a stale cache
// entry, a wrong overlay dispatch) and the evidence is preserved.
//
// Design constraints, in order:
//
//   - Auditing must never starve serving. Samples flow through a
//     bounded drop-oldest queue into a small fixed worker pool, and
//     each graph carries a hard CPU budget: cumulative audit thread-CPU
//     may not exceed CPUFrac of the wall time since the graph
//     registered. Over budget → the sample is counted and discarded.
//   - The package cannot import the oracle. Rechecking is injected as
//     a RecheckFunc per graph; a recheck against a generation that a
//     rebuild has since compacted away returns ErrAuditStale and is a
//     counted skip, never a violation.
//   - Everything is nil-safe: a nil *Auditor accepts and drops all
//     calls, so library users and tests pay nothing.

import (
	"context"
	"errors"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrAuditStale is returned by a RecheckFunc when the pinned
// generation has been compacted away by a rebuild between sampling
// and auditing. The sample is uncheckable — counted as a stale skip,
// never as a violation.
var ErrAuditStale = errors.New("obs: audited generation compacted away")

// ErrAuditorClosed is Drain's error when the auditor closes with
// samples still queued: they are abandoned, never audited.
var ErrAuditorClosed = errors.New("obs: auditor closed")

// RecheckFunc recomputes the exact distance for (s, t) on the graph
// as of generation gen. unreachable reports a disconnected pair (the
// dist value is then meaningless). Implementations are called from
// auditor worker goroutines and must be safe for concurrent use.
type RecheckFunc func(gen uint64, s, t int32) (dist int64, unreachable bool, err error)

// AuditSample is one served answer queued for shadow re-checking.
type AuditSample struct {
	Graph       string
	S, T        int32
	Answer      int64
	Unreachable bool // the served answer was "disconnected"
	Regime      string
	Gen         uint64
	TraceID     string // non-empty when the request was traced
}

// AuditEvidence preserves one audited query with full context — the
// evidence ring holds the offending queries behind each violation so
// an operator can reproduce the wrong answer after the alarm fires.
type AuditEvidence struct {
	Time              time.Time `json:"time"`
	S                 int32     `json:"s"`
	T                 int32     `json:"t"`
	Gen               uint64    `json:"gen"`
	Regime            string    `json:"regime"`
	Served            int64     `json:"served"`
	Exact             int64     `json:"exact"`
	ServedUnreachable bool      `json:"served_unreachable,omitempty"`
	ExactUnreachable  bool      `json:"exact_unreachable,omitempty"`
	TraceID           string    `json:"trace_id,omitempty"`
	Reason            string    `json:"reason,omitempty"`
}

// Violation reasons recorded in evidence and logs.
const (
	ReasonExactMismatch       = "exact-mismatch"       // served distance ≠ exact
	ReasonUnreachableMismatch = "unreachable-mismatch" // connectivity disagreement
)

// AuditorOptions configure NewAuditor. Zero values pick defaults.
type AuditorOptions struct {
	// SampleEvery audits every Nth served query (deterministic).
	// 0 picks the default; negative disables rate sampling (traced
	// requests are still always audited).
	SampleEvery int
	// CPUFrac caps cumulative per-graph audit CPU at this fraction of
	// wall time since the graph registered. 0 picks the default;
	// negative disables the cap.
	CPUFrac float64
	// Queue bounds the pending-sample channel (drop-oldest beyond).
	Queue int
	// Workers is the recheck goroutine count.
	Workers int
	// Evidence bounds the per-graph violation evidence ring.
	Evidence int

	Log    *slog.Logger
	Events *Events
	Acct   *Accountant // audit CPU metered under op=audit
	Traces *Ring       // audit outcomes annotated onto finished traces
}

// Defaults for AuditorOptions zero values.
const (
	DefaultAuditSample   = 64
	DefaultAuditCPUFrac  = 0.05
	defaultAuditQueue    = 256
	defaultAuditWorkers  = 2
	defaultAuditEvidence = 16
)

// auditRegime counts per-(graph, regime) audits.
type auditRegime struct {
	count      int64
	violations int64
}

// auditGraph is one registered graph's audit state. Audits are
// low-rate background work, so a single mutex per graph is plenty.
type auditGraph struct {
	mu      sync.Mutex
	recheck RecheckFunc
	start   time.Time // budget wall-clock base

	sampled     int64 // accepted into the queue
	audited     int64 // rechecks completed and classified
	dropped     int64 // evicted by drop-oldest (or queue full)
	budgetSkips int64 // discarded: over CPU budget
	staleSkips  int64 // discarded: generation compacted away
	errs        int64 // recheck failed for any other reason
	violations  int64
	cpuNS       int64 // cumulative audit thread-CPU

	regimes  map[string]*auditRegime
	evidence ring[AuditEvidence] // newest violations
}

func (g *auditGraph) regime(name string) *auditRegime {
	r := g.regimes[name]
	if r == nil {
		r = &auditRegime{}
		g.regimes[name] = r
	}
	return r
}

// Auditor continuously re-checks a sample of served answers against
// exact recomputation. Safe for concurrent use; nil is valid and
// inert.
type Auditor struct {
	sampleEvery int
	cpuFrac     float64
	evidenceCap int
	log         *slog.Logger
	events      *Events
	acct        *Accountant
	traces      *Ring

	sampleC atomic.Uint64

	mu     sync.RWMutex
	graphs map[string]*auditGraph

	queue  chan AuditSample
	quit   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	// pending counts accepted samples not yet audited, skipped or
	// dropped; idle is closed whenever pending is zero (Drain waits on
	// it) and replaced when a sample arrives at an idle auditor.
	pendMu  sync.Mutex
	pending int
	idle    chan struct{}
}

// NewAuditor starts an auditor with opts.Workers background recheck
// workers. Close releases them.
func NewAuditor(opts AuditorOptions) *Auditor {
	if opts.SampleEvery == 0 {
		opts.SampleEvery = DefaultAuditSample
	}
	if opts.CPUFrac == 0 {
		opts.CPUFrac = DefaultAuditCPUFrac
	}
	if opts.Queue <= 0 {
		opts.Queue = defaultAuditQueue
	}
	if opts.Workers <= 0 {
		opts.Workers = defaultAuditWorkers
	}
	if opts.Evidence <= 0 {
		opts.Evidence = defaultAuditEvidence
	}
	if opts.Acct == nil {
		// audit meters each recheck through the accountant; a private
		// one keeps the CPU budget working when no caller reads it.
		opts.Acct = NewAccountant()
	}
	a := &Auditor{
		sampleEvery: opts.SampleEvery,
		cpuFrac:     opts.CPUFrac,
		evidenceCap: opts.Evidence,
		log:         opts.Log,
		events:      opts.Events,
		acct:        opts.Acct,
		traces:      opts.Traces,
		graphs:      make(map[string]*auditGraph),
		queue:       make(chan AuditSample, opts.Queue),
		quit:        make(chan struct{}),
		idle:        make(chan struct{}),
	}
	close(a.idle)
	a.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go a.worker()
	}
	return a
}

// SampleEvery reports the every-Nth sampling stride (≤ 0 when rate
// sampling is disabled).
func (a *Auditor) SampleEvery() int {
	if a == nil {
		return 0
	}
	return a.sampleEvery
}

// CPUFrac reports the per-graph audit CPU budget fraction (≤ 0 when
// uncapped).
func (a *Auditor) CPUFrac() float64 {
	if a == nil {
		return 0
	}
	return a.cpuFrac
}

// Register installs (or refreshes, preserving counters) a graph's
// exact-recheck hook. Samples for unregistered graphs are rejected at
// Offer.
func (a *Auditor) Register(graph string, recheck RecheckFunc) {
	if a == nil || recheck == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if g := a.graphs[graph]; g != nil {
		g.mu.Lock()
		g.recheck = recheck
		g.mu.Unlock()
		return
	}
	a.graphs[graph] = &auditGraph{
		recheck:  recheck,
		start:    time.Now(),
		regimes:  make(map[string]*auditRegime),
		evidence: newRing[AuditEvidence](a.evidenceCap),
	}
}

// Forget drops a graph's audit state (graph deleted). Queued samples
// for it become no-ops.
func (a *Auditor) Forget(graph string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	delete(a.graphs, graph)
	a.mu.Unlock()
}

// Close stops the workers. Queued samples are abandoned.
func (a *Auditor) Close() {
	if a == nil || a.closed.Swap(true) {
		return
	}
	close(a.quit)
	a.wg.Wait()
}

// Drain blocks until every sample Offer has accepted is audited,
// skipped or dropped. It returns ctx's error if ctx ends first, and
// ErrAuditorClosed if the auditor closes first. It returns the first
// time the pipeline is empty: samples offered before then extend the
// wait, later ones do not.
func (a *Auditor) Drain(ctx context.Context) error {
	if a == nil {
		return nil
	}
	a.pendMu.Lock()
	idle := a.idle
	a.pendMu.Unlock()
	select {
	case <-idle:
		return nil
	default:
	}
	select {
	case <-idle:
		return nil
	case <-a.quit:
		return ErrAuditorClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}

// enter counts one sample into the pipeline before it is queued.
func (a *Auditor) enter() {
	a.pendMu.Lock()
	if a.pending == 0 {
		a.idle = make(chan struct{})
	}
	a.pending++
	a.pendMu.Unlock()
}

// leave counts one sample out: audited, skipped or dropped.
func (a *Auditor) leave() {
	a.pendMu.Lock()
	a.pending--
	if a.pending == 0 {
		close(a.idle)
	}
	a.pendMu.Unlock()
}

func (a *Auditor) graph(id string) *auditGraph {
	a.mu.RLock()
	g := a.graphs[id]
	a.mu.RUnlock()
	return g
}

// SampleHit reports whether the next served query falls on the
// deterministic every-Nth sampling grid. Traced requests bypass this
// and are always offered.
func (a *Auditor) SampleHit() bool {
	if a == nil || a.sampleEvery <= 0 {
		return false
	}
	return a.sampleC.Add(1)%uint64(a.sampleEvery) == 0
}

// Offer enqueues a sample for background auditing, evicting the
// oldest queued sample when full (serving latency is never blocked on
// audit capacity). Reports whether the sample was accepted.
func (a *Auditor) Offer(s AuditSample) bool {
	if a == nil || a.closed.Load() {
		return false
	}
	g := a.graph(s.Graph)
	if g == nil {
		return false
	}
	accept := func() {
		g.mu.Lock()
		g.sampled++
		g.mu.Unlock()
	}
	// Counted in before the send, so a worker that audits it at once
	// never takes pending below zero.
	a.enter()
	select {
	case a.queue <- s:
		accept()
		return true
	default:
	}
	// Full: pop the oldest (drop attributed to its graph), retry once.
	select {
	case old := <-a.queue:
		if og := a.graph(old.Graph); og != nil {
			og.mu.Lock()
			og.dropped++
			og.mu.Unlock()
		}
		a.leave()
	default:
	}
	select {
	case a.queue <- s:
		accept()
		return true
	default:
		g.mu.Lock()
		g.dropped++
		g.mu.Unlock()
		a.leave()
		return false
	}
}

func (a *Auditor) worker() {
	defer a.wg.Done()
	for {
		select {
		case <-a.quit:
			return
		case s := <-a.queue:
			a.audit(s)
			a.leave()
		}
	}
}

// audit re-checks one sample: budget gate, exact recompute (metered
// as op=audit), equality check, regime counters/evidence/alarm.
func (a *Auditor) audit(s AuditSample) {
	g := a.graph(s.Graph)
	if g == nil {
		return // graph deleted between sampling and auditing
	}

	g.mu.Lock()
	if a.cpuFrac > 0 {
		elapsed := time.Since(g.start).Nanoseconds()
		if elapsed > 0 && float64(g.cpuNS) > a.cpuFrac*float64(elapsed) {
			g.budgetSkips++
			g.mu.Unlock()
			return
		}
	}
	recheck := g.recheck
	g.mu.Unlock()

	// The accountant section runs the recheck thread-locked; the CPU
	// it measures is charged both to its cell (op=audit) and to this
	// graph's budget.
	cs := a.acct.Begin()
	exact, exUnreach, err := recheck(s.Gen, s.S, s.T)
	cpu := a.acct.End(cs, s.Graph, OpAudit, 1, err != nil && !errors.Is(err, ErrAuditStale))

	g.mu.Lock()
	defer g.mu.Unlock()
	if cpu > 0 {
		g.cpuNS += cpu
	}
	if err != nil {
		if errors.Is(err, ErrAuditStale) {
			g.staleSkips++
		} else {
			g.errs++
			if a.log != nil {
				a.log.Warn("audit recheck failed",
					"graph", s.Graph, "s", s.S, "t", s.T,
					"gen", s.Gen, "err", err)
			}
		}
		return
	}
	g.audited++

	// Classify: connectivity must agree, and a reachable pair must be
	// served its exact distance.
	reason := ""
	switch {
	case s.Unreachable != exUnreach:
		reason = ReasonUnreachableMismatch
	case !exUnreach && s.Answer != exact:
		reason = ReasonExactMismatch
	}
	r := g.regime(s.Regime)
	r.count++
	if reason == "" {
		if s.TraceID != "" {
			a.traces.Annotate(s.TraceID, "audit", "ok")
		}
		return
	}
	// Correctness alarm: an exact serving path cannot disagree with
	// the recheck.
	r.violations++
	g.violations++
	g.evidence.push(AuditEvidence{
		Time:              time.Now(),
		S:                 s.S,
		T:                 s.T,
		Gen:               s.Gen,
		Regime:            s.Regime,
		Served:            s.Answer,
		Exact:             exact,
		ServedUnreachable: s.Unreachable,
		ExactUnreachable:  exUnreach,
		TraceID:           s.TraceID,
		Reason:            reason,
	})
	a.events.Count("quality_violation")
	if a.log != nil {
		a.log.Error("answer-quality violation: served distance differs from exact",
			"graph", s.Graph, "reason", reason,
			"s", s.S, "t", s.T, "gen", s.Gen, "regime", s.Regime,
			"served", s.Answer, "exact", exact,
			"served_unreachable", s.Unreachable, "exact_unreachable", exUnreach,
			"trace", s.TraceID)
	}
	if s.TraceID != "" {
		a.traces.Annotate(s.TraceID, "audit", "violation", "audit_reason", reason)
	}
}

// AuditRegimeSnapshot is one (graph, regime) row: how many audits ran
// in that overlay regime, and how many of them were violations.
type AuditRegimeSnapshot struct {
	Regime     string `json:"regime"`
	Count      int64  `json:"count"`
	Violations int64  `json:"violations"`
}

// AuditGraphSnapshot is one graph's full audit state.
type AuditGraphSnapshot struct {
	Graph       string                `json:"graph"`
	Sampled     int64                 `json:"sampled"`
	Audited     int64                 `json:"audited"`
	Dropped     int64                 `json:"dropped"`
	BudgetSkips int64                 `json:"budget_skips"`
	StaleSkips  int64                 `json:"stale_skips"`
	Errors      int64                 `json:"errors"`
	Violations  int64                 `json:"violations"`
	AuditCPUNS  int64                 `json:"audit_cpu_ns"`
	Regimes     []AuditRegimeSnapshot `json:"regimes"`
	Evidence    []AuditEvidence       `json:"evidence"`
}

func (g *auditGraph) snapshot(name string) AuditGraphSnapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	snap := AuditGraphSnapshot{
		Graph:       name,
		Sampled:     g.sampled,
		Audited:     g.audited,
		Dropped:     g.dropped,
		BudgetSkips: g.budgetSkips,
		StaleSkips:  g.staleSkips,
		Errors:      g.errs,
		Violations:  g.violations,
		AuditCPUNS:  g.cpuNS,
		Regimes:     make([]AuditRegimeSnapshot, 0, len(g.regimes)),
		Evidence:    g.evidence.slice(), // newest first, like the trace ring
	}
	for name, r := range g.regimes {
		snap.Regimes = append(snap.Regimes,
			AuditRegimeSnapshot{Regime: name, Count: r.count, Violations: r.violations})
	}
	sort.Slice(snap.Regimes, func(i, j int) bool {
		return snap.Regimes[i].Regime < snap.Regimes[j].Regime
	})
	return snap
}

// Snapshot returns every registered graph's audit state, sorted by
// graph id.
func (a *Auditor) Snapshot() []AuditGraphSnapshot {
	if a == nil {
		return nil
	}
	a.mu.RLock()
	names := make([]string, 0, len(a.graphs))
	for name := range a.graphs {
		names = append(names, name)
	}
	a.mu.RUnlock()
	sort.Strings(names)
	out := make([]AuditGraphSnapshot, 0, len(names))
	for _, name := range names {
		if g := a.graph(name); g != nil {
			out = append(out, g.snapshot(name))
		}
	}
	return out
}

// GraphSnapshot returns one graph's audit state.
func (a *Auditor) GraphSnapshot(graph string) (AuditGraphSnapshot, bool) {
	if a == nil {
		return AuditGraphSnapshot{}, false
	}
	g := a.graph(graph)
	if g == nil {
		return AuditGraphSnapshot{}, false
	}
	return g.snapshot(graph), true
}
