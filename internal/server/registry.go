// Package server is the serving layer above the spanhop facade: a
// registry of named graphs with background oracle builds, a query
// executor that answers cache misses and explicit batches through
// QueryBatch fan-outs on a bounded worker pool, and an HTTP/JSON API.
// cmd/spanhopd wires it to a listener; cmd/loadgen drives it.
//
// A graph is loaded once and queried many times, which is the shape
// that wants to live behind a long-running daemon: queries are
// read-mostly and batch well. This package owns everything between
// the HTTP listener and DistanceOracle. Every graph the registry holds
// answers with the oracle's default exact engine (point-to-point
// Dijkstra; its build only loads the graph); a warm start refuses a
// snapshot arena that holds any other engine.
package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	spanhop "repro"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/workload"
)

// State is an oracle lifecycle phase.
type State string

const (
	// StateBuilding: the build is queued or running; queries are
	// rejected with 409.
	StateBuilding State = "building"
	// StateReady: the oracle answers queries.
	StateReady State = "ready"
	// StateFailed: the build errored; Info.Error has the cause.
	StateFailed State = "failed"
)

// GraphSpec describes a graph to register: exactly one of File (a
// graph file in the internal/graph text or binary format) or Gen (a
// workload.ParseSpec generator string).
type GraphSpec struct {
	// Name is the registry id; auto-assigned ("g0", "g1", ...) when
	// empty.
	Name string `json:"name,omitempty"`
	// File is a path readable by the server process.
	File string `json:"file,omitempty"`
	// Gen is a generator spec, e.g. "er:n=4096,d=8,w=uniform".
	Gen string `json:"gen,omitempty"`
	// Eps is the hopset accuracy parameter, in (0, 1); default 0.25.
	// It is recorded and validated but changes no answer: every graph
	// the registry holds is exact.
	Eps float64 `json:"eps,omitempty"`
	// Seed drives both generation and preprocessing; builds are
	// deterministic in (spec, seed), which lets clients re-derive and
	// verify server answers.
	Seed uint64 `json:"seed,omitempty"`
}

// Typed registry errors; the HTTP layer maps them to status codes.
var (
	ErrBuildQueueFull = errors.New("server: build queue full")
	ErrDuplicateName  = errors.New("server: graph name already registered")
	ErrUnknownGraph   = errors.New("server: unknown graph")
	ErrNotReady       = errors.New("server: graph not ready")
	ErrRebuildFailed  = errors.New("server: rebuild failed")
)

// Entry is one registered graph and its lifecycle state.
type Entry struct {
	id    string
	spec  GraphSpec
	stats *GraphStats

	// Build cancellation: cancel aborts an in-flight build at its next
	// round boundary; deleted marks the entry as evicted so the build
	// worker discards whatever the aborted build produced (no partial
	// state survives a DELETE).
	cancel  context.CancelFunc
	buildC  context.Context
	deleted atomic.Bool
	tel     *exec.Telemetry
	// btr is the build's trace: stage spans recorded by the build
	// execution context, finished into the trace ring on ready/failed.
	// Its ID is the request ID that registered the graph, tying the
	// async build back to the POST /graphs that caused it.
	btr *obs.Trace

	// dyn owns the serving state once ready: the current static oracle
	// and its base graph live inside it (and are REPLACED by rebuild
	// swaps — holding direct references here would pin the pre-rebuild
	// oracle in memory for the entry's lifetime).
	mu       sync.Mutex
	state    State
	err      string
	dyn      *spanhop.DynamicOracle
	exec     *Executor
	workload *obs.Workload
	buildMS  int64
	created  time.Time

	// Snapshot persistence: warm marks an entry restored from disk at
	// boot (it never ran a build in this process); snapSize/snapTime/
	// snapErr describe the entry's snapshot file (guarded by mu). The
	// file writes themselves are serialized by the registry's per-id
	// snapshot lock — per id, not per entry, because the .snap path is
	// keyed by id and a deleted graph's id can be re-registered.
	// snapPend marks a coalesced background rewrite already scheduled.
	warm     bool
	snapSize int64
	snapTime time.Time
	snapErr  string
	snapPend atomic.Bool
}

// Info is the JSON snapshot of an Entry.
type Info struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
	Spec  struct {
		File string  `json:"file,omitempty"`
		Gen  string  `json:"gen,omitempty"`
		Eps  float64 `json:"eps"`
		Seed uint64  `json:"seed"`
	} `json:"spec"`
	// Graph shape + oracle introspection, set once ready.
	N          int32 `json:"n,omitempty"`
	M          int64 `json:"m,omitempty"`
	Weighted   bool  `json:"weighted,omitempty"`
	Degenerate bool  `json:"degenerate,omitempty"`
	BuildMS    int64 `json:"build_ms,omitempty"`
	// BuildStages is the per-stage build telemetry (graph loading)
	// recorded by the build's execution context. Empty for
	// warm-started graphs: they never built anything in this process.
	BuildStages []exec.StageStats `json:"build_stages,omitempty"`
	// WarmStarted marks a graph restored from a snapshot at boot.
	WarmStarted bool `json:"warm_started,omitempty"`
	// Flat marks an oracle served from a mapped flat arena (a flat
	// snapshot's warm start); FlatBytes is the arena size backing it.
	// Cleared once a rebuild swaps in a freshly built oracle.
	Flat      bool  `json:"flat,omitempty"`
	FlatBytes int64 `json:"flat_bytes,omitempty"`
	// Snapshot describes the graph's on-disk snapshot, when snapshot
	// persistence is configured.
	Snapshot *SnapshotInfo `json:"snapshot,omitempty"`
	// Dynamic describes the live-update overlay (generation window,
	// pending journal, rebuild scheduler), set once ready.
	Dynamic *DynamicInfo `json:"dynamic,omitempty"`
}

// DynamicInfo is the JSON shape of a graph's dynamic-overlay state.
type DynamicInfo struct {
	// Generation is the latest applied mutation generation;
	// BaseGeneration is the one the underlying static oracle reflects.
	Generation     uint64 `json:"generation"`
	BaseGeneration uint64 `json:"base_generation"`
	// PendingUpdates / OverlayEdges describe the journal awaiting a
	// rebuild; StalenessMS is the age of its oldest entry.
	PendingUpdates int   `json:"pending_updates"`
	OverlayEdges   int   `json:"overlay_edges"`
	StalenessMS    int64 `json:"staleness_ms"`
	// Rebuild scheduler counters.
	Rebuilds       int64  `json:"rebuilds"`
	RebuildRunning bool   `json:"rebuild_running,omitempty"`
	LastCause      string `json:"last_rebuild_cause,omitempty"`
	LastRebuildMS  int64  `json:"last_rebuild_ms,omitempty"`
	LastError      string `json:"last_rebuild_error,omitempty"`
}

// dynamicInfo snapshots the overlay state (nil until ready). The
// overlay gauges come from one consistent snapshot; the scheduler
// counters are read separately (they only ever grow).
func dynamicInfo(dyn *spanhop.DynamicOracle) *DynamicInfo {
	if dyn == nil {
		return nil
	}
	g := dyn.Gauges()
	st := dyn.RebuildStats()
	info := &DynamicInfo{
		Generation:     g.Generation,
		BaseGeneration: g.FloorGen,
		PendingUpdates: g.Pending,
		OverlayEdges:   g.OverlayEdges,
		Rebuilds:       st.Rebuilds,
		RebuildRunning: st.Running,
		LastCause:      st.LastCause,
		LastRebuildMS:  st.LastRebuildMS,
		LastError:      st.LastError,
	}
	if !g.OldestPending.IsZero() {
		info.StalenessMS = time.Since(g.OldestPending).Milliseconds()
	}
	return info
}

// Info snapshots the entry.
func (e *Entry) Info() Info {
	e.mu.Lock()
	defer e.mu.Unlock()
	info := Info{ID: e.id, State: e.state, Error: e.err, BuildMS: e.buildMS}
	info.Spec.File = e.spec.File
	info.Spec.Gen = e.spec.Gen
	info.Spec.Eps = e.spec.Eps
	info.Spec.Seed = e.spec.Seed
	// The current static oracle and its base graph live inside the
	// overlay (rebuild swaps replace them); Introspect reads the pair
	// under one lock so a concurrent swap cannot tear the row. Nothing
	// is set until ready.
	if e.dyn != nil {
		oracle, g := e.dyn.Introspect()
		info.N = g.NumVertices()
		info.M = g.NumEdges()
		info.Weighted = g.Weighted()
		info.Degenerate = oracle.Degenerate()
		info.Flat, info.FlatBytes = oracle.FlatInfo()
	}
	info.Dynamic = dynamicInfo(e.dyn)
	info.BuildStages = e.tel.Snapshot()
	info.WarmStarted = e.warm
	if !e.snapTime.IsZero() || e.snapErr != "" {
		si := e.snapshotInfoLocked()
		info.Snapshot = &si
	}
	return info
}

// Workload returns the entry's per-graph workload analytics bundle
// (nil until the entry became ready; Workload methods are nil-safe).
func (e *Entry) Workload() *obs.Workload {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.workload
}

// executor returns the ready executor, or ErrNotReady carrying the
// lifecycle state (building/failed) for the HTTP layer to report.
func (e *Entry) executor() (*Executor, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch e.state {
	case StateReady:
		return e.exec, nil
	case StateFailed:
		return nil, fmt.Errorf("%w: %s build failed: %s", ErrNotReady, e.id, e.err)
	default:
		return nil, fmt.Errorf("%w: %s is %s", ErrNotReady, e.id, e.state)
	}
}

// Registry owns the graph entries and the bounded background build
// queue. Lookups are concurrent-safe; builds run on cfg.BuildWorkers
// goroutines.
type Registry struct {
	cfg Config

	mu      sync.RWMutex
	entries map[string]*Entry
	order   []string
	seq     int
	closed  bool

	queue chan *Entry
	wg    sync.WaitGroup

	// snapStop wakes debounced snapshot writers early on Close (their
	// pending rewrite is flushed, not dropped); snapWG lets Close wait
	// them out so no writer touches the directory after Close returns.
	snapStop chan struct{}
	snapWG   sync.WaitGroup

	// aud continuously re-checks a sample of served answers against
	// exact recomputation (the answer-quality tentpole); executors
	// feed it, /debug/quality and /metrics read it.
	aud *obs.Auditor

	// snapLocks holds one mutex per graph id ever snapshotted: all
	// file operations on {id}.snap(.tmp) — background writes, forced
	// writes, DELETE cleanup — serialize on it, so a stale writer for
	// a deleted entry can never interleave with (or clobber) the
	// snapshot of a new graph re-registered under the same id.
	snapLocks sync.Map // id string → *sync.Mutex
}

// NewRegistry starts the build workers.
func NewRegistry(cfg Config) *Registry {
	cfg = cfg.withDefaults()
	r := &Registry{
		cfg:      cfg,
		entries:  make(map[string]*Entry),
		queue:    make(chan *Entry, cfg.BuildQueue),
		snapStop: make(chan struct{}),
		aud: obs.NewAuditor(obs.AuditorOptions{
			SampleEvery: cfg.AuditSample,
			CPUFrac:     cfg.AuditCPUFrac,
			Log:         cfg.Obs.Log(),
			Events:      cfg.Obs.Events(),
			Acct:        cfg.Obs.Account(),
			Traces:      cfg.Obs.Traces(),
		}),
	}
	for i := 0; i < cfg.BuildWorkers; i++ {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			for e := range r.queue {
				if e.deleted.Load() {
					// Deleted while queued: the entry is already out of
					// the registry; never pay for the build.
					e.mu.Lock()
					e.state = StateFailed
					e.err = "graph deleted before build started"
					e.mu.Unlock()
					continue
				}
				if r.isClosed() {
					// Shutdown: drain the queue without paying for
					// builds nobody will query.
					e.mu.Lock()
					e.state = StateFailed
					e.err = "server shut down before build started"
					e.mu.Unlock()
					continue
				}
				r.build(e)
			}
		}()
	}
	return r
}

// Add validates spec, registers an entry in StateBuilding, and queues
// the build. A full build queue returns ErrBuildQueueFull and leaves
// the registry unchanged.
func (r *Registry) Add(spec GraphSpec) (*Entry, error) {
	return r.AddCtx(context.Background(), spec)
}

// AddCtx is Add with the caller's context: the request ID minted at
// the HTTP edge propagates onto the build's trace and lifecycle
// events, so an async build failure is attributable to the POST that
// queued it. The context is used for identification only — canceling
// it does not cancel the build (DELETE does).
func (r *Registry) AddCtx(ctx context.Context, spec GraphSpec) (*Entry, error) {
	if spec.Eps == 0 {
		spec.Eps = 0.25
	}
	if spec.Eps <= 0 || spec.Eps >= 1 {
		return nil, fmt.Errorf("server: eps = %v, want (0,1)", spec.Eps)
	}
	if (spec.File == "") == (spec.Gen == "") {
		return nil, errors.New("server: spec needs exactly one of file or gen")
	}
	if !validName(spec.Name) {
		return nil, fmt.Errorf("server: name %q must match [A-Za-z0-9._-]{1,64}", spec.Name)
	}
	if spec.Gen != "" {
		// Parse eagerly so a bad generator string is a synchronous
		// 400, not an async build failure.
		if _, err := workload.ParseSpec(spec.Gen, spec.Seed); err != nil {
			return nil, err
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	id := spec.Name
	if id == "" {
		// Skip over ids a user already claimed by explicit name, so a
		// graph named "g0" can never wedge auto-assignment.
		for {
			id = fmt.Sprintf("g%d", r.seq)
			r.seq++
			if _, taken := r.entries[id]; !taken {
				break
			}
		}
	} else if _, dup := r.entries[id]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateName, id)
	}
	rid := obs.RequestID(ctx)
	if rid == "" {
		rid = obs.NextRequestID()
	}
	buildC, cancel := context.WithCancel(context.Background())
	e := &Entry{
		id:      id,
		spec:    spec,
		stats:   &GraphStats{},
		state:   StateBuilding,
		created: time.Now(),
		buildC:  buildC,
		cancel:  cancel,
		tel:     exec.NewTelemetry(),
		btr:     obs.NewTrace(rid),
	}
	e.btr.Annotate("kind", "build")
	e.btr.Annotate("graph", id)
	select {
	case r.queue <- e:
	default:
		return nil, ErrBuildQueueFull
	}
	r.entries[id] = e
	r.order = append(r.order, id)
	r.cfg.Obs.Event("build_queued", "rid", rid, "graph", id, "spec", spec.Gen+spec.File)
	return e, nil
}

// Get looks up an entry by id.
func (r *Registry) Get(id string) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[id]
	return e, ok
}

// Delete evicts a graph: the entry leaves the registry immediately
// (no new lookups can reach it), a ready graph's executor is drained
// and closed, and an in-flight or queued build is canceled at its
// next round boundary and its output discarded — no partial state
// survives. Returns the entry's state at eviction time.
func (r *Registry) Delete(id string) (State, error) {
	r.mu.Lock()
	e, ok := r.entries[id]
	if !ok {
		r.mu.Unlock()
		return "", fmt.Errorf("%w: %q", ErrUnknownGraph, id)
	}
	delete(r.entries, id)
	for i, oid := range r.order {
		if oid == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.mu.Unlock()

	e.deleted.Store(true)
	if e.cancel != nil {
		e.cancel() // aborts a running build at its next checkpoint
	}
	e.mu.Lock()
	state := e.state
	ex := e.exec
	dyn := e.dyn
	e.mu.Unlock()
	if ex != nil {
		ex.Close()
	}
	if dyn != nil {
		dyn.Close() // cancels an in-flight overlay rebuild
	}
	// Evicting a graph also evicts its persisted snapshot: a deleted
	// graph must not resurrect on the next boot. The per-id lock
	// orders this after any in-flight write; a writer that acquires
	// the lock later finds the entry gone from the registry and skips.
	lock := r.snapLock(id)
	lock.Lock()
	r.removeSnapshot(id)
	lock.Unlock()
	// Evict the graph's cost rows too: /metrics should not grow one
	// stale label set per deleted graph for the process lifetime.
	// Same for its audit state; queued audit samples become no-ops.
	r.cfg.Obs.Account().Forget(id)
	r.aud.Forget(id)
	r.cfg.Obs.Event("graph_deleted", "graph", id, "state", string(state))
	return state, nil
}

// List snapshots all entries in registration order.
func (r *Registry) List() []Info {
	r.mu.RLock()
	ids := append([]string(nil), r.order...)
	entries := make([]*Entry, len(ids))
	for i, id := range ids {
		entries[i] = r.entries[id]
	}
	r.mu.RUnlock()
	out := make([]Info, len(entries))
	for i, e := range entries {
		out[i] = e.Info()
	}
	return out
}

// build loads/generates the graph, preprocesses the oracle on a
// cancelable execution context, and transitions the entry to
// ready/failed. Panics in the pipeline (e.g. malformed generator
// output) surface as build failures, not daemon crashes. A build
// whose entry was deleted mid-flight (DELETE /graphs/{id}) discards
// everything it produced: the aborted oracle never becomes reachable
// state.
func (r *Registry) build(e *Entry) {
	start := time.Now()
	r.cfg.Obs.Event("build_started", "rid", e.btr.ID(), "graph", e.id)
	fail := func(err error) {
		e.mu.Lock()
		e.state = StateFailed
		e.err = err.Error()
		e.buildMS = time.Since(start).Milliseconds()
		e.mu.Unlock()
		r.cfg.Obs.EventError("build_failed", err, "rid", e.btr.ID(), "graph", e.id,
			"build_ms", time.Since(start).Milliseconds())
		e.btr.Annotate("error", err.Error())
		r.cfg.Obs.Publish(e.btr.Finish())
	}
	// Build attribution: the build section runs under {graph, op}
	// pprof labels — on this goroutine directly, and on every pooled
	// helper through the exec context's Labels — and its CPU/alloc
	// deltas land in the cost accountant under (graph, "build").
	acct := r.cfg.Obs.Account()
	buildLbl := graphLabels(e.id, obs.OpBuild)
	ec := exec.New(exec.Options{
		Context:   e.buildC,
		Workers:   r.cfg.buildExecWorkers(),
		Telemetry: e.tel,
		Labels:    buildLbl,
		// Build stages double as trace spans: the same record exec
		// telemetry keeps lands on the build trace as it closes.
		OnStage: func(st exec.StageStats) {
			e.btr.SpanEnd(st.Name, time.Duration(st.WallMS*float64(time.Millisecond)))
		},
	})
	var g *graph.Graph
	var oracle *spanhop.DistanceOracle
	cs := acct.Begin()
	pprof.SetGoroutineLabels(buildLbl)
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("build panicked: %v", p)
			}
		}()
		stop := ec.Stage("load-graph", nil)
		if e.spec.File != "" {
			f, ferr := os.Open(e.spec.File)
			if ferr != nil {
				return ferr
			}
			defer f.Close()
			g, err = graph.ReadAuto(f)
			if err != nil {
				return err
			}
		} else {
			spec, perr := workload.ParseSpec(e.spec.Gen, e.spec.Seed)
			if perr != nil {
				return perr
			}
			g = spec.Gen()
		}
		stop()
		// The cost accumulator feeds the stage telemetry's work/depth
		// columns in /stats.
		oracle = spanhop.NewDistanceOracleOpts(g, e.spec.Eps, e.spec.Seed,
			spanhop.OracleOptions{
				Cost: spanhop.NewCost(),
				Exec: ec,
				// The query context's pooled helpers carry the graph
				// label (no op: one context serves both the single-query
				// and the explicit batch surface), so profile samples
				// from query fan-out attribute to the graph.
				QueryExec: exec.New(exec.Options{
					Workers: r.cfg.queryExecWorkers(),
					Labels:  graphLabels(e.id, ""),
				}),
			})
		if cerr := ec.Err(); cerr != nil {
			return fmt.Errorf("build canceled: %w", cerr)
		}
		return nil
	}()
	pprof.SetGoroutineLabels(context.Background())
	acct.End(cs, e.id, obs.OpBuild, 1, err != nil)
	if err != nil || e.deleted.Load() {
		if err == nil {
			err = errors.New("graph deleted during build")
		}
		fail(err)
		return
	}
	// Every ready oracle serves through a dynamic overlay so the graph
	// can absorb live mutations; with an empty journal it delegates
	// straight to the static oracle.
	dyn := spanhop.NewDynamicOracle(oracle, r.graphRebuildPolicy(e.id))
	ex := newExecutor(dyn, r.cfg, e.stats)
	wl := obs.NewWorkload(r.cfg.WorkloadTopK)
	r.registerAudit(e.id, dyn)
	ex.instrument(e.id, wl, acct, r.aud)
	r.hookRebuild(e, dyn)
	e.mu.Lock()
	e.dyn = dyn
	e.exec = ex
	e.workload = wl
	e.state = StateReady
	e.buildMS = time.Since(start).Milliseconds()
	e.mu.Unlock()
	// A DELETE racing the transition above: it either saw the
	// executor (and closed it) or we see the flag now and tear down.
	if e.deleted.Load() {
		ex.Close()
		dyn.Close()
		return
	}
	r.cfg.Obs.Event("build_ready", "rid", e.btr.ID(), "graph", e.id,
		"build_ms", time.Since(start).Milliseconds(),
		"n", g.NumVertices(), "m", g.NumEdges())
	e.btr.Annotate("n", g.NumVertices())
	e.btr.Annotate("m", g.NumEdges())
	r.cfg.Obs.Publish(e.btr.Finish())
	// Snapshot-on-ready: persist the freshly built oracle off the
	// build worker so the next boot warm-starts it. Failures are
	// recorded on the entry (surfaced via /stats), never fatal.
	// Tracked by snapWG so Close waits this writer out too.
	if r.cfg.SnapshotDir != "" {
		r.snapWG.Add(1)
		go func() {
			defer r.snapWG.Done()
			_, _ = r.snapshotEntry(e)
		}()
	}
}

// ForceRebuild synchronously folds a ready graph's pending journal
// into a fresh oracle (the POST /graphs/{id}/rebuild path), then
// rewrites the snapshot.
func (r *Registry) ForceRebuild(ctx context.Context, id string) (*DynamicInfo, error) {
	e, ok := r.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownGraph, id)
	}
	e.mu.Lock()
	state, dyn := e.state, e.dyn
	e.mu.Unlock()
	if state != StateReady || dyn == nil {
		return nil, fmt.Errorf("%w: %s is %s", ErrNotReady, id, state)
	}
	// The snapshot rewrite rides on the oracle's post-swap hook
	// (hookRebuild), exactly as it does for a policy-triggered
	// background rebuild.
	if err := dyn.ForceRebuild(ctx); err != nil {
		// A DELETE racing the rebuild closes the scheduler; that is
		// "graph gone", not an internal error. Registry shutdown maps
		// to the usual 503, and everything else (a failed build) is a
		// server-side failure, never the client's 400.
		if e.deleted.Load() {
			return nil, fmt.Errorf("%w: %q", ErrUnknownGraph, id)
		}
		if r.isClosed() {
			return nil, ErrClosed
		}
		return nil, fmt.Errorf("%w: %v", ErrRebuildFailed, err)
	}
	if e.deleted.Load() {
		return nil, fmt.Errorf("%w: %q", ErrUnknownGraph, id)
	}
	return dynamicInfo(dyn), nil
}

// graphLabels builds a prebuilt pprof label context identifying one
// graph (and optionally one operation). Built once per graph at
// publish time — applying a prebuilt context is allocation-free, so
// the hot paths never pay for label construction.
func graphLabels(id, op string) context.Context {
	if op == "" {
		return pprof.WithLabels(context.Background(), pprof.Labels("graph", id))
	}
	return pprof.WithLabels(context.Background(), pprof.Labels("graph", id, "op", op))
}

// graphRebuildPolicy is the configured rebuild policy specialized to
// one graph: overlay rebuilds run their pooled build helpers under the
// graph's {graph, op=rebuild} profiler labels.
func (r *Registry) graphRebuildPolicy(id string) spanhop.RebuildPolicy {
	pol := r.cfg.rebuildPolicy()
	pol.Labels = graphLabels(id, obs.OpRebuild)
	return pol
}

// hookRebuild wires an entry's rebuild-swap hook: whenever the
// overlay scheduler swaps in a freshly rebuilt oracle (background or
// forced), the snapshot is rewritten so the compacted state (not the
// journal) persists. The result cache is kept: an exact rebuild
// changes no answer at the current generation, and the mutation
// batches it folds in already flushed the cache in ApplyUpdates.
func (r *Registry) hookRebuild(e *Entry, dyn *spanhop.DynamicOracle) {
	dyn.SetRebuildObserver(func(ev spanhop.RebuildEvent) {
		switch ev.Kind {
		case "start":
			r.cfg.Obs.Event("rebuild_triggered", "graph", e.id,
				"cause", ev.Cause, "generation", ev.Gen)
		case "swap":
			r.cfg.Obs.Event("rebuild_swapped", "graph", e.id,
				"cause", ev.Cause, "generation", ev.Gen,
				"rebuild_ms", ev.Dur.Milliseconds())
			if ev.Compacted > 0 {
				r.cfg.Obs.Event("journal_compacted", "graph", e.id,
					"entries", ev.Compacted, "generation", ev.Gen)
			}
		case "fail":
			r.cfg.Obs.EventError("rebuild_failed", ev.Err, "graph", e.id,
				"cause", ev.Cause, "generation", ev.Gen,
				"rebuild_ms", ev.Dur.Milliseconds())
		}
	})
	dyn.SetOnRebuild(func() { r.scheduleSnapshot(e) })
	// Rebuild attribution: the scheduler's build step runs under the
	// graph's {graph, op=rebuild} labels (this goroutine here; pooled
	// helpers via the policy's label context) and is measured into the
	// accountant under (graph, "rebuild").
	acct := r.cfg.Obs.Account()
	rlbl := graphLabels(e.id, obs.OpRebuild)
	dyn.SetRebuildInstrument(func(cause string, do func() error) {
		pprof.SetGoroutineLabels(rlbl)
		defer pprof.SetGoroutineLabels(context.Background())
		_ = acct.Measure(e.id, obs.OpRebuild, do)
	})
}

// validName keeps ids routable: the mux pattern /graphs/{id} matches
// one path segment, so a name with "/" (or URL-hostile bytes) would
// register a graph no request can ever reach. Empty is fine — it
// means auto-assign.
func validName(name string) bool {
	if name == "" {
		return true
	}
	if len(name) > 64 {
		return false
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

func (r *Registry) isClosed() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.closed
}

// Close stops accepting registrations, cancels in-flight builds at
// their next round boundary (queued-but-unstarted ones are marked
// failed instead of built), and shuts down every executor. Safe to
// call more than once.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	close(r.snapStop) // flush debounced snapshot writers now
	entries := make([]*Entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	// Abort in-flight builds: shutdown should not wait out a large
	// preprocess nobody will ever query.
	for _, e := range entries {
		e.mu.Lock()
		building := e.state == StateBuilding
		e.mu.Unlock()
		if building && e.cancel != nil {
			e.cancel()
		}
	}
	close(r.queue)
	r.wg.Wait()
	for _, e := range entries {
		e.mu.Lock()
		ex := e.exec
		dyn := e.dyn
		if e.state == StateBuilding {
			e.state = StateFailed
			e.err = "server shut down before build started"
		}
		e.mu.Unlock()
		if ex != nil {
			ex.Close()
		}
		if dyn != nil {
			dyn.Close()
		}
	}
	// Wait out the flushed snapshot writers: after Close returns,
	// nothing touches the snapshot directory.
	r.snapWG.Wait()
	// Stop the audit workers last: executors are closed, so no new
	// samples arrive; whatever is still queued is abandoned.
	r.aud.Close()
}

// registerAudit installs a ready graph's exact-recheck hook into the
// answer auditor: its samples check that the cache and the overlay
// serve the pinned generation's exact distance. The recheck pins the
// sampled generation through the dynamic overlay's patched
// point-to-point Dijkstra, an independent search, and maps a
// generation compacted away by a rebuild to obs.ErrAuditStale (a
// counted skip, never a violation). Runs before the executor is
// instrumented so the first sampled query already finds the graph
// registered.
func (r *Registry) registerAudit(id string, dyn *spanhop.DynamicOracle) {
	r.aud.Register(id, func(gen uint64, s, t int32) (int64, bool, error) {
		d, err := dyn.ExactDistanceAt(gen, graph.V(s), graph.V(t))
		if err != nil {
			if errors.Is(err, spanhop.ErrCompactedGen) {
				return 0, false, obs.ErrAuditStale
			}
			return 0, false, err
		}
		return int64(d), d >= graph.InfDist, nil
	})
}

// ApplyUpdates applies a mutation batch to a ready graph's dynamic
// overlay: validates and commits atomically, flushes the executor's
// result cache (cached answers predate the new generation), notifies
// the rebuild scheduler, and — with persistence on — rewrites the
// snapshot in the background so a restart replays the journal.
// Returns the batch's final generation and the overlay state.
func (r *Registry) ApplyUpdates(id string, us []spanhop.DynamicUpdate) (uint64, *DynamicInfo, error) {
	e, ok := r.Get(id)
	if !ok {
		return 0, nil, fmt.Errorf("%w: %q", ErrUnknownGraph, id)
	}
	e.mu.Lock()
	state, dyn, ex := e.state, e.dyn, e.exec
	e.mu.Unlock()
	if state != StateReady || dyn == nil {
		return 0, nil, fmt.Errorf("%w: %s is %s", ErrNotReady, id, state)
	}
	gen, err := dyn.ApplyUpdates(us)
	if err != nil {
		return 0, nil, err
	}
	// A DELETE racing this apply: the mutation landed in an overlay
	// nothing can reach anymore, so report the graph gone rather than
	// ack a write the caller would believe durable. (The snapshot
	// writer stands down on deleted entries regardless.)
	if e.deleted.Load() {
		return 0, nil, fmt.Errorf("%w: %q", ErrUnknownGraph, id)
	}
	ex.flushCache()
	e.stats.mutationBatches.Add(1)
	e.stats.mutations.Add(int64(len(us)))
	r.scheduleSnapshot(e)
	return gen, dynamicInfo(dyn), nil
}

// snapshotDebounce is how long a mutation-triggered background
// snapshot rewrite waits before writing, so a stream of mutation
// batches coalesces into one full-file rewrite instead of one per
// batch. Restart durability within the window is not at risk of
// serving wrong data — a lost journal suffix just reverts those
// mutations — and POST /graphs/{id}/snapshot remains the synchronous
// escape hatch.
const snapshotDebounce = 500 * time.Millisecond

// scheduleSnapshot coalesces background snapshot rewrites: at most
// one debounced writer per entry is in flight; mutations landing
// inside the window ride along with it (the flag clears before the
// write, so anything later schedules anew). Close flushes pending
// writers early and waits for them, so an acked mutation followed by
// a graceful shutdown still reaches disk and no writer runs after
// Close returns.
func (r *Registry) scheduleSnapshot(e *Entry) {
	if r.cfg.SnapshotDir == "" {
		return
	}
	// The closed-check and the WaitGroup Add must be atomic with
	// respect to Close (which sets closed under r.mu and then waits):
	// an Add after Close's Wait started would be a WaitGroup misuse
	// and an escaped writer.
	r.mu.RLock()
	if r.closed || !e.snapPend.CompareAndSwap(false, true) {
		r.mu.RUnlock()
		return
	}
	r.snapWG.Add(1)
	r.mu.RUnlock()
	go func() {
		defer r.snapWG.Done()
		select {
		case <-time.After(snapshotDebounce):
		case <-r.snapStop: // shutdown: flush now instead of dropping
		}
		e.snapPend.Store(false)
		_, _ = r.snapshotEntry(e)
	}()
}
