package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	rpprof "runtime/pprof"
	"strconv"
	"time"

	spanhop "repro"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Config tunes the serving subsystem. Zero values take defaults.
type Config struct {
	// BuildWorkers is the number of concurrent oracle builds;
	// BuildQueue bounds how many registrations may wait behind them.
	BuildWorkers int
	BuildQueue   int
	// Workers caps the execution context each oracle build runs on:
	// 0 or 1 runs the sequential reference construction, n > 1 the
	// multicore construction on at most n pooled workers. Every build
	// is cancelable (DELETE /graphs/{id}) and arena-backed regardless
	// of the cap.
	Workers int

	// QueryWorkers bounds concurrent QueryBatch executions per graph;
	// QueryQueue bounds the single queries and batch calls waiting for
	// one (overflow is a typed 503, the backpressure contract).
	QueryWorkers int
	QueryQueue   int
	// CacheSize is the per-graph LRU result-cache capacity
	// ((s,t) → QueryStats); 0 takes the default, negative disables.
	CacheSize int

	// SnapshotDir enables oracle snapshot persistence: every oracle
	// that becomes ready is written there as a self-contained snapshot
	// (atomic rename; spec, graph, oracle, and any pending mutation
	// journal in one file), WarmStart restores the directory's
	// snapshots as ready graphs on boot without rebuilding (replaying
	// the journal), and DELETE /graphs/{id} removes the file. Empty
	// disables persistence.
	SnapshotDir string

	// Rebuild policy for the dynamic-update overlay: a background
	// rebuild of a graph's oracle triggers once RebuildMaxJournal
	// mutations are pending (default 256), once the overlay diverges
	// on more than RebuildMaxPatchFraction of the base edges (default
	// 0.10), or once the oldest pending mutation is older than
	// RebuildMaxStaleness (default: disabled). Negative values disable
	// a trigger. Rebuilds run on the build worker cap (Workers) and
	// are canceled by DELETE and shutdown.
	RebuildMaxJournal       int
	RebuildMaxPatchFraction float64
	RebuildMaxStaleness     time.Duration

	// Obs is the observability sink shared by the HTTP edge, the
	// registry, and the executors: structured logs, lifecycle event
	// counters (surfaced in /metrics), the recent-trace ring behind
	// /debug/traces, server-side trace sampling, and the slow-query
	// log. nil takes a quiet default (discarded logs, tracing only on
	// client request) so library callers and tests need no wiring.
	Obs *obs.Observer

	// WorkloadTopK is the capacity of each graph's heavy-hitter sketch
	// over (s, t) query pairs, surfaced at GET /debug/workload
	// (0 = obs.DefaultTopK).
	WorkloadTopK int

	// AuditSample drives continuous answer-quality auditing: every Nth
	// served query is shadow-sampled and re-checked in the background
	// against an exact recomputation at the generation it was served
	// from, with any difference alarmed at /debug/quality and in
	// /metrics. Traced requests are always audited regardless of the
	// stride. 0 takes the default (obs.DefaultAuditSample), negative
	// disables rate-based sampling (traced requests still audit).
	AuditSample int
	// AuditCPUFrac caps cumulative per-graph audit CPU at this
	// fraction of wall time since the graph became ready, so auditing
	// can never starve serving. 0 takes the default
	// (obs.DefaultAuditCPUFrac), negative removes the cap.
	AuditCPUFrac float64
}

// rebuildPolicy resolves the dynamic-overlay scheduler policy.
func (c Config) rebuildPolicy() spanhop.RebuildPolicy {
	return spanhop.RebuildPolicy{
		MaxJournal:       c.RebuildMaxJournal,
		MaxPatchFraction: c.RebuildMaxPatchFraction,
		MaxStaleness:     c.RebuildMaxStaleness,
		Workers:          c.buildExecWorkers(),
	}
}

func (c Config) withDefaults() Config {
	if c.BuildWorkers <= 0 {
		c.BuildWorkers = 1
	}
	if c.BuildQueue <= 0 {
		c.BuildQueue = 16
	}
	if c.QueryWorkers <= 0 {
		c.QueryWorkers = runtime.GOMAXPROCS(0)
	}
	if c.QueryQueue <= 0 {
		c.QueryQueue = 1024
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	if c.Obs == nil {
		c.Obs = obs.New(obs.Options{})
	}
	return c
}

// buildExecWorkers resolves the worker cap of build execution
// contexts: an explicit Workers wins; otherwise the sequential
// reference build (1).
func (c Config) buildExecWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return 1
}

// queryExecWorkers resolves the worker cap of the per-oracle query
// context. Queries default to full parallelism — the executor's
// QueryWorkers already bounds concurrent batches — unless the
// operator explicitly capped Workers.
func (c Config) queryExecWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return 0
}

// Server is the HTTP face of the registry + executors.
//
//	POST   /graphs              register a graph (GraphSpec JSON) → 202
//	GET    /graphs              list entries
//	GET    /graphs/{id}         one entry
//	DELETE /graphs/{id}         evict a graph; aborts an in-flight build
//	POST   /graphs/{id}/query   {"s":..,"t":..} or {"pairs":[[s,t],..]} (≤ 4096 pairs)
//	POST   /graphs/{id}/edges   apply mutations: {"updates":[{"op":..},..]}
//	DELETE /graphs/{id}/edges   delete edges: {"edges":[[u,v],..]}
//	POST   /graphs/{id}/rebuild force a synchronous overlay rebuild
//	POST   /graphs/{id}/snapshot force a snapshot write (persistence on)
//	GET    /healthz             liveness + entry counts
//	GET    /metrics             Prometheus plain-text exposition
//	GET    /stats               per-graph serving counters + build stages
//	                            + snapshot size/age + overlay generation
type Server struct {
	cfg   Config
	reg   *Registry
	mux   *http.ServeMux
	start time.Time
}

// New builds a Server and its registry.
func New(cfg Config) *Server {
	// Resolve defaults once so the registry, the executors, and the
	// HTTP edge share one Observer (one trace ring, one event set).
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		reg:   NewRegistry(cfg),
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	s.mux.HandleFunc("POST /graphs", s.handleAddGraph)
	s.mux.HandleFunc("GET /graphs", s.handleListGraphs)
	s.mux.HandleFunc("GET /graphs/{id}", s.handleGetGraph)
	s.mux.HandleFunc("DELETE /graphs/{id}", s.handleDeleteGraph)
	s.mux.HandleFunc("POST /graphs/{id}/query", s.handleQuery)
	s.mux.HandleFunc("POST /graphs/{id}/edges", s.handleApplyEdges)
	s.mux.HandleFunc("DELETE /graphs/{id}/edges", s.handleDeleteEdges)
	s.mux.HandleFunc("POST /graphs/{id}/rebuild", s.handleRebuild)
	s.mux.HandleFunc("POST /graphs/{id}/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	s.mux.HandleFunc("GET /debug/workload", s.handleWorkload)
	s.mux.HandleFunc("GET /debug/quality", s.handleQuality)
	// net/http/pprof registers on DefaultServeMux; this server runs its
	// own mux, so route the profile surface explicitly.
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the routing handler wrapped with the observability
// edge (plug into http.Server or httptest).
func (s *Server) Handler() http.Handler { return s.edge(s.mux) }

// edge is the outermost middleware: it mints the request ID every
// layer below logs and traces under, stamps it into the context, and
// echoes it in the X-Spanhop-Request response header.
func (s *Server) edge(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := obs.NextRequestID()
		w.Header().Set("X-Spanhop-Request", rid)
		next.ServeHTTP(w, r.WithContext(obs.WithRequestID(r.Context(), rid)))
	})
}

// Registry exposes the graph registry (preloading, tests).
func (s *Server) Registry() *Registry { return s.reg }

// Close shuts down builds and executors. In-flight HTTP requests get
// typed shutdown errors; the HTTP listener itself is the caller's to
// drain (http.Server.Shutdown first, then Close).
func (s *Server) Close() {
	s.reg.Close()
}

// ---------------------------------------------------------------------------
// JSON plumbing.

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// statusFor maps typed subsystem errors to HTTP codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrUnknownGraph):
		return http.StatusNotFound
	case errors.Is(err, ErrNotReady):
		return http.StatusConflict
	case errors.Is(err, ErrDuplicateName):
		return http.StatusConflict
	case errors.Is(err, ErrBuildQueueFull), errors.Is(err, ErrOverloaded), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrRebuildFailed):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// ---------------------------------------------------------------------------
// Handlers.

func (s *Server) handleAddGraph(w http.ResponseWriter, r *http.Request) {
	var spec GraphSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	e, err := s.reg.AddCtx(r.Context(), spec)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, e.Info())
}

func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"graphs": s.reg.List()})
}

func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	e, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrUnknownGraph)
		return
	}
	writeJSON(w, http.StatusOK, e.Info())
}

func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	state, err := s.reg.Delete(id)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":      id,
		"deleted": true,
		// The lifecycle state at eviction: "ready" graphs were
		// drained, "building" ones had their build aborted.
		"state": state,
	})
}

// maxBatchPairs caps the pairs of one explicit batch request. A batch
// runs as one compute section on one pool slot, so the cap bounds how
// long one request can hold a query worker; a larger body is a 413.
const maxBatchPairs = 4096

// queryRequest accepts a single query or an explicit batch.
type queryRequest struct {
	S     *graph.V     `json:"s,omitempty"`
	T     *graph.V     `json:"t,omitempty"`
	Pairs [][2]graph.V `json:"pairs,omitempty"`
}

// queryResult is one answer. Unreachable pairs report
// unreachable=true with dist omitted, so clients never have to
// compare against the InfDist sentinel.
type queryResult struct {
	S           graph.V    `json:"s"`
	T           graph.V    `json:"t"`
	Dist        graph.Dist `json:"dist"`
	Unreachable bool       `json:"unreachable,omitempty"`
}

func toResult(s, t graph.V, st spanhop.QueryStats) queryResult {
	res := queryResult{S: s, T: t, Dist: st.Dist}
	if st.Dist == graph.InfDist {
		res.Dist = 0
		res.Unreachable = true
	}
	return res
}

// queryError maps an executor failure to an HTTP response. A query
// that raced a DELETE can observe the executor's shutdown (ErrClosed)
// even though the graph is simply gone: report the clean 404 the
// post-delete state deserves, never a confusing 503 — and because
// batches are all-or-error, a caller either gets every answer or that
// 404, never a partial batch.
func (s *Server) queryError(w http.ResponseWriter, e *Entry, err error) {
	if errors.Is(err, ErrClosed) && e.deleted.Load() {
		writeError(w, http.StatusNotFound, ErrUnknownGraph)
		return
	}
	writeError(w, statusFor(err), err)
}

// TraceHeader is the request header that asks for a traced query (any
// non-empty value) and the response header carrying the finished
// trace as compact JSON.
const TraceHeader = "X-Spanhop-Trace"

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := s.reg.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, ErrUnknownGraph)
		return
	}
	exec, err := e.executor()
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	// A query is traced when the client asks (header) or the
	// server-side sampler elects it; everyone else carries a nil
	// trace, whose every touch below is a no-op.
	ctx := r.Context()
	var tr *obs.Trace
	echo := r.Header.Get(TraceHeader) != ""
	if echo || s.cfg.Obs.Sample() {
		tr = obs.NewTrace(obs.RequestID(ctx))
		tr.Annotate("graph", id)
		ctx = obs.WithTrace(ctx, tr)
		// Traced requests additionally run their handler section under
		// {graph, rid} profiler labels, so a CPU sample taken while an
		// elected request decodes, waits, or writes its response is
		// attributable to that exact request. The label context rides
		// in ctx, so the executor's compute-section labels restore it
		// on the way out. Untraced requests skip this — labels per
		// request would cost an allocation on the hot path.
		lctx := rpprof.WithLabels(ctx, rpprof.Labels("graph", id, "rid", obs.RequestID(ctx)))
		rpprof.SetGoroutineLabels(lctx)
		defer rpprof.SetGoroutineLabels(context.Background())
		ctx = lctx
	}
	start := time.Now()
	endDecode := tr.StartSpan("decode")
	var q queryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<22))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&q); err != nil {
		endDecode()
		s.finishQueryTrace(w, tr, echo, start, id, err)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	endDecode()
	switch {
	case q.Pairs != nil:
		if q.S != nil || q.T != nil {
			writeError(w, http.StatusBadRequest,
				errors.New("server: give either s/t or pairs, not both"))
			return
		}
		if len(q.Pairs) > maxBatchPairs {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("server: batch of %d pairs, at most %d", len(q.Pairs), maxBatchPairs))
			return
		}
		res, err := exec.Batch(ctx, q.Pairs)
		s.finishQueryTrace(w, tr, echo, start, id, err)
		if err != nil {
			s.queryError(w, e, err)
			return
		}
		out := make([]queryResult, len(res))
		for i, st := range res {
			out[i] = toResult(q.Pairs[i][0], q.Pairs[i][1], st)
		}
		writeJSON(w, http.StatusOK, map[string]any{"results": out})
	case q.S != nil && q.T != nil:
		st, err := exec.Query(ctx, *q.S, *q.T)
		s.finishQueryTrace(w, tr, echo, start, id, err)
		if err != nil {
			s.queryError(w, e, err)
			return
		}
		writeJSON(w, http.StatusOK, toResult(*q.S, *q.T, st))
	default:
		writeError(w, http.StatusBadRequest,
			errors.New(`server: body needs {"s":..,"t":..} or {"pairs":[[s,t],..]}`))
	}
}

// finishQueryTrace closes out one query's observability: the trace is
// finished (before the response body is written, so it can ride the
// response header), filed into the ring, and the slow-query log fires
// when the latency crosses the threshold — traced or not.
func (s *Server) finishQueryTrace(w http.ResponseWriter, tr *obs.Trace, echo bool, start time.Time, id string, qerr error) {
	lat := time.Since(start)
	var td obs.TraceData
	if tr != nil {
		if qerr != nil {
			tr.Annotate("error", qerr.Error())
		}
		td = tr.Finish()
		if echo {
			if b, err := json.Marshal(td); err == nil {
				w.Header().Set(TraceHeader, string(b))
			}
		}
		s.cfg.Obs.Publish(td)
	}
	if s.cfg.Obs.SlowQuery(lat) {
		rid := td.ID
		if rid == "" {
			// Untraced slow query: the edge middleware echoed the ID
			// in the response header already minted for this request.
			rid = w.Header().Get("X-Spanhop-Request")
		}
		args := []any{"rid", rid, "graph", id, "latency_ms", float64(lat.Microseconds()) / 1000}
		if tr != nil {
			args = append(args, "spans", td.SpanSummary(), "attrs", td.Attrs)
		}
		if qerr != nil {
			args = append(args, "err", qerr)
		}
		s.cfg.Obs.Log().Warn("slow query", args...)
	}
}

// handleTraces serves the recent-trace ring, newest first:
// GET /debug/traces. Query parameters narrow and reshape the dump:
// ?graph={id} keeps only traces annotated with that graph, ?min_ms={f}
// keeps only traces at least that long (triaging: "show me the slow
// ones on g1"). ?format accepts only json, so a client asking for
// another rendering fails loudly instead of parsing the wrong shape.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	minUS := 0.0
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("server: min_ms %q, want a non-negative number", v))
			return
		}
		minUS = ms * 1000
	}
	graphF := q.Get("graph")
	format := q.Get("format")
	if format != "" && format != "json" {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("server: format %q, want json", format))
		return
	}
	traces := s.cfg.Obs.Traces().Snapshot()
	kept := make([]obs.TraceData, 0, len(traces))
	for _, td := range traces {
		if td.TotalUS < minUS {
			continue
		}
		if graphF != "" {
			g, _ := td.Attrs["graph"].(string)
			if g != graphF {
				continue
			}
		}
		kept = append(kept, td)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"count":  len(kept),
		"traces": kept,
	})
}

// handleWorkload serves the per-graph workload analytics:
// GET /debug/workload → {"graphs": {id: {top_pairs, total_pairs}}}.
// ?graph={id} narrows to one graph, ?k={n} bounds the reported heavy
// hitters (default 32, 0 = the full sketch).
func (s *Server) handleWorkload(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	k := 32
	if v := q.Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("server: k %q, want a non-negative integer", v))
			return
		}
		k = n
	}
	graphF := q.Get("graph")
	out := map[string]obs.WorkloadSnapshot{}
	for _, info := range s.reg.List() {
		if graphF != "" && info.ID != graphF {
			continue
		}
		e, ok := s.reg.Get(info.ID)
		if !ok {
			continue
		}
		wl := e.Workload()
		if wl == nil {
			continue // not ready yet: no analytics to report
		}
		out[info.ID] = wl.Snapshot(k)
	}
	if graphF != "" && len(out) == 0 {
		writeError(w, http.StatusNotFound, ErrUnknownGraph)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_ms": time.Since(s.start).Milliseconds(),
		"graphs":    out,
	})
}

// handleQuality serves the answer-quality audit state:
// GET /debug/quality → {uptime_ms, sample_every, cpu_frac, graphs:
// [per-graph counters, per-regime rows, evidence]}. ?graph={id}
// narrows to one graph (404 on unknown). Violations here are
// correctness alarms: a served distance differed from an exact
// recomputation, so the page preserves the offending queries verbatim
// for reproduction.
func (s *Server) handleQuality(w http.ResponseWriter, r *http.Request) {
	aud := s.reg.aud
	var graphs []obs.AuditGraphSnapshot
	if graphF := r.URL.Query().Get("graph"); graphF != "" {
		snap, ok := aud.GraphSnapshot(graphF)
		if !ok {
			writeError(w, http.StatusNotFound, ErrUnknownGraph)
			return
		}
		graphs = []obs.AuditGraphSnapshot{snap}
	} else if graphs = aud.Snapshot(); graphs == nil {
		graphs = []obs.AuditGraphSnapshot{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_ms":    time.Since(s.start).Milliseconds(),
		"sample_every": aud.SampleEvery(),
		"cpu_frac":     aud.CPUFrac(),
		"graphs":       graphs,
	})
}

// edgeUpdate is the wire shape of one mutation.
type edgeUpdate struct {
	Op string  `json:"op"`
	U  graph.V `json:"u"`
	V  graph.V `json:"v"`
	W  graph.W `json:"w,omitempty"`
}

// handleApplyEdges applies a mutation batch to a ready graph:
// POST /graphs/{id}/edges with {"updates":[{"op":"insert","u":0,
// "v":5,"w":3},...]}. The batch is atomic (all or none; 400 names the
// first offender) and the response carries the new generation plus
// the overlay state.
func (s *Server) handleApplyEdges(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Updates []edgeUpdate `json:"updates"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<22))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(body.Updates) == 0 {
		writeError(w, http.StatusBadRequest, errors.New(`server: body needs {"updates":[{"op":..,"u":..,"v":..},..]}`))
		return
	}
	ups := make([]spanhop.DynamicUpdate, len(body.Updates))
	for i, u := range body.Updates {
		op, err := spanhop.ParseUpdateOp(u.Op)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		ups[i] = spanhop.DynamicUpdate{Op: op, U: u.U, V: u.V, W: u.W}
	}
	s.applyUpdates(w, r.PathValue("id"), ups)
}

// handleDeleteEdges is delete-only sugar:
// DELETE /graphs/{id}/edges with {"edges":[[u,v],...]}.
func (s *Server) handleDeleteEdges(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Edges [][2]graph.V `json:"edges"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<22))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(body.Edges) == 0 {
		writeError(w, http.StatusBadRequest, errors.New(`server: body needs {"edges":[[u,v],..]}`))
		return
	}
	ups := make([]spanhop.DynamicUpdate, len(body.Edges))
	for i, p := range body.Edges {
		ups[i] = spanhop.DynamicUpdate{Op: spanhop.UpdateDelete, U: p[0], V: p[1]}
	}
	s.applyUpdates(w, r.PathValue("id"), ups)
}

func (s *Server) applyUpdates(w http.ResponseWriter, id string, ups []spanhop.DynamicUpdate) {
	gen, dyn, err := s.reg.ApplyUpdates(id, ups)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":         id,
		"applied":    len(ups),
		"generation": gen,
		"dynamic":    dyn,
	})
}

// handleRebuild forces a synchronous overlay rebuild:
// POST /graphs/{id}/rebuild. Returns once the pending journal is
// folded into a fresh oracle (204 body-free semantics are not worth
// it; the new overlay state comes back).
func (s *Server) handleRebuild(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	dyn, err := s.reg.ForceRebuild(r.Context(), id)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "dynamic": dyn})
}

// handleSnapshot forces a synchronous snapshot write for a ready
// graph: POST /graphs/{id}/snapshot. 404 for unknown graphs, 409 while
// building, 400 when the server runs without a snapshot directory.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	info, err := s.reg.Snapshot(id)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "snapshot": info})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	infos := s.reg.List()
	counts := map[State]int{}
	for _, info := range infos {
		counts[info.State]++
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":        true,
		"uptime_ms": time.Since(s.start).Milliseconds(),
		"graphs":    len(infos),
		"building":  counts[StateBuilding],
		"ready":     counts[StateReady],
		"failed":    counts[StateFailed],
	})
}

// graphStats pairs lifecycle state with the serving counters, the
// build's per-stage execution telemetry, and the snapshot persistence
// state (size/age of the on-disk file, warm-start provenance).
type graphStats struct {
	State State `json:"state"`
	StatsSnapshot
	BuildStages []exec.StageStats `json:"build_stages,omitempty"`
	WarmStarted bool              `json:"warm_started,omitempty"`
	// Flat marks an oracle serving straight out of a mapped flat arena;
	// FlatBytes is how many arena bytes back it.
	Flat      bool          `json:"flat,omitempty"`
	FlatBytes int64         `json:"flat_bytes,omitempty"`
	Snapshot  *SnapshotInfo `json:"snapshot,omitempty"`
	// Dynamic carries the live-update overlay gauges: generation
	// window, pending journal, staleness, rebuild counters.
	Dynamic *DynamicInfo `json:"dynamic,omitempty"`
	// Costs is the accountant's per-op resource attribution for this
	// graph (CPU seconds, allocation deltas, per op: query/batch/
	// build/rebuild).
	Costs []obs.CostSnapshot `json:"costs,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	acct := s.cfg.Obs.Account()
	out := map[string]graphStats{}
	for _, info := range s.reg.List() {
		e, ok := s.reg.Get(info.ID)
		if !ok {
			continue
		}
		out[info.ID] = graphStats{
			State:         info.State,
			StatsSnapshot: e.stats.Snapshot(),
			BuildStages:   info.BuildStages,
			WarmStarted:   info.WarmStarted,
			Flat:          info.Flat,
			FlatBytes:     info.FlatBytes,
			Snapshot:      info.Snapshot,
			Dynamic:       info.Dynamic,
			Costs:         acct.GraphSnapshot(info.ID),
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_ms": time.Since(s.start).Milliseconds(),
		"graphs":    out,
	})
}
