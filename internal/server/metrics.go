package server

// GET /metrics: a Prometheus plain-text exposition (format 0.0.4) of
// everything /stats reports as JSON — serving counters, the query
// latency histogram, build-stage telemetry, snapshot persistence
// state, and the dynamic overlay's generation/staleness gauges — so
// the daemon is scrapeable without a JSON-parsing sidecar. Hand-rolled
// on purpose: the container has no Prometheus client library, and the
// text format is trivial to emit correctly (HELP/TYPE once per
// family, one sample per line, labels escaped).

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// promEscape escapes a label value per the exposition format.
func promEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// promWriter accumulates families in declaration order.
type promWriter struct {
	b strings.Builder
}

func (p *promWriter) family(name, help, typ string) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p *promWriter) sample(name string, labels [][2]string, value any) {
	p.b.WriteString(name)
	if len(labels) > 0 {
		p.b.WriteByte('{')
		for i, kv := range labels {
			if i > 0 {
				p.b.WriteByte(',')
			}
			fmt.Fprintf(&p.b, `%s="%s"`, kv[0], promEscape(kv[1]))
		}
		p.b.WriteByte('}')
	}
	switch v := value.(type) {
	case float64:
		fmt.Fprintf(&p.b, " %g\n", v)
	default:
		fmt.Fprintf(&p.b, " %v\n", v)
	}
}

func boolGauge(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	infos := s.reg.List()
	type graphRow struct {
		info  Info
		stats StatsSnapshot
	}
	rows := make([]graphRow, 0, len(infos))
	for _, info := range infos {
		e, ok := s.reg.Get(info.ID)
		if !ok {
			continue
		}
		rows = append(rows, graphRow{info: info, stats: e.stats.Snapshot()})
	}

	var p promWriter
	p.family("spanhop_build_info", "Binary identification; always 1.", "gauge")
	bi := obs.Build()
	p.sample("spanhop_build_info", [][2]string{
		{"go_version", bi.GoVersion}, {"revision", bi.Revision}}, 1)

	p.family("spanhop_uptime_seconds", "Daemon uptime.", "gauge")
	p.sample("spanhop_uptime_seconds", nil, time.Since(s.start).Seconds())

	p.family("spanhop_graphs", "Registered graphs by lifecycle state.", "gauge")
	counts := map[State]int{StateBuilding: 0, StateReady: 0, StateFailed: 0}
	for _, row := range rows {
		counts[row.info.State]++
	}
	states := make([]string, 0, len(counts))
	for st := range counts {
		states = append(states, string(st))
	}
	sort.Strings(states)
	for _, st := range states {
		p.sample("spanhop_graphs", [][2]string{{"state", st}}, counts[State(st)])
	}

	// Per-graph serving counters.
	counters := []struct {
		name, help string
		get        func(StatsSnapshot) int64
	}{
		{"spanhop_requests_total", "Single queries received.", func(s StatsSnapshot) int64 { return s.Requests }},
		{"spanhop_cache_hits_total", "Single queries answered from the LRU result cache.", func(s StatsSnapshot) int64 { return s.CacheHits }},
		{"spanhop_rejects_total", "Queries rejected with backpressure (503).", func(s StatsSnapshot) int64 { return s.Rejects }},
		{"spanhop_failures_total", "Queries that returned an error.", func(s StatsSnapshot) int64 { return s.Failures }},
		{"spanhop_batch_calls_total", "Explicit batch API calls.", func(s StatsSnapshot) int64 { return s.BatchCalls }},
		{"spanhop_batch_call_queries_total", "Pairs inside explicit batch calls.", func(s StatsSnapshot) int64 { return s.BatchCallQueries }},
		{"spanhop_mutation_batches_total", "Applied edge-mutation batches.", func(s StatsSnapshot) int64 { return s.MutationBatches }},
		{"spanhop_mutations_total", "Applied edge mutations.", func(s StatsSnapshot) int64 { return s.Mutations }},
	}
	for _, c := range counters {
		p.family(c.name, c.help, "counter")
		for _, row := range rows {
			p.sample(c.name, [][2]string{{"graph", row.info.ID}}, c.get(row.stats))
		}
	}

	// Cache hit rate as a convenience gauge (hits / requests).
	p.family("spanhop_cache_hit_ratio", "Cache hits over single-query requests.", "gauge")
	for _, row := range rows {
		ratio := 0.0
		if row.stats.Requests > 0 {
			ratio = float64(row.stats.CacheHits) / float64(row.stats.Requests)
		}
		p.sample("spanhop_cache_hit_ratio", [][2]string{{"graph", row.info.ID}}, ratio)
	}

	// Query service latency histogram. Internal bucket i counts
	// latencies in [50µs·2^(i-1), 50µs·2^i) (bucket 0: below 50µs), so
	// the cumulative le boundary of bucket i is 50µs·2^i; the last
	// internal bucket is open and feeds +Inf only.
	p.family("spanhop_query_latency_seconds", "Query service latency.", "histogram")
	for _, row := range rows {
		lat := row.stats.Latency
		cum := int64(0)
		for i, c := range lat.Buckets {
			cum += c
			if i == len(lat.Buckets)-1 {
				break // open bucket: +Inf carries it
			}
			le := (latBase << uint(i)).Seconds()
			p.sample("spanhop_query_latency_seconds_bucket",
				[][2]string{{"graph", row.info.ID}, {"le", fmt.Sprintf("%g", le)}}, cum)
		}
		p.sample("spanhop_query_latency_seconds_bucket",
			[][2]string{{"graph", row.info.ID}, {"le", "+Inf"}}, lat.Count)
		p.sample("spanhop_query_latency_seconds_sum",
			[][2]string{{"graph", row.info.ID}}, float64(lat.MeanUS)*float64(lat.Count)/1e6)
		p.sample("spanhop_query_latency_seconds_count",
			[][2]string{{"graph", row.info.ID}}, lat.Count)
	}

	// Build-stage telemetry.
	p.family("spanhop_build_stage_wall_seconds", "Wall time spent per build stage.", "gauge")
	p.family("spanhop_build_stage_work", "Model work per build stage.", "gauge")
	for _, row := range rows {
		for _, st := range row.info.BuildStages {
			labels := [][2]string{{"graph", row.info.ID}, {"stage", st.Name}}
			p.sample("spanhop_build_stage_wall_seconds", labels, st.WallMS/1e3)
			p.sample("spanhop_build_stage_work", labels, st.Work)
		}
	}

	// Snapshot persistence.
	p.family("spanhop_snapshot_size_bytes", "On-disk snapshot size.", "gauge")
	p.family("spanhop_snapshot_age_seconds", "Time since the snapshot was written.", "gauge")
	for _, row := range rows {
		if row.info.Snapshot == nil {
			continue
		}
		labels := [][2]string{{"graph", row.info.ID}}
		p.sample("spanhop_snapshot_size_bytes", labels, row.info.Snapshot.SizeBytes)
		p.sample("spanhop_snapshot_age_seconds", labels, float64(row.info.Snapshot.AgeMS)/1e3)
	}

	// Dynamic overlay: the generation/staleness gauges that make live
	// updates observable.
	dyn := []struct {
		name, help, typ string
		get             func(*DynamicInfo) any
	}{
		{"spanhop_generation", "Latest applied mutation generation.", "gauge", func(d *DynamicInfo) any { return d.Generation }},
		{"spanhop_base_generation", "Generation the serving static oracle reflects.", "gauge", func(d *DynamicInfo) any { return d.BaseGeneration }},
		{"spanhop_pending_updates", "Journal entries awaiting a rebuild.", "gauge", func(d *DynamicInfo) any { return d.PendingUpdates }},
		{"spanhop_overlay_edges", "Vertex pairs diverging from the base graph.", "gauge", func(d *DynamicInfo) any { return d.OverlayEdges }},
		{"spanhop_staleness_seconds", "Age of the oldest pending mutation.", "gauge", func(d *DynamicInfo) any { return float64(d.StalenessMS) / 1e3 }},
		{"spanhop_rebuilds_total", "Completed overlay rebuilds.", "counter", func(d *DynamicInfo) any { return d.Rebuilds }},
		{"spanhop_rebuild_running", "Whether an overlay rebuild is in flight.", "gauge", func(d *DynamicInfo) any { return boolGauge(d.RebuildRunning) }},
	}
	for _, m := range dyn {
		p.family(m.name, m.help, m.typ)
		for _, row := range rows {
			if row.info.Dynamic == nil {
				continue
			}
			p.sample(m.name, [][2]string{{"graph", row.info.ID}}, m.get(row.info.Dynamic))
		}
	}

	// Per-graph cost attribution: the accountant's (graph, op) rows.
	// Emitted from the accountant directly — not joined against the
	// registry — so costs already burned by a graph survive in the
	// exposition even while the registry row is mid-transition.
	costs := s.cfg.Obs.Account().Snapshot()
	costLabels := func(c obs.CostSnapshot) [][2]string {
		return [][2]string{{"graph", c.Graph}, {"op", c.Op}}
	}
	p.family("spanhop_graph_cpu_seconds_total",
		"On-thread CPU time attributed to a graph's operation sections (pool fan-out is visible via pprof labels instead).", "counter")
	for _, c := range costs {
		p.sample("spanhop_graph_cpu_seconds_total", costLabels(c), c.CPUSeconds)
	}
	p.family("spanhop_graph_wall_seconds_total",
		"Wall time spent inside a graph's operation sections.", "counter")
	for _, c := range costs {
		p.sample("spanhop_graph_wall_seconds_total", costLabels(c), c.WallSeconds)
	}
	p.family("spanhop_graph_allocs_total",
		"Heap objects allocated during a graph's operation sections (process-wide delta: approximate under concurrency).", "counter")
	for _, c := range costs {
		p.sample("spanhop_graph_allocs_total", costLabels(c), c.Allocs)
	}
	p.family("spanhop_graph_alloc_bytes_total",
		"Heap bytes allocated during a graph's operation sections (process-wide delta: approximate under concurrency).", "counter")
	for _, c := range costs {
		p.sample("spanhop_graph_alloc_bytes_total", costLabels(c), c.AllocBytes)
	}

	// Answer-quality auditing: the violation alarm and the audit
	// pipeline's own health. Families are declared unconditionally
	// (scrapers want stable schemas); rows appear as graphs register
	// with the auditor.
	audits := s.reg.aud.Snapshot()
	p.family("spanhop_quality_violations_total",
		"Audited answers that differ from an exact recomputation — a correctness alarm.", "counter")
	for _, ag := range audits {
		p.sample("spanhop_quality_violations_total",
			[][2]string{{"graph", ag.Graph}}, ag.Violations)
	}
	auditCounters := []struct {
		name, help string
		get        func(obs.AuditGraphSnapshot) int64
	}{
		{"spanhop_audit_samples_total", "Served answers accepted for shadow auditing.",
			func(a obs.AuditGraphSnapshot) int64 { return a.Sampled }},
		{"spanhop_audit_checked_total", "Shadow re-checks completed and classified.",
			func(a obs.AuditGraphSnapshot) int64 { return a.Audited }},
		{"spanhop_audit_dropped_total", "Audit samples evicted by the bounded drop-oldest queue.",
			func(a obs.AuditGraphSnapshot) int64 { return a.Dropped }},
		{"spanhop_audit_budget_skips_total", "Audit samples discarded by the per-graph CPU budget.",
			func(a obs.AuditGraphSnapshot) int64 { return a.BudgetSkips }},
		{"spanhop_audit_stale_skips_total", "Audit samples whose generation a rebuild compacted away.",
			func(a obs.AuditGraphSnapshot) int64 { return a.StaleSkips }},
	}
	for _, c := range auditCounters {
		p.family(c.name, c.help, "counter")
		for _, ag := range audits {
			p.sample(c.name, [][2]string{{"graph", ag.Graph}}, c.get(ag))
		}
	}
	p.family("spanhop_audit_cpu_seconds_total",
		"Thread-CPU burned by exact shadow re-checks (the budget's numerator).", "counter")
	for _, ag := range audits {
		p.sample("spanhop_audit_cpu_seconds_total",
			[][2]string{{"graph", ag.Graph}}, float64(ag.AuditCPUNS)/1e9)
	}

	// Lifecycle event counters (build queued/ready, snapshot written,
	// rebuild swapped, ...) — the countable face of the structured
	// event log.
	p.family("spanhop_events_total", "Lifecycle events by kind.", "counter")
	for _, ec := range s.cfg.Obs.Events().Snapshot() {
		p.sample("spanhop_events_total", [][2]string{{"event", ec.Name}}, ec.Count)
	}

	// Recent-trace ring occupancy.
	p.family("spanhop_traces_buffered", "Traces held in the /debug/traces ring.", "gauge")
	p.sample("spanhop_traces_buffered", nil, s.cfg.Obs.Traces().Len())
	p.family("spanhop_trace_annotations_dropped_total", "Late trace annotations (audit verdicts) dropped before their trace was filed.", "counter")
	p.sample("spanhop_trace_annotations_dropped_total", nil, s.cfg.Obs.Traces().DroppedAnnotations())

	// Go runtime health: heap, GC, goroutines, and scheduler latency
	// quantiles (runnable-to-running wait — the canary for the build
	// pool starving the query path).
	rt := obs.ReadRuntime()
	p.family("spanhop_go_goroutines", "Live goroutines.", "gauge")
	p.sample("spanhop_go_goroutines", nil, rt.Goroutines)
	p.family("spanhop_go_heap_alloc_bytes", "Bytes of live heap objects.", "gauge")
	p.sample("spanhop_go_heap_alloc_bytes", nil, rt.HeapAlloc)
	p.family("spanhop_go_heap_sys_bytes", "Heap bytes obtained from the OS.", "gauge")
	p.sample("spanhop_go_heap_sys_bytes", nil, rt.HeapSys)
	p.family("spanhop_go_gc_cycles_total", "Completed GC cycles.", "counter")
	p.sample("spanhop_go_gc_cycles_total", nil, rt.GCCycles)
	p.family("spanhop_go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause.", "counter")
	p.sample("spanhop_go_gc_pause_seconds_total", nil, rt.GCPauseTotal)
	p.family("spanhop_go_sched_latency_seconds", "Scheduler latency quantiles.", "gauge")
	p.sample("spanhop_go_sched_latency_seconds", [][2]string{{"quantile", "0.5"}}, rt.SchedLatP50)
	p.sample("spanhop_go_sched_latency_seconds", [][2]string{{"quantile", "0.9"}}, rt.SchedLatP90)
	p.sample("spanhop_go_sched_latency_seconds", [][2]string{{"quantile", "0.99"}}, rt.SchedLatP99)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(p.b.String()))
}
