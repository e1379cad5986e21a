package main

import "math"

// perLayer lists every per-layer metric a traced run prints, with its
// unit. A layer the workload does not reach reads 0. README.md names
// the public function behind each one and the end-to-end metric it
// should move.
var perLayer = []struct{ name, unit string }{
	{"server.handler_p50_ms", "ms"},
	{"server.transport_p50_ms", "ms"},
	{"server.mutate_handler_p50_ms", "ms"},
	{"executor.cache_hit_frac", "ratio"},
	{"executor.mean_batch_size", "queries"},
	{"executor.rejects", "count"},
	{"registry.build_s", "s"},
	{"registry.rebuilds", "count"},
	{"registry.rebuild_s", "s"},
	{"obs.query_cpu_ms_per_query", "ms"},
	{"obs.audit_cpu_ms_per_query", "ms"},
	{"obs.audit_samples", "count"},
	{"dynamic.apply_p50_ms", "ms"},
	{"dynamic.query_p50_ms.clean", "ms"},
	{"dynamic.query_p50_ms.improving", "ms"},
	{"dynamic.query_p50_ms.degrading", "ms"},
	{"dynamic.share.clean", "count"},
	{"dynamic.share.improving", "count"},
	{"dynamic.share.degrading", "count"},
	{"dynamic.exact_p50_ms", "ms"},
	{"oracle.query_p50_ms", "ms"},
	{"oracle.levels_mean", "rounds"},
	{"oracle.fallback_frac", "ratio"},
	{"oracle.speedup_vs_exact", "ratio"},
	{"wscale.decompose_s", "s"},
	{"wscale.instances", "count"},
	{"hopset.build_s", "s"},
	{"hopset.edges", "count"},
	{"core.est_ms", "ms"},
	{"spanner.build_s", "s"},
	{"spanner.size_ratio", "ratio"},
	{"spanner.levels", "count"},
	{"sssp.dijkstra_spanner_ms", "ms"},
	{"sssp.dijkstra_full_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unattributed_p50_ms", "ms"},
}

// layerDefaults sets every per-layer metric to 0 before a traced run
// fills in the layers its workload reaches.
func (b *bench) layerDefaults() {
	for _, m := range perLayer {
		b.set(m.name, 0, m.unit)
	}
}

// traceOverhead compares the traced timed phase with the untraced one
// run just before it, and reports the part of the traced query_p50_ms
// that the p50 self times of the given spans do not account for.
func (b *bench) traceOverhead(untraced, traced phaseStats, spans ...string) {
	b.set("trace.overhead_frac", traced.p50ms/untraced.p50ms-1, "ratio")
	rest := traced.p50ms
	for _, s := range spans {
		rest -= median(b.tr.self(s))
	}
	b.set("trace.unattributed_p50_ms", rest, "ms")
}

// finite maps a NaN or infinite value (a metric without samples) to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
