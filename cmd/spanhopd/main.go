// Command spanhopd serves DistanceOracle queries over HTTP: a
// long-running daemon around internal/server's graph registry and
// batching query executor.
//
// Usage:
//
//	spanhopd -addr :8080 [-load name=path]... [-gen name=spec]... \
//	    [-seed 1] [-workers N] \
//	    [-build-workers 1] [-build-queue 16] \
//	    [-query-workers N] [-query-queue 1024] [-cache 4096] \
//	    [-snapshot-dir DIR] \
//	    [-rebuild-max-journal N] [-rebuild-max-patch-frac F] \
//	    [-rebuild-max-staleness D] \
//	    [-log-format text|json] [-log-level LEVEL] \
//	    [-trace-sample N] [-trace-ring N] \
//	    [-slow-query D] [-slow-query-per-min N] \
//	    [-workload-topk K] \
//	    [-audit-sample N] [-audit-cpu-frac F]
//
// Served graphs accept live edge mutations (POST /graphs/{id}/edges:
// insert/delete/reweight, each stamped with a generation); queries
// reflect them immediately through the dynamic overlay, and the
// -rebuild-max-* policy decides when the journal is folded into a
// fresh oracle in the background. With -snapshot-dir the pending
// journal persists too, so a restart replays it. GET /metrics exposes
// everything as a Prometheus scrape.
//
// Graphs can be preloaded at startup (-load for files in the
// internal/graph text or binary format, -gen for workload.ParseSpec
// generator strings such as "er:n=4096,d=8,w=uniform") or registered
// at runtime via POST /graphs. Every graph answers exactly (point-to-
// point Dijkstra; its build only loads the graph). Queries go to
// POST /graphs/{id}/query; see internal/server for the full API. A
// cache miss or a batch runs as soon as one of the graph's
// -query-workers is free; at most -query-queue of them wait for one,
// and the rest get 503.
// SIGINT/SIGTERM drain in-flight requests before exit.
//
// With -snapshot-dir, every oracle that becomes ready is persisted to
// DIR (one self-contained .snap flat arena per graph, written
// atomically), and on boot the daemon warm-starts every snapshot found
// there by memory mapping it: graphs are ready to serve immediately,
// with no rebuild and no build-stage telemetry. Arenas are
// host-endianness; a file that is not a current arena is skipped, and
// so is a hopset arena an earlier daemon wrote. Each skip is logged
// once, as a warm_start_skipped event naming the file, the graph and
// the error (for a hopset arena the error carries its spec, to
// register it again; a -load/-gen preload of that name rebuilds it
// exact). A -load/-gen preload whose name was
// already warm-started is skipped, so restarting with identical flags
// is idempotent and cheap.
//
// Observability: every request gets an edge-minted ID (echoed in
// X-Spanhop-Request); lifecycle events log structurally (text or JSON
// per -log-format) and count into /metrics; queries traced by client
// request (X-Spanhop-Trace header) or by -trace-sample land in the
// /debug/traces ring with a per-stage span breakdown; -slow-query
// logs queries over the threshold (rate-limited); pprof is live under
// /debug/pprof/, its CPU samples labeled {graph, op}.
//
// Cost attribution and workload analytics: per-graph CPU/allocation
// counters surface as spanhop_graph_* in /metrics and under each
// graph in /stats; GET /debug/workload reports per-graph hot (s,t)
// pairs (-workload-topk bounds the pair sketch).
//
// Answer-quality auditing: every -audit-sample'th served query (and
// every traced one) is shadow re-checked in the background against an
// independent exact recomputation at the generation it was served
// from, under a hard per-graph CPU budget (-audit-cpu-frac). A served
// answer that differs is a violation: per-regime counts, violation
// alarms, and the evidence behind them are at GET /debug/quality and
// as spanhop_quality_violations_total / spanhop_audit_* in /metrics;
// a violation also logs a structured ERROR.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	seed := flag.Uint64("seed", 1, "seed for preloaded graphs")
	workers := flag.Int("workers", 0, "worker cap for oracle builds: 0 or 1 = sequential reference build, N > 1 = multicore capped at N")
	buildWorkers := flag.Int("build-workers", 1, "concurrent oracle builds")
	buildQueue := flag.Int("build-queue", 16, "max queued builds (overflow → 503)")
	queryWorkers := flag.Int("query-workers", 0, "concurrent query batches per graph (0 = GOMAXPROCS)")
	queryQueue := flag.Int("query-queue", 1024, "max single queries and batches waiting for a query worker per graph (overflow → 503)")
	cacheSize := flag.Int("cache", 4096, "per-graph LRU result cache entries (negative disables)")
	snapshotDir := flag.String("snapshot-dir", "", "persist ready oracles here and warm-start them on boot (empty disables)")
	rebuildJournal := flag.Int("rebuild-max-journal", 0, "rebuild a graph's oracle once this many mutations are pending (0 = default 256, negative disables)")
	rebuildPatchFrac := flag.Float64("rebuild-max-patch-frac", 0, "rebuild once the mutation overlay exceeds this fraction of base edges (0 = default 0.10, negative disables)")
	rebuildStaleness := flag.Duration("rebuild-max-staleness", 0, "rebuild once the oldest pending mutation is this old (0 disables)")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	traceSample := flag.Int("trace-sample", 0, "server-side trace sampling: trace every Nth query (0 disables; header-requested traces always work)")
	traceRing := flag.Int("trace-ring", 0, "recent traces kept for GET /debug/traces (0 = default 256, negative disables)")
	slowQuery := flag.Duration("slow-query", 0, "log queries slower than this (0 disables)")
	slowQueryPerMin := flag.Int("slow-query-per-min", 0, "rate limit for the slow-query log (0 = default 60/min)")
	workloadTopK := flag.Int("workload-topk", 0, "per-graph heavy-hitter sketch capacity for /debug/workload (0 = default 128)")
	auditSample := flag.Int("audit-sample", 0, "answer-quality auditing: shadow re-check every Nth served query against exact recomputation (0 = default 64, negative disables rate sampling; traced requests always audit)")
	auditCPUFrac := flag.Float64("audit-cpu-frac", 0, "cap per-graph audit CPU at this fraction of wall time (0 = default 0.05, negative uncaps)")
	var loads, gens []string
	flag.Func("load", "preload a graph file as name=path (repeatable)", func(v string) error {
		loads = append(loads, v)
		return nil
	})
	flag.Func("gen", "preload a generated graph as name=spec (repeatable)", func(v string) error {
		gens = append(gens, v)
		return nil
	})
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		// The logger itself failed to configure; stderr is all we have.
		slog.New(slog.NewTextHandler(os.Stderr, nil)).Error("spanhopd: bad logging flags", "err", err)
		os.Exit(2)
	}
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	if *snapshotDir != "" {
		if err := os.MkdirAll(*snapshotDir, 0o755); err != nil {
			fatal("spanhopd: -snapshot-dir", "err", err)
		}
	}
	observer := obs.New(obs.Options{
		Logger:             logger,
		TraceRing:          *traceRing,
		SampleEvery:        *traceSample,
		SlowQuery:          *slowQuery,
		SlowQueryPerMinute: *slowQueryPerMin,
	})
	srv := server.New(server.Config{
		BuildWorkers: *buildWorkers,
		BuildQueue:   *buildQueue,
		Workers:      *workers,
		QueryWorkers: *queryWorkers,
		QueryQueue:   *queryQueue,
		CacheSize:    *cacheSize,
		SnapshotDir:  *snapshotDir,

		RebuildMaxJournal:       *rebuildJournal,
		RebuildMaxPatchFraction: *rebuildPatchFrac,
		RebuildMaxStaleness:     *rebuildStaleness,

		WorkloadTopK: *workloadTopK,
		AuditSample:  *auditSample,
		AuditCPUFrac: *auditCPUFrac,

		Obs: observer,
	})
	if *snapshotDir != "" {
		// A skipped snapshot is logged once, by the registry's
		// warm_start_skipped event (file, graph and error).
		loaded, _ := srv.Registry().WarmStart()
		if loaded > 0 {
			logger.Info(fmt.Sprintf("spanhopd: warm-started %d graph(s)", loaded),
				"loaded", loaded, "dir", *snapshotDir)
		}
	}

	preload := func(kind string, args []string, mk func(name, v string) server.GraphSpec) {
		for _, a := range args {
			name, v, ok := strings.Cut(a, "=")
			if !ok || name == "" || v == "" {
				fatal("spanhopd: bad preload flag", "flag", "-"+kind, "value", a, "want", "name="+kind)
			}
			want := mk(name, v)
			if e, ok := srv.Registry().Get(name); ok {
				// Already warm-started from a snapshot. A restart with
				// the same preload flags must not rebuild — but if the
				// flags changed (different spec or seed) the stale
				// oracle must not silently serve either: evict it
				// (snapshot file included) and rebuild. Eps is not
				// compared: it changes no exact answer, and a preload
				// sends 0, which the registry records as its default.
				got := e.Info().Spec
				if got.File == want.File && got.Gen == want.Gen && got.Seed == want.Seed {
					logger.Info(fmt.Sprintf("spanhopd: skipping -%s %s: already warm-started", kind, name),
						"flag", "-"+kind, "graph", name)
					continue
				}
				logger.Info("spanhopd: preload spec changed since the snapshot; rebuilding",
					"flag", "-"+kind, "graph", name)
				if _, err := srv.Registry().Delete(name); err != nil {
					fatal("spanhopd: evict stale snapshot", "flag", "-"+kind, "graph", name, "err", err)
				}
			}
			e, err := srv.Registry().Add(want)
			if err != nil {
				fatal("spanhopd: preload failed", "flag", "-"+kind, "graph", name, "err", err)
			}
			logger.Info("spanhopd: queued preload build", "graph", e.Info().ID, "kind", kind, "spec", v)
		}
	}
	preload("load", loads, func(name, v string) server.GraphSpec {
		return server.GraphSpec{Name: name, File: v, Seed: *seed}
	})
	preload("gen", gens, func(name, v string) server.GraphSpec {
		return server.GraphSpec{Name: name, Gen: v, Seed: *seed}
	})

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	logger.Info("spanhopd: listening", "addr", *addr,
		"log_format", *logFormat, "trace_sample", *traceSample)

	select {
	case err := <-errc:
		// Listener died before a signal: config error, not shutdown.
		fatal("spanhopd: listener failed", "err", err)
	case <-ctx.Done():
	}
	logger.Info("spanhopd: draining")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("spanhopd: shutdown", "err", err)
	}
	srv.Close()
	logger.Info("spanhopd: bye")
}
