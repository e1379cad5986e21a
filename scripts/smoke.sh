#!/usr/bin/env bash
# Serving-layer smoke test: build the binaries (race-instrumented, so
# the whole end-to-end flow runs under the detector), start spanhopd
# on a small graph, curl /healthz and a query, then run loadgen with
# bit-exact verification against a locally rebuilt oracle. Every
# graph the daemon builds is exact (no hopset), so the hopset engine
# runs end to end through the hopset CLI instead: build, save as a
# flat arena, map it back, same answers. Kill the
# daemon and restart it with the same -snapshot-dir to prove the warm
# start: the graph is ready without a rebuild (no build-stage
# telemetry) and answers are unchanged. Then mutate the live graph
# (insert/delete edges), assert the generation bumps and queries see
# the change, restart once more, and verify the mutation journal
# replays from the snapshot. CI runs this; it also works standalone
# from the repo root.
# -E so the ERR trap fires inside functions too; pipefail so a
# failing benchmark/loadgen stage is not masked by the pipe it feeds.
set -Eeuo pipefail

ADDR="127.0.0.1:${SMOKE_PORT:-8095}"
DIR="$(mktemp -d)"
SNAPDIR="$DIR/snapshots"
DAEMON_PID=""
trap 'kill "$DAEMON_PID" 2>/dev/null || true; rm -rf "$DIR"' EXIT

# Stage tracking: every phase announces itself through stage(), and
# the ERR trap names the phase that failed so a red CI run is
# attributable from the last log line alone.
STAGE="startup"
stage() { STAGE="$*"; echo "== $STAGE"; }
trap 'code=$?; echo "smoke.sh: FAILED during stage \"$STAGE\" (exit $code)" >&2' ERR

stage "build binaries (-race)"
go build -race -o "$DIR/bin/" ./cmd/...

stage "generate a small weighted grid (binary format)"
"$DIR/bin/gengraph" -family grid -rows 15 -cols 15 -weights uniform -maxw 20 \
    -format binary -out "$DIR/grid.bin"

start_daemon() {
    "$DIR/bin/spanhopd" -addr "$ADDR" -load "grid=$DIR/grid.bin" \
        -seed 2 -snapshot-dir "$SNAPDIR" \
        -audit-sample 1 -audit-cpu-frac 0.5 >"$1" 2>&1 &
    DAEMON_PID=$!
}

wait_healthz() {
    for i in $(seq 1 50); do
        if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then return 0; fi
        if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
            echo "spanhopd died:"; cat "$1"; exit 1
        fi
        sleep 0.2
    done
    echo "spanhopd never became healthy"; exit 1
}

stage "start spanhopd (snapshot persistence on)"
start_daemon "$DIR/spanhopd.log"

stage "wait for /healthz"
wait_healthz "$DIR/spanhopd.log"
curl -fsS "http://$ADDR/healthz"; echo

stage "wait for the preloaded graph build"
for i in $(seq 1 150); do
    STATE=$(curl -fsS "http://$ADDR/graphs/grid" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')
    [ "$STATE" = "ready" ] && break
    if [ "$STATE" = "failed" ]; then
        echo "build failed:"; curl -fsS "http://$ADDR/graphs/grid"; exit 1
    fi
    sleep 0.2
done
[ "$STATE" = "ready" ] || { echo "graph never became ready"; exit 1; }

stage "single query via curl"
OUT=$(curl -fsS -X POST "http://$ADDR/graphs/grid/query" -d '{"s":0,"t":224}')
echo "$OUT"
grep -q '"dist":' <<<"$OUT" || { echo "query response missing dist"; exit 1; }
COLD_DIST=$(echo "$OUT" | sed -n 's/.*"dist":\([0-9]*\).*/\1/p')

stage "loadgen with bit-exact verification"
"$DIR/bin/loadgen" -addr "http://$ADDR" -gen "er:n=512,d=6,w=uniform,maxw=30" \
    -mix hotspot -concurrency 8 -requests 400 -verify

stage "loadgen mutation traffic: mutate, verify overlay + rebuilt answers"
"$DIR/bin/loadgen" -addr "http://$ADDR" -gen "er:n=512,d=6,w=uniform,maxw=30" \
    -mix uniform -concurrency 8 -requests 200 \
    -mutate 5 -mutate-batch 3 -mutate-mix churn -verify

stage "hopset engine end to end: build, save, map back, same answers"
"$DIR/bin/hopset" -in "$DIR/grid.bin" -queries 20 -save "$DIR/hop.snap" | tee "$DIR/hop_build.out"
"$DIR/bin/hopset" -load "$DIR/hop.snap" -queries 20 | tee "$DIR/hop_load.out"
HOP_EDGES=$(sed -n 's/^est multi-scale hopset: \([0-9]*\) edges.*/\1/p' "$DIR/hop_build.out")
[ "${HOP_EDGES:-0}" -gt 0 ] || { echo "hopset build produced no edges"; exit 1; }
grep -q "restored from .*: $HOP_EDGES edges" "$DIR/hop_load.out" \
    || { echo "mapped hopset size differs from the built one"; exit 1; }
[ "$(grep '^queries:' "$DIR/hop_build.out")" = "$(grep '^queries:' "$DIR/hop_load.out")" ] \
    || { echo "mapped hopset answers differ from the built one"; exit 1; }

stage "/stats"
STATS=$(curl -fsS "http://$ADDR/stats")
echo "$STATS"
grep -q '"build_stages"' <<<"$STATS" || { echo "stats missing build_stages telemetry"; exit 1; }

stage "observability: traced query burst, /debug/traces, pprof"
# Every 2nd loadgen query requests a server-side trace; loadgen must
# print the slowest request's span breakdown from the response header.
"$DIR/bin/loadgen" -addr "http://$ADDR" -graph grid -mix uniform \
    -concurrency 4 -requests 100 -trace-sample 2 | tee "$DIR/trace.out"
grep -q "trace: spans cover" "$DIR/trace.out" \
    || { echo "loadgen printed no span breakdown"; exit 1; }
# The ring must hold the burst's traces with the expected span names.
TRACES=$(curl -fsS "http://$ADDR/debug/traces")
grep -q '"count":[1-9]' <<<"$TRACES" || { echo "trace ring empty after traced burst"; exit 1; }
for span in decode queue-wait exec; do
    grep -q "\"name\":\"$span\"" <<<"$TRACES" \
        || { echo "trace ring missing span \"$span\""; exit 1; }
done
grep -q '"batch_size"' <<<"$TRACES" || { echo "traces missing batch_size annotation"; exit 1; }
# One explicitly traced request must echo the breakdown in-band.
# (Buffer curl output before grep -q: -q closes the pipe on the first
# match, and pipefail would turn curl's resulting EPIPE into a fail.)
TRACED=$(curl -fsSi -X POST -H 'X-Spanhop-Trace: 1' "http://$ADDR/graphs/grid/query" \
    -d '{"s":1,"t":223}')
grep -qi '^X-Spanhop-Trace:' <<<"$TRACED" \
    || { echo "traced query echoed no X-Spanhop-Trace header"; exit 1; }
# pprof and the runtime/build-info metrics are live.
HEAP=$(curl -fsS "http://$ADDR/debug/pprof/heap?debug=1")
grep -q "heap profile" <<<"$HEAP" \
    || { echo "pprof heap endpoint unavailable; got:"; echo "$HEAP" | head -5; exit 1; }
METRICS=$(curl -fsS "http://$ADDR/metrics")
grep -q 'spanhop_build_info{' <<<"$METRICS" || { echo "metrics missing build_info"; exit 1; }
grep -q 'spanhop_go_goroutines' <<<"$METRICS" || { echo "metrics missing runtime gauges"; exit 1; }
grep -q 'spanhop_events_total{event="build_ready"}' <<<"$METRICS" \
    || { echo "metrics missing lifecycle event counters"; exit 1; }

stage "workload analytics: /debug/workload + loadgen cross-check"
# loadgen asserts the server's analytics deltas (request count, sketch
# total, exact heavy-hitter counts) match the load it just generated.
requests() {
    local stats
    stats=$(curl -fsS "http://$ADDR/stats")
    grep -o '"requests":[0-9]*' <<<"$stats" | head -n 1 | cut -d: -f2
}
REQ0=$(requests)
"$DIR/bin/loadgen" -addr "http://$ADDR" -graph grid -mix repeat \
    -concurrency 4 -requests 200 -report-workload | tee "$DIR/workload.out"
grep -q "workload: server analytics match the generated load" "$DIR/workload.out" \
    || { echo "loadgen workload cross-check did not pass"; exit 1; }
WL=$(curl -fsS "http://$ADDR/debug/workload?graph=grid&k=8")
grep -q '"top_pairs":\[{' <<<"$WL" || { echo "workload missing heavy hitters"; exit 1; }
REQ1=$(requests)
[[ $((REQ1 - REQ0)) == 200 ]] \
    || { echo "/stats requests advanced by $((REQ1 - REQ0)), want 200"; exit 1; }

stage "per-graph cost attribution in /metrics and /stats"
METRICS=$(curl -fsS "http://$ADDR/metrics")
grep -q 'spanhop_graph_cpu_seconds_total{graph="grid",op="query"}' <<<"$METRICS" \
    || { echo "metrics missing per-graph query CPU attribution"; exit 1; }
grep -q 'spanhop_graph_allocs_total{graph="grid"' <<<"$METRICS" \
    || { echo "metrics missing per-graph alloc attribution"; exit 1; }
curl -fsS "http://$ADDR/stats" | grep -q '"costs":\[{' \
    || { echo "stats missing per-graph cost rows"; exit 1; }

stage "trace ring graph filter"
# The graph filter must narrow the ring to real traces for that graph.
curl -fsS "http://$ADDR/debug/traces?graph=grid" | grep -q '"count":[1-9]' \
    || { echo "trace ?graph=grid filter returned nothing"; exit 1; }

stage "structured-logging gate (no ad-hoc prints in internal/)"
"$(dirname "$0")/check-logging.sh"

stage "wait for the background snapshot write"
for i in $(seq 1 100); do
    [ -f "$SNAPDIR/grid.snap" ] && break
    sleep 0.2
done
[ -f "$SNAPDIR/grid.snap" ] || { echo "grid snapshot never written"; exit 1; }

stage "forced snapshot write via the admin API"
curl -fsS -X POST "http://$ADDR/graphs/grid/snapshot" | grep -q '"size_bytes"' \
    || { echo "forced snapshot failed"; exit 1; }

stage "DELETE a building graph (abort the in-flight build)"
curl -fsS -X POST "http://$ADDR/graphs" \
    -d '{"name":"doomed","gen":"er:n=16384,d=8,w=uniform,maxw=64","seed":9}' >/dev/null
curl -fsS -X DELETE "http://$ADDR/graphs/doomed" | grep -q '"deleted":true' \
    || { echo "DELETE of building graph failed"; exit 1; }
CODE=$(curl -s -o /dev/null -w "%{http_code}" "http://$ADDR/graphs/doomed")
[ "$CODE" = "404" ] || { echo "deleted building graph still visible ($CODE)"; exit 1; }

stage "DELETE the ready graph (snapshot file must go with it)"
curl -fsS -X DELETE "http://$ADDR/graphs/loadgen" | grep -q '"deleted":true' \
    || { echo "DELETE response missing deleted flag"; exit 1; }
CODE=$(curl -s -o /dev/null -w "%{http_code}" "http://$ADDR/graphs/loadgen")
[ "$CODE" = "404" ] || { echo "deleted graph still visible ($CODE)"; exit 1; }
CODE=$(curl -s -o /dev/null -w "%{http_code}" -X POST "http://$ADDR/graphs/loadgen/query" -d '{"s":0,"t":1}')
[ "$CODE" = "404" ] || { echo "query on deleted graph returned $CODE, want 404"; exit 1; }
[ ! -f "$SNAPDIR/loadgen.snap" ] || { echo "deleted graph's snapshot survived"; exit 1; }
# The grid graph must be unaffected by its neighbors' eviction.
curl -fsS -X POST "http://$ADDR/graphs/grid/query" -d '{"s":0,"t":224}' | grep -q '"dist":' \
    || { echo "grid graph broken after deletes"; exit 1; }

stage "graceful shutdown"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || true
grep -q "bye" "$DIR/spanhopd.log" || { echo "no clean shutdown:"; cat "$DIR/spanhopd.log"; exit 1; }

stage "restart: warm-start from the snapshot dir, no rebuild"
start_daemon "$DIR/spanhopd2.log"
wait_healthz "$DIR/spanhopd2.log"
INFO=$(curl -fsS "http://$ADDR/graphs/grid")
echo "$INFO"
grep -q '"state":"ready"' <<<"$INFO" || { echo "warm-started graph not ready"; exit 1; }
grep -q '"warm_started":true' <<<"$INFO" || { echo "graph not marked warm_started"; exit 1; }
grep -q '"build_stages"' <<<"$INFO" && { echo "warm start recorded build stages — a rebuild happened"; exit 1; }
grep -q "warm-started 1 graph" "$DIR/spanhopd2.log" || { echo "no warm-start log line"; exit 1; }
grep -q "skipping -load grid" "$DIR/spanhopd2.log" || { echo "preload not skipped after warm start"; exit 1; }

stage "warm-started answers match the first life"
WARM=$(curl -fsS -X POST "http://$ADDR/graphs/grid/query" -d '{"s":0,"t":224}')
WARM_DIST=$(echo "$WARM" | sed -n 's/.*"dist":\([0-9]*\).*/\1/p')
[ "$WARM_DIST" = "$COLD_DIST" ] || { echo "warm answer $WARM_DIST != cold answer $COLD_DIST"; exit 1; }

stage "mutate the live graph: insert a shortcut, delete an edge"
MUT=$(curl -fsS -X POST "http://$ADDR/graphs/grid/edges" \
    -d '{"updates":[{"op":"insert","u":0,"v":224,"w":1},{"op":"delete","u":0,"v":1}]}')
echo "$MUT"
grep -q '"generation":2' <<<"$MUT" || { echo "generation did not bump to 2"; exit 1; }

stage "queries see the mutation immediately"
OUT=$(curl -fsS -X POST "http://$ADDR/graphs/grid/query" -d '{"s":0,"t":224}')
MUT_DIST=$(echo "$OUT" | sed -n 's/.*"dist":\([0-9]*\).*/\1/p')
[ "$MUT_DIST" = "1" ] || { echo "mutated query answered $MUT_DIST, want the inserted shortcut (1)"; exit 1; }

stage "overlay gauges in /stats and /metrics"
curl -fsS "http://$ADDR/stats" | grep -q '"pending_updates":2' \
    || { echo "stats missing pending_updates"; exit 1; }
METRICS=$(curl -fsS "http://$ADDR/metrics")
grep -q 'spanhop_generation{graph="grid"} 2' <<<"$METRICS" \
    || { echo "metrics missing generation gauge"; exit 1; }
grep -q 'spanhop_requests_total{graph="grid"}' <<<"$METRICS" \
    || { echo "metrics missing request counter"; exit 1; }

stage "answer-quality auditing: traced burst over the mutated graph"
# Every query is sampled (-audit-sample 1) and the graph carries live
# mutations, so the auditor re-checks clean and degrading
# answers alike, each against an exact recomputation. loadgen waits
# for the audit queue to drain and asserts zero violations for the
# traffic it generated.
"$DIR/bin/loadgen" -addr "http://$ADDR" -graph grid -mix uniform \
    -concurrency 4 -requests 100 -trace-sample 2 -report-quality | tee "$DIR/quality.out"
grep -q "quality: .* answers shadow re-checked, 0 violations" "$DIR/quality.out" \
    || { echo "loadgen quality cross-check did not pass"; exit 1; }
QUALITY=$(curl -fsS "http://$ADDR/debug/quality?graph=grid")
grep -q '"audited":[1-9]' <<<"$QUALITY" || { echo "auditor checked no samples"; exit 1; }
grep -q '"violations":0' <<<"$QUALITY" || { echo "auditor reported violations"; exit 1; }
grep -q '"evidence":\[\]' <<<"$QUALITY" \
    || { echo "evidence ring not empty (or missing) on a correct build"; exit 1; }
grep -q '"regime":"degrading"' <<<"$QUALITY" \
    || { echo "no degrading-regime audits despite live deletions"; exit 1; }
# The audit counters reach /metrics, and a hostile filter 404s.
METRICS=$(curl -fsS "http://$ADDR/metrics")
grep -q 'spanhop_audit_checked_total{graph="grid"} [1-9]' <<<"$METRICS" \
    || { echo "metrics show no audited answers on grid"; exit 1; }
grep -q 'spanhop_quality_violations_total{graph="grid"} 0' <<<"$METRICS" \
    || { echo "metrics missing zero violation counter"; exit 1; }
CODE=$(curl -s -o /dev/null -w "%{http_code}" "http://$ADDR/debug/quality?graph=nosuch")
[ "$CODE" = "404" ] || { echo "hostile quality filter returned $CODE, want 404"; exit 1; }

stage "persist the journal, restart, and verify the replay"
curl -fsS -X POST "http://$ADDR/graphs/grid/snapshot" >/dev/null
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || true
start_daemon "$DIR/spanhopd3.log"
wait_healthz "$DIR/spanhopd3.log"
INFO=$(curl -fsS "http://$ADDR/graphs/grid")
grep -q '"warm_started":true' <<<"$INFO" || { echo "third life not warm-started"; exit 1; }
grep -q '"generation":2' <<<"$INFO" || { echo "journal generation lost across restart"; exit 1; }
grep -q '"pending_updates":2' <<<"$INFO" || { echo "journal entries lost across restart"; exit 1; }
OUT=$(curl -fsS -X POST "http://$ADDR/graphs/grid/query" -d '{"s":0,"t":224}')
REPLAY_DIST=$(echo "$OUT" | sed -n 's/.*"dist":\([0-9]*\).*/\1/p')
[ "$REPLAY_DIST" = "1" ] || { echo "replayed journal answered $REPLAY_DIST, want 1"; exit 1; }

stage "final shutdown"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || true
grep -q "bye" "$DIR/spanhopd3.log" || { echo "no clean third shutdown:"; cat "$DIR/spanhopd3.log"; exit 1; }
echo "smoke OK"
