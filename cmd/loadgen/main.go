// Command loadgen replays synthetic query mixes against a running
// spanhopd and reports client-side throughput/latency plus the
// server's own batch and cache counters — the repo's end-to-end
// serving benchmark.
//
// Usage:
//
//	loadgen -addr http://localhost:8080 \
//	    [-graph id | -gen "er:n=4096,d=8,w=uniform"] \
//	    [-mix uniform|hotspot|repeat] [-concurrency 16] [-requests 2000] \
//	    [-mutate N] [-mutate-batch 4] [-mutate-mix churn] \
//	    [-seed 1] [-verify] [-workers N] [-trace-sample N]
//
// With -gen, loadgen registers the graph itself (id "loadgen") and
// waits for the build. With -verify (requires -gen), it rebuilds the
// same oracle locally — the daemon builds every graph exact, and the
// graph is deterministic in (gen, seed) — and asserts every server
// answer is bit-identical to serial DistanceOracle.Query.
//
// With -mutate N (requires -gen), loadgen first drives N edge-mutation
// batches through POST /graphs/{id}/edges using a deterministic
// workload.Mutator stream, asserting the generation advances by
// exactly one per mutation; the read phase then runs against the
// mutated graph. Combined with -verify, the mutations are replayed
// into a local DynamicOracle replica: pre-rebuild answers are checked
// against the replica's overlay path, then both sides force a rebuild
// (POST /graphs/{id}/rebuild and a local ForceRebuild) so the
// concurrent read phase verifies bit-identical against the same
// compacted generation.
//
// With -trace-sample N, every Nth query carries the X-Spanhop-Trace
// header, so the server traces it and echoes the span breakdown back
// in the response header; loadgen keeps the slowest traced request
// and prints its server-side spans (decode / queue-wait / exec, plus
// cache/batch/regime annotations) against the client-observed
// latency — where a slow request actually spent its time.
//
// With -report-workload, loadgen snapshots GET /debug/workload and the
// /stats request counter before and after the read phase and
// cross-checks the server's per-graph analytics against the load it
// just generated: the request-counter delta must equal the queries
// offered, the heavy-hitter sketch total must
// advance by the same amount, and every sketch entry the server
// reports as exact (err == 0) must carry precisely the count this run
// sent for that pair — an end-to-end check that the analytics
// pipeline neither drops nor double-counts demand.
//
// With -report-quality, loadgen snapshots GET /debug/quality before
// the run, waits for the daemon's background answer auditor to drain
// the samples it took from this run's traffic, and asserts zero new
// violations — a closed-loop check that every shadow re-checked answer
// equals an exact recomputation. Any new violation exits non-zero (it
// is a server correctness alarm, not a load-generation artifact). The
// -json summary gains a "quality" block (samples audited, violations).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	spanhop "repro"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/workload"
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "spanhopd base URL")
	graphID := flag.String("graph", "", "existing graph id to query")
	gen := flag.String("gen", "", "generator spec to register and query (id \"loadgen\")")
	mixName := flag.String("mix", "uniform", "query mix: uniform, hotspot, repeat")
	concurrency := flag.Int("concurrency", 16, "concurrent client workers")
	requests := flag.Int("requests", 2000, "total queries to send")
	seed := flag.Uint64("seed", 1, "seed (with -gen; also seeds the mixes)")
	verify := flag.Bool("verify", false, "rebuild the oracle locally and verify every answer (needs -gen)")
	mutate := flag.Int("mutate", 0, "edge-mutation batches to apply before the read phase (needs -gen; 0 = off)")
	mutateBatch := flag.Int("mutate-batch", 4, "mutations per batch (with -mutate)")
	mutateMix := flag.String("mutate-mix", "churn", "mutation mix: churn, grow, decay, reweight")
	mutateMaxW := flag.Int64("mutate-maxw", 50, "max weight for inserted/reweighted edges (weighted graphs)")
	workers := flag.Int("workers", 0, "worker cap for the local -verify rebuild; must mirror the daemon's -workers so both sides build the same oracle (0 = the sequential reference build, matching a daemon without -workers)")
	traceSample := flag.Int("trace-sample", 0, "request a server-side trace for every Nth query and print the slowest traced request's span breakdown (0 disables)")
	reportWorkload := flag.Bool("report-workload", false, "snapshot /debug/workload around the run and assert the server's hot-pair sketch and request count match the generated load")
	reportQuality := flag.Bool("report-quality", false, "snapshot /debug/quality around the run and assert the server's answer auditor found zero violations in this run's sampled traffic")
	timeout := flag.Duration("timeout", 120*time.Second, "build-wait timeout")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON summary on stdout (progress moves to stderr)")
	flag.Parse()

	if *jsonOut {
		// Keep stdout pure JSON: everything human-facing goes to
		// stderr so `loadgen -json | jq` and the bench harness can
		// parse the summary without scraping.
		progress = os.Stderr
	}

	if (*graphID == "") == (*gen == "") {
		fatal(fmt.Errorf("give exactly one of -graph or -gen"))
	}
	if *verify && *gen == "" {
		fatal(fmt.Errorf("-verify needs -gen (the spec to rebuild locally)"))
	}
	if *mutate > 0 && *gen == "" {
		fatal(fmt.Errorf("-mutate needs -gen (the spec to derive valid mutations from)"))
	}
	if *mutateBatch < 1 {
		*mutateBatch = 1
	}

	client := &http.Client{Timeout: 30 * time.Second}
	id := *graphID
	if *gen != "" {
		id = "loadgen"
		code, body, err := doJSON(client, "POST", *addr+"/graphs",
			server.GraphSpec{Name: id, Gen: *gen, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		// 409 duplicate = already registered by a previous run against
		// the same daemon; querying it is fine because the build is
		// deterministic in (gen, seed).
		if code != http.StatusAccepted && code != http.StatusConflict {
			fatal(fmt.Errorf("POST /graphs: %d: %s", code, body))
		}
	}

	info := waitReady(client, *addr, id, *timeout)
	if *gen != "" {
		// If "loadgen" already existed (409 above), it may have been
		// registered by an earlier run with different parameters;
		// querying — and especially -verify — would then target the
		// wrong oracle.
		// Eps is not compared: it changes no exact answer.
		if info.Spec.Gen != *gen || info.Spec.Seed != *seed {
			fatal(fmt.Errorf("graph %q on the daemon was built from (gen=%q seed=%d), not the requested (gen=%q seed=%d); restart the daemon or change -gen",
				id, info.Spec.Gen, info.Spec.Seed, *gen, *seed))
		}
		// A reused graph (409 above) may carry mutations from an earlier
		// -mutate run; the local replica starts from the pristine spec
		// graph, so -mutate/-verify against it would mismatch for
		// reasons that look like server bugs.
		if (*mutate > 0 || *verify) && info.Dynamic != nil && info.Dynamic.Generation > 0 {
			fatal(fmt.Errorf("graph %q already carries %d generations of mutations from a previous run; DELETE /graphs/%s it first (or restart the daemon)",
				id, info.Dynamic.Generation, id))
		}
	}
	infof("graph %s: n=%d m=%d weighted=%v (built in %dms)\n",
		id, info.N, info.M, info.Weighted, info.BuildMS)

	// Generate the spec graph once: the -verify replica and the
	// -mutate stream both derive from it.
	var specGraph *graph.Graph
	if *verify || *mutate > 0 {
		spec, err := workload.ParseSpec(*gen, *seed)
		if err != nil {
			fatal(err)
		}
		specGraph = spec.Gen()
	}

	// The verification reference: a plain static oracle without
	// mutations, or a DynamicOracle replica once -mutate is in play.
	var oracle reference
	var replica *spanhop.DynamicOracle
	if *verify {
		infof("verify: rebuilding oracle locally (seed=%d workers=%d)...\n", *seed, *workers)
		// The facade default engine (exact), like every graph the
		// daemon builds; the daemon's recorded eps changes no answer.
		var opt spanhop.OracleOptions
		if *workers > 0 {
			opt.Exec = spanhop.ParallelExec(*workers)
		}
		static := spanhop.NewDistanceOracleOpts(specGraph, info.Spec.Eps, *seed, opt)
		if *mutate > 0 {
			replica = spanhop.NewDynamicOracle(static, spanhop.RebuildPolicy{Disabled: true, Workers: *workers})
			defer replica.Close()
			oracle = replica
		} else {
			oracle = static
		}
	}

	mutations := 0
	if *mutate > 0 {
		verifiable, total, err := runMutations(client, *addr, id, specGraph, mutationConfig{
			seed: *seed, batches: *mutate, batchSize: *mutateBatch,
			mix: *mutateMix, maxW: *mutateMaxW,
		}, replica)
		if err != nil {
			fatal(err)
		}
		mutations = total
		if !verifiable {
			oracle = nil
		}
	}

	// The -report-workload baseline: the sketch and the /stats request
	// counter are cumulative since graph registration, so assertions
	// compare deltas across the read phase.
	var beforeWL obs.WorkloadSnapshot
	var beforeReq int64
	if *reportWorkload {
		snap, _, err := fetchWorkload(client, *addr, id)
		if err == nil {
			beforeReq, err = fetchRequests(client, *addr, id)
		}
		if err != nil {
			fatal(fmt.Errorf("report-workload: pre-run snapshot: %w", err))
		}
		beforeWL = snap
	}

	// The -report-quality baseline: audit counters are cumulative since
	// graph registration, so the zero-violations assertion compares the
	// delta across this run.
	var beforeQ obs.AuditGraphSnapshot
	if *reportQuality {
		snap, _, err := fetchQuality(client, *addr, id)
		if err != nil {
			fatal(fmt.Errorf("report-quality: pre-run snapshot: %w", err))
		}
		beforeQ = snap
	}

	type sample struct {
		lat time.Duration
	}
	var (
		mu        sync.Mutex
		samples   []sample
		errCount  int
		mismatch  int
		firstErrs []string

		// -report-workload bookkeeping: every request that got an HTTP
		// response was offered to the executor (the server's analytics
		// count demand at executor entry, success or not), and the
		// per-pair counts are the ground truth for the sketch check.
		offered  int64
		pairSent = map[[2]graph.V]int64{}

		// -trace-sample bookkeeping: a global counter picks every Nth
		// request across all workers; the slowest traced request's
		// server-side span breakdown is kept for the report.
		traceSeq    atomic.Uint64
		tracedCount int
		slowestLat  time.Duration
		slowest     obs.TraceData
	)
	if *concurrency < 1 {
		*concurrency = 1
	}
	if *concurrency > *requests {
		*concurrency = *requests
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		// Distribute -requests exactly: the first requests%concurrency
		// workers take one extra.
		perWorker := *requests / *concurrency
		if w < *requests%*concurrency {
			perWorker++
		}
		wg.Add(1)
		go func(w, perWorker int) {
			defer wg.Done()
			mix, err := workload.ParseMix(*mixName, info.N, *seed+uint64(w)*0x9e3779b9)
			if err != nil {
				fatal(err)
			}
			url := fmt.Sprintf("%s/graphs/%s/query", *addr, id)
			for i := 0; i < perWorker; i++ {
				p := mix.Next()
				var reqHdr map[string]string
				traced := *traceSample > 0 && traceSeq.Add(1)%uint64(*traceSample) == 0
				if traced {
					reqHdr = map[string]string{server.TraceHeader: "1"}
				}
				q0 := time.Now()
				code, body, respHdr, err := doJSONHdr(client, "POST", url,
					map[string]any{"s": p[0], "t": p[1]}, reqHdr)
				lat := time.Since(q0)
				if traced && err == nil && code == http.StatusOK {
					if raw := respHdr.Get(server.TraceHeader); raw != "" {
						var td obs.TraceData
						if json.Unmarshal([]byte(raw), &td) == nil {
							mu.Lock()
							tracedCount++
							if lat > slowestLat {
								slowestLat, slowest = lat, td
							}
							mu.Unlock()
						}
					}
				}
				mu.Lock()
				if *reportWorkload && err == nil {
					offered++
					pairSent[p]++
				}
				if err != nil || code != http.StatusOK {
					errCount++
					if len(firstErrs) < 3 {
						firstErrs = append(firstErrs,
							fmt.Sprintf("query %v: code=%d err=%v body=%s", p, code, err, body))
					}
					mu.Unlock()
					continue
				}
				samples = append(samples, sample{lat: lat})
				mu.Unlock()
				if oracle != nil {
					if err := checkAnswer(body, oracle, p); err != nil {
						mu.Lock()
						mismatch++
						if len(firstErrs) < 3 {
							firstErrs = append(firstErrs, err.Error())
						}
						mu.Unlock()
					}
				}
			}
		}(w, perWorker)
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(samples, func(i, j int) bool { return samples[i].lat < samples[j].lat })
	quant := func(p float64) time.Duration {
		if len(samples) == 0 {
			return 0
		}
		i := int(p * float64(len(samples)))
		if i >= len(samples) {
			i = len(samples) - 1
		}
		return samples[i].lat
	}
	total := len(samples) + errCount
	infof("\n%d queries (%s mix, %d workers) in %s: %.0f q/s, %d errors\n",
		total, *mixName, *concurrency, elapsed.Round(time.Millisecond),
		float64(len(samples))/elapsed.Seconds(), errCount)
	infof("client latency: p50=%s p95=%s p99=%s max=%s\n",
		quant(0.50).Round(time.Microsecond), quant(0.95).Round(time.Microsecond),
		quant(0.99).Round(time.Microsecond), quant(1).Round(time.Microsecond))
	for _, e := range firstErrs {
		infof("  ! %s\n", e)
	}

	// Slowest traced request: where did the time go, server-side?
	var slowestTrace *obs.TraceData
	if *traceSample > 0 {
		if tracedCount == 0 {
			infof("trace: no traced responses (is the daemon running this build?)\n")
		} else {
			slowestTrace = &slowest
			var spanSum float64
			for _, sp := range slowest.Spans {
				spanSum += sp.DurUS
			}
			clientUS := float64(slowestLat) / float64(time.Microsecond)
			infof("trace: %d traced; slowest %s: client=%s server=%s spans[%s]\n",
				tracedCount, slowest.ID,
				slowestLat.Round(time.Microsecond),
				time.Duration(slowest.TotalUS*float64(time.Microsecond)).Round(time.Microsecond),
				slowest.SpanSummary())
			infof("trace: spans cover %.1f%% of server time, %.1f%% of client latency",
				100*spanSum/slowest.TotalUS, 100*spanSum/clientUS)
			if len(slowest.Attrs) > 0 {
				keys := make([]string, 0, len(slowest.Attrs))
				for k := range slowest.Attrs {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				infof("; ")
				for i, k := range keys {
					if i > 0 {
						infof(" ")
					}
					infof("%s=%v", k, slowest.Attrs[k])
				}
			}
			infof("\n")
		}
	}

	// Server-side counters: how many oracle calls did the executor make
	// (mean batch size reads 1 for single queries), did the cache absorb
	// the hot set?
	var serverStats any
	code, body, err := doJSON(client, "GET", *addr+"/stats", nil)
	if err == nil && code == http.StatusOK {
		var stats struct {
			Graphs map[string]struct {
				Requests      int64   `json:"requests"`
				CacheHits     int64   `json:"cache_hits"`
				Rejects       int64   `json:"rejects"`
				Batches       int64   `json:"batches"`
				MeanBatchSize float64 `json:"mean_batch_size"`
				Latency       struct {
					MeanUS float64 `json:"mean_us"`
					P99US  int64   `json:"p99_us"`
				} `json:"latency"`
			} `json:"graphs"`
		}
		if json.Unmarshal(body, &stats) == nil {
			if g, ok := stats.Graphs[id]; ok {
				infof("server: %d requests, %d batches (mean size %.2f), %d cache hits, %d rejects, service p99=%dµs\n",
					g.Requests, g.Batches, g.MeanBatchSize, g.CacheHits, g.Rejects, g.Latency.P99US)
				serverStats = g
			}
		}
	}

	// -report-workload: cross-check the server's analytics against the
	// load this process just generated. Runs after the summary is
	// assembled so the snapshot can ride along in -json output; the
	// verdict (and exit) happens below, after the JSON is emitted.
	var afterWL *obs.WorkloadSnapshot
	var workloadErr error
	if *reportWorkload {
		snap, ok, err := fetchWorkload(client, *addr, id)
		if err == nil && !ok {
			err = fmt.Errorf("graph %s missing from /debug/workload", id)
		}
		var afterReq int64
		if err == nil {
			afterReq, err = fetchRequests(client, *addr, id)
		}
		if err != nil {
			fatal(fmt.Errorf("report-workload: %w", err))
		}
		afterWL = &snap
		workloadErr = checkWorkload(beforeWL, snap, afterReq-beforeReq, pairSent, offered)
		if workloadErr == nil {
			infof("workload: server analytics match the generated load (%d offered, %d distinct pairs, sketch total %d)\n",
				offered, len(pairSent), snap.TotalPairs)
		}
	}

	// -report-quality: let the daemon's background auditor drain the
	// samples it took from this run's traffic, then assert every served
	// answer it re-checked was exact. The verdict (and exit) happens
	// below, after the JSON is emitted.
	var quality *qualityBlock
	var qualityErr error
	if *reportQuality {
		afterQ, err := awaitQuality(client, *addr, id, beforeQ)
		if err != nil {
			fatal(fmt.Errorf("report-quality: %w", err))
		}
		quality = &qualityBlock{
			SamplesAudited: afterQ.Audited - beforeQ.Audited,
			Violations:     afterQ.Violations - beforeQ.Violations,
		}
		switch {
		case quality.Violations > 0:
			qualityErr = fmt.Errorf("auditor flagged %d answer(s) that differ from an exact recomputation during this run; see GET /debug/quality?graph=%s for the evidence ring",
				quality.Violations, id)
		case quality.SamplesAudited == 0:
			infof("quality: no samples audited this run (sampling stride above the request count and no traced requests?) — nothing to assert\n")
		default:
			infof("quality: %d answers shadow re-checked, 0 violations\n", quality.SamplesAudited)
		}
	}

	if *jsonOut {
		sum := jsonSummary{
			Graph: id, N: info.N, M: info.M, Mix: *mixName,
			Concurrency: *concurrency, Requests: total, Errors: errCount,
			ElapsedMS: float64(elapsed.Microseconds()) / 1000,
			QPS:       float64(len(samples)) / elapsed.Seconds(),
			P50US:     quant(0.50).Microseconds(), P95US: quant(0.95).Microseconds(),
			P99US: quant(0.99).Microseconds(), MaxUS: quant(1).Microseconds(),
			Verified: oracle != nil && mismatch == 0, Mismatches: mismatch,
			Mutations: mutations, Server: serverStats,
			SlowestTrace: slowestTrace,
			Workload:     afterWL,
			Quality:      quality,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			fatal(err)
		}
	}

	if oracle != nil {
		if mismatch > 0 {
			fatal(fmt.Errorf("%d answers differed from the serial oracle", mismatch))
		}
		infof("verify: all %d answers bit-identical to serial DistanceOracle.Query\n", len(samples))
	}
	if workloadErr != nil {
		if errCount > 0 {
			// Transport errors mean the client cannot know which requests
			// reached the executor; the delta assertions are ambiguous,
			// so report without failing on their account.
			infof("workload: check inconclusive (%d transport errors): %v\n", errCount, workloadErr)
		} else {
			fatal(fmt.Errorf("report-workload: %w", workloadErr))
		}
	}
	if qualityErr != nil {
		// A violation is a server correctness alarm, never a
		// load-generation artifact: the auditor compared a served answer
		// against its own exact recomputation, so transport errors on
		// this side cannot excuse it.
		fatal(fmt.Errorf("report-quality: %w", qualityErr))
	}
	if errCount > 0 {
		os.Exit(1)
	}
}

// fetchQuality fetches one graph's /debug/quality audit state; ok is
// false when the server has nothing for the graph.
func fetchQuality(client *http.Client, addr, id string) (obs.AuditGraphSnapshot, bool, error) {
	code, body, err := doJSON(client, "GET", addr+"/debug/quality?graph="+id, nil)
	if err != nil {
		return obs.AuditGraphSnapshot{}, false, err
	}
	if code == http.StatusNotFound {
		return obs.AuditGraphSnapshot{}, false, nil
	}
	if code != http.StatusOK {
		return obs.AuditGraphSnapshot{}, false, fmt.Errorf("GET /debug/quality: %d: %s", code, body)
	}
	var resp struct {
		Graphs []obs.AuditGraphSnapshot `json:"graphs"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return obs.AuditGraphSnapshot{}, false, err
	}
	for _, g := range resp.Graphs {
		if g.Graph == id {
			return g, true, nil
		}
	}
	return obs.AuditGraphSnapshot{}, false, nil
}

// awaitQuality polls /debug/quality until the auditor has drained
// every sample it accepted (each one audited, dropped, or skipped) or
// a deadline passes — audits run on background workers, so the
// counters lag the traffic that fed them.
func awaitQuality(client *http.Client, addr, id string, before obs.AuditGraphSnapshot) (obs.AuditGraphSnapshot, error) {
	deadline := time.Now().Add(15 * time.Second)
	for {
		snap, ok, err := fetchQuality(client, addr, id)
		if err != nil {
			return snap, err
		}
		if !ok {
			return snap, fmt.Errorf("graph %s missing from /debug/quality", id)
		}
		settled := snap.Audited + snap.Dropped + snap.BudgetSkips + snap.StaleSkips + snap.Errors
		if settled >= snap.Sampled || time.Now().After(deadline) {
			return snap, nil
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// fetchWorkload fetches one graph's /debug/workload analytics with the
// full sketch (k=0); ok is false when the server has nothing for the
// graph yet.
func fetchWorkload(client *http.Client, addr, id string) (obs.WorkloadSnapshot, bool, error) {
	code, body, err := doJSON(client, "GET", addr+"/debug/workload?k=0&graph="+id, nil)
	if err != nil {
		return obs.WorkloadSnapshot{}, false, err
	}
	if code == http.StatusNotFound {
		return obs.WorkloadSnapshot{}, false, nil
	}
	if code != http.StatusOK {
		return obs.WorkloadSnapshot{}, false, fmt.Errorf("GET /debug/workload: %d: %s", code, body)
	}
	var resp struct {
		Graphs map[string]obs.WorkloadSnapshot `json:"graphs"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return obs.WorkloadSnapshot{}, false, err
	}
	snap, ok := resp.Graphs[id]
	return snap, ok, nil
}

// fetchRequests reads one graph's /stats request counter: single
// queries counted at executor entry.
func fetchRequests(client *http.Client, addr, id string) (int64, error) {
	code, body, err := doJSON(client, "GET", addr+"/stats", nil)
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("GET /stats: %d: %s", code, body)
	}
	var resp struct {
		Graphs map[string]struct {
			Requests int64 `json:"requests"`
		} `json:"graphs"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, err
	}
	g, ok := resp.Graphs[id]
	if !ok {
		return 0, fmt.Errorf("graph %s missing from /stats", id)
	}
	return g.Requests, nil
}

// checkWorkload asserts the server's analytics deltas across the read
// phase match the load this run generated:
//
//   - the /stats request counter advanced by exactly the offered
//     requests (reqDelta; the executor counts demand at entry — cache
//     hits, rejects, and failures included);
//   - the heavy-hitter sketch's observation total advanced by the
//     same amount;
//   - every sketch entry the server reports as exact (err == 0) on a
//     previously idle graph carries precisely the count this run sent
//     for that pair (the space-saving sketch's exactness guarantee);
//   - every pair this run sent more often than the sketch's minimum
//     retained count is present in the sketch (its admission
//     guarantee: an evicted key's true count cannot exceed the
//     minimum).
//
// On a graph that already carried traffic (before.TotalPairs > 0) the
// per-pair checks weaken to lower bounds, since the baseline snapshot
// only exposes the sketch's top entries, not every historical pair.
func checkWorkload(before, after obs.WorkloadSnapshot, reqDelta int64, sent map[[2]graph.V]int64, offered int64) error {
	var problems []string
	if reqDelta != offered {
		problems = append(problems,
			fmt.Sprintf("requests: server counter advanced by %d, client offered %d", reqDelta, offered))
	}
	if d := int64(after.TotalPairs) - int64(before.TotalPairs); d != offered {
		problems = append(problems,
			fmt.Sprintf("sketch: observation total advanced by %d, client offered %d", d, offered))
	}

	fresh := before.TotalPairs == 0
	var minCount uint64
	exact, inexact := 0, 0
	for i, tp := range after.TopPairs {
		if i == 0 || tp.Count < minCount {
			minCount = tp.Count
		}
		ours := sent[[2]graph.V{graph.V(tp.S), graph.V(tp.T)}]
		if tp.Err != 0 {
			inexact++
			continue
		}
		exact++
		switch {
		case fresh && tp.Count != uint64(ours):
			problems = append(problems,
				fmt.Sprintf("pair (%d,%d): server exact count %d, client sent %d", tp.S, tp.T, tp.Count, ours))
		case !fresh && tp.Count < uint64(ours):
			problems = append(problems,
				fmt.Sprintf("pair (%d,%d): server cumulative count %d below the %d this run sent", tp.S, tp.T, tp.Count, ours))
		}
	}
	if fresh {
		// Admission check: a key absent from the sketch has a true count
		// no larger than the smallest retained count, so any hotter pair
		// we sent must have been kept.
		inSketch := make(map[[2]graph.V]bool, len(after.TopPairs))
		for _, tp := range after.TopPairs {
			inSketch[[2]graph.V{graph.V(tp.S), graph.V(tp.T)}] = true
		}
		for p, n := range sent {
			if uint64(n) > minCount && !inSketch[p] {
				problems = append(problems,
					fmt.Sprintf("hot pair (%d,%d): sent %d times (> sketch minimum %d) but missing from the sketch", p[0], p[1], n, minCount))
			}
		}
	}
	infof("workload: sketch holds %d pairs (%d exact, %d approximate), %d requests this run\n",
		len(after.TopPairs), exact, inexact, reqDelta)
	if len(problems) > 0 {
		if len(problems) > 5 {
			problems = append(problems[:5], fmt.Sprintf("... and %d more", len(problems)-5))
		}
		return fmt.Errorf("server analytics disagree with the generated load:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}

type mutationConfig struct {
	seed      uint64
	batches   int
	batchSize int
	mix       string
	maxW      int64
}

// runMutations drives the mutation phase: deterministic batches from
// workload.Mutator through POST /graphs/{id}/edges, asserting the
// generation advances by exactly one per mutation. With a replica
// (-verify), every batch is replayed locally, pre-rebuild answers are
// spot-checked against the replica's overlay path, and finally both
// sides force a rebuild so the read phase verifies against one
// compacted generation. The returned bool reports whether bit-exact
// verification remains sound: if the server's policy triggered a
// rebuild MID-phase, its final oracle was materialized through an
// intermediate swap — graph materialization is path-dependent (edge
// order differs across swap points), so the replica's single-shot
// materialization is not CSR-identical and the read phase must fall
// back to unverified measurement.
func runMutations(client *http.Client, addr, id string, g *graph.Graph, cfg mutationConfig, replica *spanhop.DynamicOracle) (verifiable bool, total int, err error) {
	mut, err := workload.NewMutator(g, cfg.mix, cfg.maxW, cfg.seed^0xD15EA5E)
	if err != nil {
		return false, 0, err
	}
	dynOf := func() (*server.DynamicInfo, error) {
		code, body, err := doJSON(client, "GET", addr+"/graphs/"+id, nil)
		if err != nil {
			return nil, err
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("GET /graphs/%s: %d: %s", id, code, body)
		}
		var info server.Info
		if err := json.Unmarshal(body, &info); err != nil {
			return nil, err
		}
		if info.Dynamic == nil {
			return nil, fmt.Errorf("graph %s reports no dynamic state", id)
		}
		return info.Dynamic, nil
	}
	dyn, err := dynOf()
	if err != nil {
		return false, total, err
	}
	lastGen := dyn.Generation

	url := fmt.Sprintf("%s/graphs/%s/edges", addr, id)
	start := time.Now()
	for b := 0; b < cfg.batches; b++ {
		ups := mut.Batch(cfg.batchSize)
		if len(ups) == 0 {
			infof("mutate: %s mix ran dry after %d batches\n", cfg.mix, b)
			break
		}
		wire := make([]map[string]any, len(ups))
		for i, u := range ups {
			wire[i] = map[string]any{"op": u.Op.String(), "u": u.U, "v": u.V}
			if u.Op != spanhop.UpdateDelete {
				wire[i]["w"] = u.W
			}
		}
		code, body, err := doJSON(client, "POST", url, map[string]any{"updates": wire})
		if err != nil {
			return false, total, err
		}
		if code != http.StatusOK {
			return false, total, fmt.Errorf("POST /graphs/%s/edges: %d: %s", id, code, body)
		}
		var resp struct {
			Applied    int    `json:"applied"`
			Generation uint64 `json:"generation"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return false, total, err
		}
		if resp.Applied != len(ups) || resp.Generation != lastGen+uint64(len(ups)) {
			return false, total, fmt.Errorf("batch %d: applied %d at generation %d, want %d at %d",
				b, resp.Applied, resp.Generation, len(ups), lastGen+uint64(len(ups)))
		}
		lastGen = resp.Generation
		total += len(ups)
		if replica != nil {
			if _, err := replica.ApplyUpdates(ups); err != nil {
				return false, total, fmt.Errorf("local replay: %w", err)
			}
		}
	}
	infof("mutate: %d mutations in %d batches (%s mix) in %s; server generation %d\n",
		total, cfg.batches, cfg.mix, time.Since(start).Round(time.Millisecond), lastGen)
	if replica == nil {
		return true, total, nil
	}

	// Overlay-phase spot check: only sound while the server has not
	// folded any of the journal into a rebuilt oracle (no mutations
	// will land from here on, so rebuild state is stable once idle).
	dyn, err = dynOf()
	if err != nil {
		return false, total, err
	}
	if dyn.Rebuilds > 0 || dyn.RebuildRunning {
		// The server's policy rebuilt mid-phase: its oracle was
		// materialized through an intermediate swap, which the
		// single-shot replica cannot reproduce CSR-identically.
		infof("mutate: server auto-rebuilt mid-phase; bit-exact verification disabled for this run (raise the daemon's rebuild thresholds or lower -mutate to restore it)\n")
		return false, total, nil
	}
	mix := workload.UniformMix(g.NumVertices(), cfg.seed^0x0fface)
	for i := 0; i < 25; i++ {
		p := mix.Next()
		if err := verifyOne(client, addr, id, replica, p); err != nil {
			return false, total, fmt.Errorf("overlay verify: %w", err)
		}
	}
	infof("mutate: 25 overlay answers bit-identical to the local replica\n")

	// Force both sides to the same compacted generation for the read
	// phase: the server folds its journal synchronously, the replica
	// follows, and afterwards both answer from a from-scratch oracle
	// on the identical mutated graph and seed.
	code, body, err := doJSON(client, "POST", addr+"/graphs/"+id+"/rebuild", nil)
	if err != nil {
		return false, total, err
	}
	if code != http.StatusOK {
		return false, total, fmt.Errorf("POST /graphs/%s/rebuild: %d: %s", id, code, body)
	}
	if err := replica.ForceRebuild(context.Background()); err != nil {
		return false, total, err
	}
	infof("mutate: server and replica rebuilt at the same generation\n")
	return true, total, nil
}

// verifyOne compares one server answer against the local reference.
func verifyOne(client *http.Client, addr, id string, oracle reference, p [2]graph.V) error {
	code, body, err := doJSON(client, "POST", fmt.Sprintf("%s/graphs/%s/query", addr, id),
		map[string]any{"s": p[0], "t": p[1]})
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("query %v: %d: %s", p, code, body)
	}
	return checkAnswer(body, oracle, p)
}

// reference is the -verify oracle: a static DistanceOracle, or a
// DynamicOracle replica once -mutate is in play.
type reference interface {
	Query(s, t graph.V) (graph.Dist, error)
}

// checkAnswer compares one query response body against the local
// reference: the same distance, or both unreachable.
func checkAnswer(body []byte, oracle reference, p [2]graph.V) error {
	var got struct {
		Dist        graph.Dist `json:"dist"`
		Unreachable bool       `json:"unreachable"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	want, err := oracle.Query(p[0], p[1])
	if err != nil {
		return err
	}
	wantUnreachable := want == graph.InfDist
	if wantUnreachable {
		want = 0
	}
	if got.Dist != want || got.Unreachable != wantUnreachable {
		return fmt.Errorf("query %v: server %d/%v, local %d/%v", p, got.Dist, got.Unreachable, want, wantUnreachable)
	}
	return nil
}

// doJSON sends one JSON request and returns (status, body, error).
func doJSON(client *http.Client, method, url string, payload any) (int, []byte, error) {
	code, body, _, err := doJSONHdr(client, method, url, payload, nil)
	return code, body, err
}

// doJSONHdr is doJSON with extra request headers and the response
// headers returned — the -trace-sample path needs both sides of the
// X-Spanhop-Trace exchange.
func doJSONHdr(client *http.Client, method, url string, payload any, hdr map[string]string) (int, []byte, http.Header, error) {
	var buf bytes.Buffer
	if payload != nil {
		if err := json.NewEncoder(&buf).Encode(payload); err != nil {
			return 0, nil, nil, err
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, resp.Header, err
}

// waitReady polls the graph until its build finishes.
func waitReady(client *http.Client, addr, id string, timeout time.Duration) server.Info {
	deadline := time.Now().Add(timeout)
	for {
		code, body, err := doJSON(client, "GET", addr+"/graphs/"+id, nil)
		if err != nil {
			fatal(err)
		}
		if code != http.StatusOK {
			fatal(fmt.Errorf("GET /graphs/%s: %d: %s", id, code, body))
		}
		var info server.Info
		if err := json.Unmarshal(body, &info); err != nil {
			fatal(err)
		}
		switch info.State {
		case server.StateReady:
			return info
		case server.StateFailed:
			fatal(fmt.Errorf("build of %s failed: %s", id, info.Error))
		}
		if time.Now().After(deadline) {
			fatal(fmt.Errorf("graph %s not ready after %s", id, timeout))
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}

// progress receives all human-facing output; -json redirects it to
// stderr so stdout stays machine-readable.
var progress io.Writer = os.Stdout

func infof(format string, args ...any) {
	fmt.Fprintf(progress, format, args...)
}

// jsonSummary is the -json stdout shape: client-side throughput and
// latency plus the server's own counters, one object per run.
type jsonSummary struct {
	Graph       string  `json:"graph"`
	N           int32   `json:"n"`
	M           int64   `json:"m"`
	Mix         string  `json:"mix"`
	Concurrency int     `json:"concurrency"`
	Requests    int     `json:"requests"`
	Errors      int     `json:"errors"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	QPS         float64 `json:"qps"`
	P50US       int64   `json:"p50_us"`
	P95US       int64   `json:"p95_us"`
	P99US       int64   `json:"p99_us"`
	MaxUS       int64   `json:"max_us"`
	Verified    bool    `json:"verified"`
	Mismatches  int     `json:"mismatches"`
	Mutations   int     `json:"mutations,omitempty"`
	Server      any     `json:"server,omitempty"`
	// SlowestTrace is the server-side span breakdown of the slowest
	// traced request (with -trace-sample).
	SlowestTrace *obs.TraceData `json:"slowest_trace,omitempty"`
	// Workload is the server's post-run /debug/workload snapshot for
	// the queried graph (with -report-workload).
	Workload *obs.WorkloadSnapshot `json:"workload,omitempty"`
	// Quality is the answer auditor's verdict on this run's sampled
	// traffic (with -report-quality).
	Quality *qualityBlock `json:"quality,omitempty"`
}

// qualityBlock is the -json "quality" member: the run's delta of the
// server's answer-audit counters.
type qualityBlock struct {
	SamplesAudited int64 `json:"samples_audited"`
	Violations     int64 `json:"violations"`
}
