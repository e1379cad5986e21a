package obs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fixedRecheck returns a RecheckFunc answering a constant exact
// distance (or error) regardless of the query.
func fixedRecheck(exact int64, unreach bool, err error) RecheckFunc {
	return func(gen uint64, s, t int32) (int64, bool, error) {
		return exact, unreach, err
	}
}

// awaitAudit polls until the graph's audit pipeline has fully drained
// n offered samples (audited, skipped, or errored).
func awaitAudit(t *testing.T, a *Auditor, graph string, n int64) AuditGraphSnapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, ok := a.GraphSnapshot(graph)
		if ok && snap.Audited+snap.BudgetSkips+snap.StaleSkips+snap.Errors >= n {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("audit pipeline did not drain %d samples: %+v", n, snap)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func newTestAuditor(t *testing.T, opts AuditorOptions) *Auditor {
	t.Helper()
	if opts.CPUFrac == 0 {
		opts.CPUFrac = -1 // tests want deterministic audits, not budget skips
	}
	a := NewAuditor(opts)
	t.Cleanup(a.Close)
	return a
}

func TestAuditorCleanAnswer(t *testing.T) {
	a := newTestAuditor(t, AuditorOptions{SampleEvery: 1})
	a.Register("g", fixedRecheck(100, false, nil))
	if !a.Offer(AuditSample{Graph: "g", S: 1, T: 2, Answer: 100, Regime: "clean", Gen: 0}) {
		t.Fatal("Offer rejected")
	}
	snap := awaitAudit(t, a, "g", 1)
	if snap.Audited != 1 || snap.Violations != 0 {
		t.Fatalf("audited=%d violations=%d, want 1/0", snap.Audited, snap.Violations)
	}
	want := []AuditRegimeSnapshot{{Regime: "clean", Count: 1}}
	if len(snap.Regimes) != 1 || snap.Regimes[0] != want[0] {
		t.Fatalf("regimes = %+v, want %+v", snap.Regimes, want)
	}
	if len(snap.Evidence) != 0 {
		t.Fatalf("clean audit left evidence: %+v", snap.Evidence)
	}
}

// checkExactness offers one answer against an exact distance of 100 in
// the given overlay regime and checks the outcome: a reachable answer
// other than the exact distance, above or below it, is an
// exact-mismatch violation with its evidence, event and trace verdict;
// the exact answer is not.
func checkExactness(t *testing.T, regime string, served int64) {
	t.Helper()
	bad := served != 100
	events := NewEvents()
	ring := NewRing(8)
	ring.Add(TraceData{ID: "tr-1"})
	a := newTestAuditor(t, AuditorOptions{SampleEvery: 1, Events: events, Traces: ring})
	a.Register("g", fixedRecheck(100, false, nil))
	a.Offer(AuditSample{Graph: "g", S: 3, T: 4, Answer: served,
		Regime: regime, Gen: 7, TraceID: "tr-1"})
	snap := awaitAudit(t, a, "g", 1)
	var violations int64
	verdict := "ok"
	if bad {
		violations, verdict = 1, "violation"
	}
	row := AuditRegimeSnapshot{Regime: regime, Count: 1, Violations: violations}
	if snap.Violations != violations || len(snap.Regimes) != 1 || snap.Regimes[0] != row {
		t.Fatalf("violations = %d, regimes = %+v, want %d and %+v",
			snap.Violations, snap.Regimes, violations, row)
	}
	if got := events.Get("quality_violation"); got != violations {
		t.Fatalf("quality_violation event count = %d, want %d", got, violations)
	}
	// The finished trace carries the audit outcome.
	tds := ring.Snapshot()
	if len(tds) != 1 || tds[0].Attrs["audit"] != verdict {
		t.Fatalf("trace attrs = %+v, want audit=%s", tds[0].Attrs, verdict)
	}
	if !bad {
		if len(snap.Evidence) != 0 {
			t.Fatalf("exact answer left evidence: %+v", snap.Evidence)
		}
		return
	}
	if tds[0].Attrs["audit_reason"] != ReasonExactMismatch {
		t.Fatalf("trace attrs = %+v, want audit_reason=%s", tds[0].Attrs, ReasonExactMismatch)
	}
	want := AuditEvidence{S: 3, T: 4, Gen: 7, Regime: regime, Served: served,
		Exact: 100, TraceID: "tr-1", Reason: ReasonExactMismatch}
	if len(snap.Evidence) != 1 {
		t.Fatalf("evidence = %+v, want one entry", snap.Evidence)
	}
	ev := snap.Evidence[0]
	ev.Time = time.Time{}
	if ev != want {
		t.Fatalf("evidence = %+v, want %+v", ev, want)
	}
}

// TestAuditorEnvelopeViolation: a clean answer above the exact distance
// is an exact-mismatch violation, however close to it.
func TestAuditorEnvelopeViolation(t *testing.T) {
	for _, served := range []int64{101, 200} {
		t.Run(fmt.Sprintf("served=%d", served), func(t *testing.T) {
			checkExactness(t, "clean", served)
		})
	}
}

// TestAuditorBelowEnvelope: a clean answer below the exact distance is
// an exact-mismatch violation too; there is no separate below reason.
func TestAuditorBelowEnvelope(t *testing.T) {
	for _, served := range []int64{99, 1} {
		t.Run(fmt.Sprintf("served=%d", served), func(t *testing.T) {
			checkExactness(t, "clean", served)
		})
	}
}

// TestAuditorDegradingRequiresExactness: the degrading serving path is
// held to the same equality as the clean one.
func TestAuditorDegradingRequiresExactness(t *testing.T) {
	for _, served := range []int64{101, 99, 200, 1, 100} {
		t.Run(fmt.Sprintf("served=%d", served), func(t *testing.T) {
			checkExactness(t, "degrading", served)
		})
	}
}

func TestAuditorUnreachableMismatch(t *testing.T) {
	a := newTestAuditor(t, AuditorOptions{SampleEvery: 1})
	a.Register("g", fixedRecheck(100, false, nil))
	a.Offer(AuditSample{Graph: "g", Answer: 1 << 60, Unreachable: true, Regime: "clean"})
	snap := awaitAudit(t, a, "g", 1)
	if snap.Violations != 1 || len(snap.Evidence) != 1 {
		t.Fatalf("snapshot = %+v, want one violation", snap)
	}
	if ev := snap.Evidence[0]; ev.Reason != ReasonUnreachableMismatch {
		t.Fatalf("evidence = %+v, want unreachable-mismatch", ev)
	}
	want := AuditRegimeSnapshot{Regime: "clean", Count: 1, Violations: 1}
	if len(snap.Regimes) != 1 || snap.Regimes[0] != want {
		t.Fatalf("regimes = %+v, want %+v", snap.Regimes, want)
	}
}

func TestAuditorBothUnreachableOK(t *testing.T) {
	a := newTestAuditor(t, AuditorOptions{SampleEvery: 1})
	a.Register("g", fixedRecheck(0, true, nil))
	a.Offer(AuditSample{Graph: "g", Answer: 1 << 60, Unreachable: true, Regime: "clean"})
	snap := awaitAudit(t, a, "g", 1)
	if snap.Violations != 0 {
		t.Fatalf("violations = %d; agreeing on disconnection is not a violation", snap.Violations)
	}
	if want := (AuditRegimeSnapshot{Regime: "clean", Count: 1}); snap.Regimes[0] != want {
		t.Fatalf("regime row = %+v, want %+v", snap.Regimes[0], want)
	}
}

func TestAuditorStaleSkip(t *testing.T) {
	a := newTestAuditor(t, AuditorOptions{SampleEvery: 1})
	a.Register("g", fixedRecheck(0, false, fmt.Errorf("wrapped: %w", ErrAuditStale)))
	a.Offer(AuditSample{Graph: "g", Answer: 10, Regime: "clean"})
	snap := awaitAudit(t, a, "g", 1)
	if snap.StaleSkips != 1 || snap.Audited != 0 || snap.Violations != 0 || snap.Errors != 0 {
		t.Fatalf("snapshot = %+v, want one stale skip and nothing else", snap)
	}
}

func TestAuditorRecheckError(t *testing.T) {
	a := newTestAuditor(t, AuditorOptions{SampleEvery: 1})
	a.Register("g", fixedRecheck(0, false, errors.New("boom")))
	a.Offer(AuditSample{Graph: "g", Answer: 10, Regime: "clean"})
	snap := awaitAudit(t, a, "g", 1)
	if snap.Errors != 1 || snap.Violations != 0 {
		t.Fatalf("snapshot = %+v, want one error, no violations", snap)
	}
}

func TestAuditorBudgetSkip(t *testing.T) {
	a := newTestAuditor(t, AuditorOptions{SampleEvery: 1, CPUFrac: 0.01})
	a.Register("g", fixedRecheck(100, false, nil))
	// White-box: pretend past audits already burned an hour of CPU, so
	// any budget fraction of the wall time since Register is exceeded.
	g := a.graph("g")
	g.mu.Lock()
	g.cpuNS = int64(time.Hour)
	g.mu.Unlock()
	time.Sleep(time.Millisecond) // ensure elapsed wall > 0
	a.Offer(AuditSample{Graph: "g", Answer: 100, Regime: "clean"})
	snap := awaitAudit(t, a, "g", 1)
	if snap.BudgetSkips != 1 || snap.Audited != 0 {
		t.Fatalf("snapshot = %+v, want one budget skip, zero audits", snap)
	}
}

func TestAuditorEvidenceRingBounded(t *testing.T) {
	a := newTestAuditor(t, AuditorOptions{SampleEvery: 1, Evidence: 2, Workers: 1})
	a.Register("g", fixedRecheck(100, false, nil))
	// Three violations with distinct served values; a single worker
	// audits them in offer order.
	for i, served := range []int64{200, 300, 400} {
		a.Offer(AuditSample{Graph: "g", S: int32(i), Answer: served, Regime: "clean"})
	}
	snap := awaitAudit(t, a, "g", 3)
	if snap.Violations != 3 {
		t.Fatalf("violations = %d, want 3", snap.Violations)
	}
	if len(snap.Evidence) != 2 {
		t.Fatalf("evidence holds %d entries, want cap 2", len(snap.Evidence))
	}
	// Newest first: the 400 then the 300; the 200 was evicted.
	if snap.Evidence[0].Served != 400 || snap.Evidence[1].Served != 300 {
		t.Fatalf("evidence order = [%d, %d], want [400, 300]",
			snap.Evidence[0].Served, snap.Evidence[1].Served)
	}
}

func TestAuditorDropOldest(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 16)
	a := newTestAuditor(t, AuditorOptions{SampleEvery: 1, Queue: 2, Workers: 1})
	a.Register("g", func(gen uint64, s, t int32) (int64, bool, error) {
		started <- struct{}{}
		<-block
		return 100, false, nil
	})
	defer close(block)
	// First sample occupies the worker; wait until its recheck started
	// so the next two deterministically sit in the queue.
	a.Offer(AuditSample{Graph: "g", S: 0, Answer: 100, Regime: "clean"})
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up the first sample")
	}
	a.Offer(AuditSample{Graph: "g", S: 1, Answer: 100, Regime: "clean"})
	a.Offer(AuditSample{Graph: "g", S: 2, Answer: 100, Regime: "clean"})
	// Queue full: this evicts the oldest queued sample, never blocks.
	if !a.Offer(AuditSample{Graph: "g", S: 3, Answer: 100, Regime: "clean"}) {
		t.Fatal("Offer blocked or rejected instead of dropping oldest")
	}
	snap, _ := a.GraphSnapshot("g")
	if snap.Sampled != 4 || snap.Dropped != 1 {
		t.Fatalf("sampled=%d dropped=%d, want 4/1", snap.Sampled, snap.Dropped)
	}
}

// TestAuditorDrain: Drain returns at once on an idle auditor, waits
// while a recheck is blocked (returning ctx's error when ctx ends
// first), and returns nil once every accepted sample is audited or
// dropped; after Close with samples still queued it reports
// ErrAuditorClosed.
func TestAuditorDrain(t *testing.T) {
	block := make(chan struct{})
	a := newTestAuditor(t, AuditorOptions{SampleEvery: 1, Queue: 2, Workers: 1})
	if err := a.Drain(context.Background()); err != nil {
		t.Fatalf("Drain on an idle auditor = %v", err)
	}
	a.Register("g", func(gen uint64, s, t int32) (int64, bool, error) {
		<-block
		return 100, false, nil
	})
	for i := int32(0); i < 4; i++ {
		a.Offer(AuditSample{Graph: "g", S: i, Answer: 100, Regime: "clean"})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := a.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with a blocked recheck = %v, want deadline exceeded", err)
	}
	close(block)
	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.Drain(ctx); err != nil {
		t.Fatalf("Drain = %v", err)
	}
	snap, _ := a.GraphSnapshot("g")
	if snap.Sampled != 4 || snap.Audited+snap.Dropped != 4 || snap.Dropped == 0 {
		t.Fatalf("after Drain: sampled=%d audited=%d dropped=%d, want 4 = audited + dropped, some dropped",
			snap.Sampled, snap.Audited, snap.Dropped)
	}

	stuck := make(chan struct{})
	b := NewAuditor(AuditorOptions{SampleEvery: 1, CPUFrac: -1, Workers: 1})
	b.Register("g", func(gen uint64, s, t int32) (int64, bool, error) {
		<-stuck
		return 100, false, nil
	})
	b.Offer(AuditSample{Graph: "g", Answer: 100, Regime: "clean"})
	b.Offer(AuditSample{Graph: "g", Answer: 100, Regime: "clean"})
	closed := make(chan struct{})
	go func() { b.Close(); close(closed) }()
	if err := b.Drain(ctx); !errors.Is(err, ErrAuditorClosed) {
		t.Fatalf("Drain on a closing auditor = %v, want ErrAuditorClosed", err)
	}
	close(stuck)
	<-closed
}

// TestAuditorDrainConcurrentOffers: four goroutines offer through a
// small queue (so samples are evicted and rejected) while a fifth
// drains repeatedly; once the offers end, one Drain settles every
// accepted sample and the pending count is back at zero.
func TestAuditorDrainConcurrentOffers(t *testing.T) {
	a := newTestAuditor(t, AuditorOptions{SampleEvery: 1, Queue: 4, Workers: 2})
	a.Register("g", fixedRecheck(100, false, nil))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var offers sync.WaitGroup
	for w := 0; w < 4; w++ {
		offers.Add(1)
		go func() {
			defer offers.Done()
			for i := 0; i < 200; i++ {
				a.Offer(AuditSample{Graph: "g", S: int32(i), Answer: 100, Regime: "clean"})
			}
		}()
	}
	stop := make(chan struct{})
	drained := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				drained <- nil
				return
			default:
			}
			if err := a.Drain(ctx); err != nil {
				drained <- err
				return
			}
		}
	}()
	offers.Wait()
	close(stop)
	if err := <-drained; err != nil {
		t.Fatalf("concurrent Drain = %v", err)
	}
	if err := a.Drain(ctx); err != nil {
		t.Fatalf("Drain = %v", err)
	}
	snap, _ := a.GraphSnapshot("g")
	if snap.Audited+snap.Dropped < snap.Sampled || snap.Audited == 0 {
		t.Fatalf("after Drain: sampled=%d audited=%d dropped=%d", snap.Sampled, snap.Audited, snap.Dropped)
	}
	a.pendMu.Lock()
	pending := a.pending
	a.pendMu.Unlock()
	if pending != 0 {
		t.Fatalf("pending = %d after Drain, want 0", pending)
	}
}

func TestAuditorOfferUnregistered(t *testing.T) {
	a := newTestAuditor(t, AuditorOptions{SampleEvery: 1})
	if a.Offer(AuditSample{Graph: "nope", Answer: 1}) {
		t.Fatal("Offer accepted a sample for an unregistered graph")
	}
	a.Register("g", fixedRecheck(1, false, nil))
	a.Forget("g")
	if a.Offer(AuditSample{Graph: "g", Answer: 1}) {
		t.Fatal("Offer accepted a sample for a forgotten graph")
	}
	if _, ok := a.GraphSnapshot("g"); ok {
		t.Fatal("GraphSnapshot found a forgotten graph")
	}
}

func TestAuditorRegisterRefreshPreservesCounters(t *testing.T) {
	a := newTestAuditor(t, AuditorOptions{SampleEvery: 1})
	a.Register("g", fixedRecheck(100, false, nil))
	a.Offer(AuditSample{Graph: "g", Answer: 100, Regime: "clean"})
	awaitAudit(t, a, "g", 1)
	// A re-registration refreshes the recheck hook in place.
	a.Register("g", fixedRecheck(50, false, nil))
	snap, ok := a.GraphSnapshot("g")
	if !ok || snap.Audited != 1 {
		t.Fatalf("refresh lost counters: %+v", snap)
	}
	a.Offer(AuditSample{Graph: "g", Answer: 50, Regime: "clean"})
	if snap = awaitAudit(t, a, "g", 2); snap.Violations != 0 {
		t.Fatalf("refresh kept the stale recheck: %+v", snap)
	}
}

func TestAuditorSampleHit(t *testing.T) {
	a := newTestAuditor(t, AuditorOptions{SampleEvery: 4})
	hits := 0
	for i := 0; i < 16; i++ {
		if a.SampleHit() {
			hits++
		}
	}
	if hits != 4 {
		t.Fatalf("SampleHit fired %d/16 with stride 4, want 4", hits)
	}
	// Negative stride disables rate sampling entirely.
	d := newTestAuditor(t, AuditorOptions{SampleEvery: -1})
	for i := 0; i < 8; i++ {
		if d.SampleHit() {
			t.Fatal("disabled sampler reported a hit")
		}
	}
}

func TestAuditorNilSafe(t *testing.T) {
	var a *Auditor
	a.Register("g", fixedRecheck(1, false, nil))
	if a.Offer(AuditSample{Graph: "g"}) {
		t.Fatal("nil auditor accepted a sample")
	}
	if a.SampleHit() || a.SampleEvery() != 0 || a.CPUFrac() != 0 {
		t.Fatal("nil auditor reported active sampling")
	}
	if got := a.Snapshot(); got != nil {
		t.Fatalf("nil auditor snapshot = %+v", got)
	}
	if _, ok := a.GraphSnapshot("g"); ok {
		t.Fatal("nil auditor returned a graph snapshot")
	}
	a.Forget("g")
	a.Close()
}

func TestRingAnnotate(t *testing.T) {
	r := NewRing(2)
	r.Add(TraceData{ID: "a", Attrs: map[string]any{"k": 1}})
	before := r.Snapshot() // holds the original attrs map
	if !r.Annotate("a", "audit", "ok") {
		t.Fatal("Annotate missed a buffered trace")
	}
	after := r.Snapshot()
	if after[0].Attrs["audit"] != "ok" || after[0].Attrs["k"] != 1 {
		t.Fatalf("annotated attrs = %+v", after[0].Attrs)
	}
	// Copy-on-write: snapshots taken before the annotation keep their
	// consistent view.
	if _, leaked := before[0].Attrs["audit"]; leaked {
		t.Fatal("Annotate mutated a previously published attrs map")
	}
	if r.Annotate("gone", "k", "v") {
		t.Fatal("Annotate matched a trace that was never added")
	}
	r.Add(TraceData{ID: "b"})
	r.Add(TraceData{ID: "c"}) // evicts "a"
	if r.Annotate("a", "k", "v") {
		t.Fatal("Annotate matched an evicted trace")
	}
	// Across the wrap, a repeated id annotates only its newest copy.
	r.Add(TraceData{ID: "c"}) // evicts "b"; both slots hold "c"
	if !r.Annotate("c", "n", 2) {
		t.Fatal("Annotate missed a wrapped trace")
	}
	if got := r.Snapshot(); got[0].Attrs["n"] != 2 || got[1].Attrs["n"] != nil {
		t.Fatalf("annotated [%v, %v], want only the newest", got[0].Attrs, got[1].Attrs)
	}
	var nilRing *Ring
	if nilRing.Annotate("a", "k", "v") {
		t.Fatal("nil ring annotated")
	}
}

// TestRingAnnotateBeforeAdd: an audit verdict can beat the HTTP edge
// to the ring. The annotation parks until Add files its trace, the
// parking set stays bounded, and what overflows is counted.
func TestRingAnnotateBeforeAdd(t *testing.T) {
	r := NewRing(4)
	if r.Annotate("early", "audit", "ok") {
		t.Fatal("Annotate reported a trace that was never added")
	}
	r.Annotate("early", "audit_reason", ReasonExactMismatch)
	attrs := map[string]any{"k": 1}
	r.Add(TraceData{ID: "early", Attrs: attrs})
	got := r.Snapshot()[0].Attrs
	if got["audit"] != "ok" || got["audit_reason"] != ReasonExactMismatch || got["k"] != 1 {
		t.Fatalf("parked annotation not applied: %+v", got)
	}
	if _, leaked := attrs["audit"]; leaked {
		t.Fatal("Add mutated the caller's attrs map")
	}
	// Applied entries leave the parking set: filing the same id again
	// picks up nothing.
	r.Add(TraceData{ID: "early"})
	if _, ok := r.Snapshot()[0].Attrs["audit"]; ok {
		t.Fatal("parked annotation applied twice")
	}
	if d := r.DroppedAnnotations(); d != 0 {
		t.Fatalf("dropped = %d before any overflow", d)
	}

	// Overflow: the oldest parked entries go first, each one counted.
	const extra = 5
	for i := 0; i < maxPendingAnnotations+extra; i++ {
		r.Annotate(fmt.Sprintf("p%d", i), "audit", "ok")
	}
	if n := len(r.pending); n != maxPendingAnnotations {
		t.Fatalf("pending = %d, want the bound %d", n, maxPendingAnnotations)
	}
	if d := r.DroppedAnnotations(); d != extra {
		t.Fatalf("dropped = %d, want %d", d, extra)
	}
	r.Add(TraceData{ID: "p0"}) // evicted: lands unannotated
	if _, ok := r.Snapshot()[0].Attrs["audit"]; ok {
		t.Fatal("an evicted annotation was applied")
	}
	r.Add(TraceData{ID: fmt.Sprintf("p%d", extra)}) // oldest survivor
	if r.Snapshot()[0].Attrs["audit"] != "ok" {
		t.Fatal("a surviving parked annotation was lost")
	}
	var nilRing *Ring
	if nilRing.DroppedAnnotations() != 0 {
		t.Fatal("nil ring reports drops")
	}
}

// TestRingAnnotateRacesAdd: verdicts and trace filing race from
// separate goroutines, in either order; with fewer traces in flight
// than the parking bound, every verdict lands and none is dropped.
func TestRingAnnotateRacesAdd(t *testing.T) {
	const traces, inFlight = 400, 32
	r := NewRing(traces)
	sem := make(chan struct{}, inFlight)
	var wg sync.WaitGroup
	for i := 0; i < traces; i++ {
		id := fmt.Sprintf("t%d", i)
		sem <- struct{}{}
		var pair sync.WaitGroup
		pair.Add(2)
		go func() { defer pair.Done(); r.Annotate(id, "audit", "ok") }()
		go func() { defer pair.Done(); r.Add(TraceData{ID: id}) }()
		wg.Add(1)
		go func() { defer wg.Done(); pair.Wait(); <-sem }()
	}
	wg.Wait()
	for _, td := range r.Snapshot() {
		if td.Attrs["audit"] != "ok" {
			t.Fatalf("trace %s lost its verdict: %+v", td.ID, td.Attrs)
		}
	}
	if r.Len() != traces || r.DroppedAnnotations() != 0 {
		t.Fatalf("len %d dropped %d, want %d and 0", r.Len(), r.DroppedAnnotations(), traces)
	}
}
