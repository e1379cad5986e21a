package dynamic

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/graph"
)

// Policy decides when the pending journal is folded into a fresh base
// oracle. A rebuild triggers when ANY enabled threshold is crossed;
// zero values take defaults, negative values disable that trigger.
type Policy struct {
	// MaxJournal rebuilds once this many journal entries are pending.
	// Default 256; negative disables.
	MaxJournal int
	// MaxPatchFraction rebuilds once the overlay diverges on more than
	// this fraction of the base graph's edges (overlay pairs / max(m,1)).
	// Default 0.10; negative disables.
	MaxPatchFraction float64
	// MaxStaleness rebuilds once the oldest pending entry is older
	// than this. Default 0 (disabled); negative disables.
	MaxStaleness time.Duration
}

// withDefaults resolves the zero-value defaults.
func (p Policy) withDefaults() Policy {
	if p.MaxJournal == 0 {
		p.MaxJournal = 256
	}
	if p.MaxPatchFraction == 0 {
		p.MaxPatchFraction = 0.10
	}
	return p
}

// Due reports whether the overlay's pending state crosses the policy,
// naming the trigger ("journal", "patch-fraction", "staleness", "").
func (p Policy) Due(o *Oracle) (bool, string) {
	p = p.withDefaults()
	if o.Pending() == 0 {
		return false, ""
	}
	if p.MaxJournal > 0 && o.Pending() >= p.MaxJournal {
		return true, "journal"
	}
	if p.MaxPatchFraction > 0 {
		m := o.BaseGraph().NumEdges()
		if m < 1 {
			m = 1
		}
		if float64(o.OverlayEdges())/float64(m) >= p.MaxPatchFraction {
			return true, "patch-fraction"
		}
	}
	if p.MaxStaleness > 0 {
		if oldest := o.OldestPending(); !oldest.IsZero() && time.Since(oldest) >= p.MaxStaleness {
			return true, "staleness"
		}
	}
	return false, ""
}

// RebuildFunc builds a fresh base Querier for the materialized
// mutated graph. It runs on a background goroutine and must honor ctx
// cancellation (the scheduler cancels it on Close and when a newer
// rebuild supersedes it); a canceled build returns ctx.Err().
type RebuildFunc func(ctx context.Context, g *graph.Graph) (Querier, error)

// Scheduler watches an overlay and triggers cancelable background
// rebuilds per its Policy. Exactly one rebuild runs at a time; the
// journal keeps accepting mutations while it runs, and entries newer
// than the rebuild's pinned generation survive the swap.
type Scheduler struct {
	o     *Oracle
	pol   Policy
	build RebuildFunc

	mu         sync.Mutex
	idle       *sync.Cond // broadcast whenever running flips to false
	running    bool
	closed     bool
	cancel     context.CancelFunc
	timer      *time.Timer
	rebuilds   int64
	lastErr    string
	lastMS     int64
	lastCause  string
	onSwap     func()
	onEvent    func(Event)
	instrument func(cause string, do func() error)
	wg         sync.WaitGroup
}

// Event is one scheduler lifecycle notification, delivered to the
// SetOnEvent hook so the serving layer can log and count rebuild
// activity without polling Snapshot.
type Event struct {
	// Kind is "start" (rebuild launched), "swap" (new base installed,
	// journal prefix compacted), or "fail" (build errored or canceled).
	Kind string
	// Cause is the policy trigger: "journal", "patch-fraction",
	// "staleness", or "forced".
	Cause string
	// Gen is the generation the rebuild pinned.
	Gen uint64
	// Compacted counts the journal entries the swap folded into the
	// new base (Kind "swap" only).
	Compacted int
	// Dur is the rebuild wall time (Kinds "swap" and "fail").
	Dur time.Duration
	// Err is the failure cause (Kind "fail" only).
	Err error
}

// SetOnEvent registers a hook receiving every scheduler lifecycle
// Event. The hook runs on the rebuild goroutine (or the Force caller)
// and must be cheap and thread-safe.
func (s *Scheduler) SetOnEvent(f func(Event)) {
	s.mu.Lock()
	s.onEvent = f
	s.mu.Unlock()
}

// SetInstrument registers a wrapper around the expensive build step of
// every rebuild (background or forced). The serving layer uses it to
// attribute the rebuild's CPU time and allocations to the owning graph
// and to stamp profiler labels on the building goroutine. The wrapper
// MUST call do() exactly once, synchronously (do returns the build's
// error so the wrapper can classify the section); it runs on the
// rebuild goroutine.
func (s *Scheduler) SetInstrument(f func(cause string, do func() error)) {
	s.mu.Lock()
	s.instrument = f
	s.mu.Unlock()
}

func (s *Scheduler) emit(ev Event) {
	s.mu.Lock()
	f := s.onEvent
	s.mu.Unlock()
	if f != nil {
		f(ev)
	}
}

// SetOnSwap registers a hook that runs after every completed rebuild
// swap (background or forced) — the serving layer invalidates its
// result cache and rewrites the snapshot there. If a swap already
// completed before registration (a policy-due journal can trigger a
// rebuild the moment the scheduler learns of it, e.g. on snapshot
// restore), the hook fires once immediately so that swap is not
// silently missed; a duplicate firing under that race is benign — the
// hook's work is idempotent invalidation.
func (s *Scheduler) SetOnSwap(f func()) {
	s.mu.Lock()
	s.onSwap = f
	missed := s.rebuilds > 0
	s.mu.Unlock()
	if missed && f != nil {
		f()
	}
}

// NewScheduler wires a scheduler to an overlay. Call Notify after
// every Apply; the staleness trigger arms its own timer.
func NewScheduler(o *Oracle, pol Policy, build RebuildFunc) *Scheduler {
	s := &Scheduler{o: o, pol: pol.withDefaults(), build: build}
	s.idle = sync.NewCond(&s.mu)
	return s
}

// Stats is a point-in-time scheduler snapshot.
type Stats struct {
	Rebuilds      int64  `json:"rebuilds"`
	Running       bool   `json:"rebuild_running,omitempty"`
	LastCause     string `json:"last_rebuild_cause,omitempty"`
	LastRebuildMS int64  `json:"last_rebuild_ms,omitempty"`
	LastError     string `json:"last_rebuild_error,omitempty"`
}

// Snapshot returns the scheduler counters.
func (s *Scheduler) Snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Rebuilds:      s.rebuilds,
		Running:       s.running,
		LastCause:     s.lastCause,
		LastRebuildMS: s.lastMS,
		LastError:     s.lastErr,
	}
}

// Notify re-evaluates the policy (call after Apply). Starts a
// background rebuild when due and none is running; otherwise arms the
// staleness timer so an idle journal still ages into a rebuild.
func (s *Scheduler) Notify() {
	s.mu.Lock()
	if s.closed || s.running {
		s.mu.Unlock()
		return
	}
	due, cause := s.pol.Due(s.o)
	if !due {
		s.armTimerLocked()
		s.mu.Unlock()
		return
	}
	s.startLocked(cause)
	s.mu.Unlock()
}

// armTimerLocked schedules a staleness re-check for the oldest
// pending entry. s.mu held.
func (s *Scheduler) armTimerLocked() {
	if s.pol.MaxStaleness <= 0 {
		return
	}
	oldest := s.o.OldestPending()
	if oldest.IsZero() {
		return
	}
	wait := time.Until(oldest.Add(s.pol.MaxStaleness))
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	if s.timer != nil {
		s.timer.Stop()
	}
	s.timer = time.AfterFunc(wait, s.Notify)
}

// startLocked launches the rebuild goroutine. s.mu held.
func (s *Scheduler) startLocked(cause string) {
	ctx, cancel := context.WithCancel(context.Background())
	s.running = true
	s.cancel = cancel
	s.lastCause = cause
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		err := s.rebuildOnce(ctx, cause)
		s.mu.Lock()
		s.running = false
		s.cancel = nil
		if err != nil {
			s.lastErr = err.Error()
		} else {
			s.lastErr = ""
		}
		closed := s.closed
		s.idle.Broadcast()
		s.mu.Unlock()
		cancel()
		if !closed {
			// Mutations kept landing during the rebuild; re-evaluate so a
			// journal already past threshold doesn't idle until the next
			// Apply.
			s.Notify()
		}
	}()
}

// Force runs one synchronous rebuild at the current generation
// regardless of policy (tests, admin endpoints). It waits for any
// in-flight rebuild — background or another Force — to finish first
// (on a condition variable, not a spin; a canceled ctx is observed
// once the current rebuild completes), then rebuilds if anything is
// still pending.
func (s *Scheduler) Force(ctx context.Context) error {
	s.mu.Lock()
	for s.running && !s.closed && ctx.Err() == nil {
		s.idle.Wait()
	}
	if s.closed {
		s.mu.Unlock()
		return errors.New("dynamic: scheduler closed")
	}
	if err := ctx.Err(); err != nil {
		s.mu.Unlock()
		return err
	}
	s.running = true
	// Register with the same WaitGroup background rebuilds use, so
	// Close waits a forced rebuild out (its Swap and onSwap hook never
	// run after Close returns) exactly as it does for background ones.
	s.wg.Add(1)
	cctx, cancel := context.WithCancel(ctx)
	s.cancel = cancel
	s.lastCause = "forced"
	s.mu.Unlock()
	err := error(nil)
	if s.o.Pending() > 0 {
		err = s.rebuildOnce(cctx, "forced")
	}
	s.mu.Lock()
	s.running = false
	s.cancel = nil
	if err != nil {
		s.lastErr = err.Error()
	} else {
		s.lastErr = ""
	}
	s.idle.Broadcast()
	s.mu.Unlock()
	s.wg.Done()
	cancel()
	return err
}

// rebuildOnce materializes the graph at the pinned generation, builds
// a fresh base, and swaps it in.
func (s *Scheduler) rebuildOnce(ctx context.Context, cause string) error {
	start := time.Now()
	gen := s.o.Generation()
	// Pending entries at this instant all carry gen ≤ the pinned
	// generation, so the swap compacts exactly this many; entries
	// applied while the build runs are stamped later and survive.
	pending := s.o.Pending()
	s.emit(Event{Kind: "start", Cause: cause, Gen: gen})
	fail := func(err error) error {
		s.emit(Event{Kind: "fail", Cause: cause, Gen: gen, Dur: time.Since(start), Err: err})
		return err
	}
	g, err := s.o.MutatedGraphAt(gen)
	if err != nil {
		return fail(err)
	}
	s.mu.Lock()
	wrap := s.instrument
	s.mu.Unlock()
	var base Querier
	if wrap != nil {
		wrap(cause, func() error { base, err = s.build(ctx, g); return err })
	} else {
		base, err = s.build(ctx, g)
	}
	if err != nil {
		return fail(fmt.Errorf("dynamic: rebuild (%s) at gen %d: %w", cause, gen, err))
	}
	if err := ctx.Err(); err != nil {
		return fail(err)
	}
	if err := s.o.Swap(base, g, gen); err != nil {
		return fail(err)
	}
	s.mu.Lock()
	s.rebuilds++
	s.lastMS = time.Since(start).Milliseconds()
	hook := s.onSwap
	s.mu.Unlock()
	s.emit(Event{Kind: "swap", Cause: cause, Gen: gen, Compacted: pending, Dur: time.Since(start)})
	if hook != nil {
		hook()
	}
	return nil
}

// Close cancels any in-flight rebuild and waits it out. The overlay
// stays queryable; further Notify calls are no-ops.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	if s.timer != nil {
		s.timer.Stop()
	}
	if s.cancel != nil {
		s.cancel()
	}
	s.idle.Broadcast() // wake Force waiters so they observe closed
	s.mu.Unlock()
	s.wg.Wait()
}
