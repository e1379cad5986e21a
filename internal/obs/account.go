package obs

// Per-graph resource accounting: who is eating the machine?
//
// The Accountant keeps cumulative (CPU-time, allocation, wall-time)
// counters per (graph, operation) pair, sampled as deltas around the
// executor's batch work, oracle builds, and overlay rebuilds. It is
// the cheap always-on complement to pprof labels: the counters answer
// "graph A has burned 40 CPU-seconds since boot" from /metrics without
// capturing a profile, while the labels attribute individual profile
// samples exactly (including pool fan-out the counters cannot see).
//
// Measurement semantics, deliberately spelled out because they are
// approximations:
//
//   - CPU time is the executing OS thread's user+system time
//     (RUSAGE_THREAD on Linux; wall time elsewhere, see cputime_*.go).
//     The goroutine is locked to its thread for the duration of the
//     section, so the delta is exactly the section's on-thread burn.
//     Work fanned out to pooled helper goroutines is NOT included —
//     that share is visible in CPU profiles via the pprof labels the
//     executor threads through internal/exec. With the default
//     sequential build cap the counters are exact for builds.
//   - Allocation deltas read the process-wide heap allocation
//     counters (runtime/metrics; Go has no per-goroutine counters).
//     Concurrent measured sections therefore bleed into each other:
//     treat per-graph allocs as an attribution of observed allocation
//     pressure, exact when one graph's work dominates an interval.
//
// All methods are nil-safe so library users pay nothing.

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

func nowNanos() int64 { return time.Now().UnixNano() }

// Operation names the accountant and the pprof labels use. Shared
// constants so /metrics, /stats, and profiles agree.
const (
	OpQuery   = "query"   // single-query cache-miss execution
	OpBatch   = "batch"   // explicit batch API execution
	OpBuild   = "build"   // initial oracle construction
	OpRebuild = "rebuild" // overlay journal fold
	OpAudit   = "audit"   // answer-quality shadow re-check
)

// costKey identifies one counter cell.
type costKey struct{ graph, op string }

// costCell is one (graph, op) accumulator. Plain atomics: End touches
// it outside any lock.
type costCell struct {
	cpuNS   atomic.Int64
	wallNS  atomic.Int64
	allocs  atomic.Uint64
	bytes   atomic.Uint64
	count   atomic.Int64
	errors  atomic.Int64
	samples atomic.Int64
}

// Accountant accumulates per-(graph, op) resource costs. Safe for
// concurrent use; a nil *Accountant is valid and inert.
type Accountant struct {
	mu sync.RWMutex
	m  map[costKey]*costCell
}

// NewAccountant returns an empty accountant.
func NewAccountant() *Accountant {
	return &Accountant{m: make(map[costKey]*costCell)}
}

func (a *Accountant) cell(graph, op string) *costCell {
	k := costKey{graph, op}
	a.mu.RLock()
	c := a.m[k]
	a.mu.RUnlock()
	if c != nil {
		return c
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if c = a.m[k]; c == nil {
		c = &costCell{}
		a.m[k] = c
	}
	return c
}

// CostSample is an open measurement section returned by Begin. The
// zero value (from a nil Accountant) is inert.
type CostSample struct {
	open    bool
	cpu0    int64
	wall0   int64
	allocs0 uint64
	bytes0  uint64
}

// readAllocs reads the process-wide cumulative heap allocation
// counters (objects, bytes).
func readAllocs() (objs, bytes uint64) {
	s := [2]metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s[:])
	if s[0].Value.Kind() == metrics.KindUint64 {
		objs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		bytes = s[1].Value.Uint64()
	}
	return objs, bytes
}

// Begin opens a measurement section on the calling goroutine, locking
// it to its OS thread so the thread CPU clock is attributable. Every
// Begin MUST be paired with exactly one End on the same goroutine.
// No-op (and no thread lock) on a nil Accountant.
func (a *Accountant) Begin() CostSample {
	if a == nil {
		return CostSample{}
	}
	runtime.LockOSThread()
	objs, bytes := readAllocs()
	return CostSample{
		open:    true,
		cpu0:    threadCPU(),
		wall0:   nowNanos(),
		allocs0: objs,
		bytes0:  bytes,
	}
}

// End closes a section opened by Begin, attributing the deltas to
// (graph, op), and returns the section's thread CPU time in
// nanoseconds (0 on a nil Accountant). n counts the work units inside
// the section (queries in a batch, 1 for a build); failed reports
// whether the section's work errored.
func (a *Accountant) End(s CostSample, graph, op string, n int, failed bool) int64 {
	if a == nil || !s.open {
		return 0
	}
	cpu := threadCPU() - s.cpu0
	objs, bytes := readAllocs()
	runtime.UnlockOSThread()
	wall := nowNanos() - s.wall0
	c := a.cell(graph, op)
	if cpu > 0 {
		c.cpuNS.Add(cpu)
	}
	if wall > 0 {
		c.wallNS.Add(wall)
	}
	if d := objs - s.allocs0; objs >= s.allocs0 {
		c.allocs.Add(d)
	}
	if d := bytes - s.bytes0; bytes >= s.bytes0 {
		c.bytes.Add(d)
	}
	c.count.Add(int64(n))
	if failed {
		c.errors.Add(1)
	}
	c.samples.Add(1)
	return cpu
}

// Measure runs f as one accounted section (convenience for builds and
// rebuilds, which are single synchronous units of work).
func (a *Accountant) Measure(graph, op string, f func() error) error {
	s := a.Begin()
	err := f()
	a.End(s, graph, op, 1, err != nil)
	return err
}

// Forget drops every counter for a graph (registry eviction).
func (a *Accountant) Forget(graph string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	for k := range a.m {
		if k.graph == graph {
			delete(a.m, k)
		}
	}
	a.mu.Unlock()
}

// CostSnapshot is one (graph, op) row of the accountant, the JSON
// shape /stats embeds and /metrics flattens into
// spanhop_graph_cpu_seconds_total / spanhop_graph_allocs_total.
type CostSnapshot struct {
	Graph       string  `json:"graph"`
	Op          string  `json:"op"`
	CPUSeconds  float64 `json:"cpu_seconds"`
	WallSeconds float64 `json:"wall_seconds"`
	Allocs      uint64  `json:"allocs"`
	AllocBytes  uint64  `json:"alloc_bytes"`
	Count       int64   `json:"count"`
	Errors      int64   `json:"errors,omitempty"`
	Samples     int64   `json:"samples"`
}

func snapCell(k costKey, c *costCell) CostSnapshot {
	return CostSnapshot{
		Graph:       k.graph,
		Op:          k.op,
		CPUSeconds:  float64(c.cpuNS.Load()) / 1e9,
		WallSeconds: float64(c.wallNS.Load()) / 1e9,
		Allocs:      c.allocs.Load(),
		AllocBytes:  c.bytes.Load(),
		Count:       c.count.Load(),
		Errors:      c.errors.Load(),
		Samples:     c.samples.Load(),
	}
}

// Snapshot returns every row, ordered by (graph, op) so exposition
// output is deterministic. Nil-safe (returns nil).
func (a *Accountant) Snapshot() []CostSnapshot {
	if a == nil {
		return nil
	}
	a.mu.RLock()
	out := make([]CostSnapshot, 0, len(a.m))
	for k, c := range a.m {
		out = append(out, snapCell(k, c))
	}
	a.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Graph != out[j].Graph {
			return out[i].Graph < out[j].Graph
		}
		return out[i].Op < out[j].Op
	})
	return out
}

// GraphSnapshot returns the rows for one graph (the /stats per-graph
// embed), ordered by op.
func (a *Accountant) GraphSnapshot(graph string) []CostSnapshot {
	if a == nil {
		return nil
	}
	a.mu.RLock()
	var out []CostSnapshot
	for k, c := range a.m {
		if k.graph == graph {
			out = append(out, snapCell(k, c))
		}
	}
	a.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Op < out[j].Op })
	return out
}
