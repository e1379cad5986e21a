package exec

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/par"
)

func TestNilCtxLegacyBehavior(t *testing.T) {
	var e *Ctx
	if e.IsParallel() {
		t.Fatal("nil Ctx must not report parallel")
	}
	if e.Canceled() || e.Checkpoint() || e.Err() != nil {
		t.Fatal("nil Ctx must never cancel")
	}
	// For on a nil Ctx delegates to par.For: full coverage.
	hits := make([]atomic.Int32, 10000)
	e.For(len(hits), 100, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			hits[i].Add(1)
		}
	})
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("index %d visited %d times", i, hits[i].Load())
		}
	}
	// Arena calls work too: the pools are process-wide.
	d := e.Dists(8)
	if len(d) != 8 || d[0] != graph.InfDist {
		t.Fatalf("nil Dists = %v", d)
	}
	e.PutDists(d)
}

func TestSequentialCtxRunsInline(t *testing.T) {
	e := Sequential()
	if e.IsParallel() {
		t.Fatal("Sequential reports parallel")
	}
	var max atomic.Int32
	var cur atomic.Int32
	e.DoN(64, func(i int) {
		c := cur.Add(1)
		if c > max.Load() {
			max.Store(c)
		}
		cur.Add(-1)
	})
	if max.Load() != 1 {
		t.Fatalf("sequential DoN ran %d bodies concurrently", max.Load())
	}
}

func TestWorkerCapHonored(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	e := Parallel(2)
	var cur, max atomic.Int32
	e.For(1<<16, 256, func(lo, hi int) {
		c := cur.Add(1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		cur.Add(-1)
	})
	if got := max.Load(); got > 2 {
		t.Fatalf("worker cap 2 exceeded: %d chunks in flight", got)
	}
}

// TestWorkerCapBoundsNestedFanOut: the cap is an aggregate budget for
// the whole context, so an outer DoN whose bodies each run their own
// For must still never exceed Workers goroutines in flight.
func TestWorkerCapBoundsNestedFanOut(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	// Grow the shared pool well beyond the cap first, so idle workers
	// are available to steal if the budget were per-call only.
	Parallel(0).For(1<<16, 64, func(lo, hi int) {})

	e := Parallel(2)
	var cur, max atomic.Int32
	e.DoN(8, func(i int) {
		e.For(1<<14, 128, func(lo, hi int) {
			c := cur.Add(1)
			for {
				m := max.Load()
				if c <= m || max.CompareAndSwap(m, c) {
					break
				}
			}
			time.Sleep(50 * time.Microsecond)
			cur.Add(-1)
		})
	})
	if got := max.Load(); got > 2 {
		t.Fatalf("aggregate cap 2 exceeded: %d bodies in flight", got)
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	e := New(Options{Context: ctx, Workers: 2})
	if e.Canceled() {
		t.Fatal("canceled before cancel()")
	}
	if e.Checkpoint() {
		t.Fatal("checkpoint tripped early")
	}
	cancel()
	if !e.Canceled() || !e.Checkpoint() {
		t.Fatal("cancellation not observed")
	}
	if e.Err() == nil {
		t.Fatal("Err() nil after cancel")
	}
	if e.Rounds() != 2 {
		t.Fatalf("rounds = %d, want 2", e.Rounds())
	}
	// Detached contexts never see the cancellation.
	d := e.Detached()
	if d.Canceled() || d.Checkpoint() {
		t.Fatal("detached Ctx observed the parent cancellation")
	}
}

func TestArenaResetAndReuse(t *testing.T) {
	e := Parallel(0)
	d := e.Dists(100)
	for i := range d {
		d[i] = 7 // dirty it
	}
	e.PutDists(d)
	d2 := e.Dists(50)
	for i, v := range d2 {
		if v != graph.InfDist {
			t.Fatalf("recycled dist[%d] = %d, want InfDist", i, v)
		}
	}
	e.PutDists(d2)

	v := e.Verts(64)
	for i := range v {
		if v[i] != graph.NoVertex {
			t.Fatalf("Verts[%d] = %d", i, v[i])
		}
	}
	e.PutVerts(v)

	m := e.Marks(64)
	for i := range m {
		if m[i] != -1 {
			t.Fatalf("Marks[%d] = %d", i, m[i])
		}
	}
	e.PutMarks(m)
	mz := e.MarksZero(64)
	for i := range mz {
		if mz[i] != 0 {
			t.Fatalf("MarksZero[%d] = %d", i, mz[i])
		}
	}
	e.PutMarks(mz)
}

func TestArenaSizeClasses(t *testing.T) {
	var p slicePools[int]
	s := p.get(100)
	if len(s) != 100 || cap(s) < 100 {
		t.Fatalf("get(100): len=%d cap=%d", len(s), cap(s))
	}
	p.put(s)
	// A buffer of cap >= 128 serves any request up to its class.
	s2 := p.get(128)
	if len(s2) != 128 {
		t.Fatalf("get(128): len=%d", len(s2))
	}
	p.put(s2)
	if got := p.get(0); len(got) != 0 {
		t.Fatalf("get(0): len=%d", len(got))
	}
}

func TestStageTelemetry(t *testing.T) {
	tel := NewTelemetry()
	e := New(Options{Workers: 1, Telemetry: tel})
	cost := par.NewCost()
	stop := e.Stage("phase-a", cost)
	cost.Round(10)
	e.Checkpoint()
	stop()
	stop = e.Stage("phase-a", cost) // accumulates by name
	cost.Round(5)
	stop()
	stop = e.Stage("phase-b", cost)
	stop()
	snap := tel.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("stages = %+v", snap)
	}
	a := snap[0]
	if a.Name != "phase-a" || a.Work != 15 || a.Depth != 2 || a.Rounds != 1 {
		t.Fatalf("phase-a = %+v", a)
	}
	if snap[1].Name != "phase-b" || snap[1].Work != 0 {
		t.Fatalf("phase-b = %+v", snap[1])
	}
}

// TestPooledWorkersBounded: repeated parallel regions must not grow
// the goroutine count — the pool is the only fan-out mechanism.
func TestPooledWorkersBounded(t *testing.T) {
	e := Parallel(0)
	// Warm the pool.
	e.For(1<<14, 64, func(lo, hi int) {})
	runtime.GC()
	base := runtime.NumGoroutine()
	for iter := 0; iter < 200; iter++ {
		e.For(1<<14, 64, func(lo, hi int) {})
		e.DoN(32, func(i int) {})
	}
	if got := runtime.NumGoroutine(); got > base+4 {
		t.Fatalf("goroutines grew: base %d, now %d", base, got)
	}
}
