package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// These tests force GOMAXPROCS above 1 so that the goroutine fan-out
// paths of For/Do/DoN execute even on single-core hosts (goroutines
// still interleave), exercising the chunk scheduler and the
// work-stealing counter.

func withProcs(t *testing.T, p int, body func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(old)
	body()
}

func TestForParallelPath(t *testing.T) {
	withProcs(t, 4, func() {
		const n = 200000
		hits := make([]atomic.Int32, n)
		For(n, 1000, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
		})
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("index %d visited %d times", i, hits[i].Load())
			}
		}
	})
}

func TestForParallelTinyGrainRebalance(t *testing.T) {
	withProcs(t, 4, func() {
		// grain 1 on a large range must trigger the chunk rebalance
		// (the 4p cap) and still cover everything exactly once.
		const n = 100000
		var sum atomic.Int64
		For(n, 1, func(lo, hi int) {
			var local int64
			for i := lo; i < hi; i++ {
				local += int64(i)
			}
			sum.Add(local)
		})
		want := int64(n) * (n - 1) / 2
		if sum.Load() != want {
			t.Fatalf("sum = %d, want %d", sum.Load(), want)
		}
	})
}

func TestDoParallelPath(t *testing.T) {
	withProcs(t, 4, func() {
		var a, b, c, d atomic.Int32
		Do(
			func() { a.Add(1) },
			func() { b.Add(1) },
			func() { c.Add(1) },
			func() { d.Add(1) },
		)
		if a.Load()+b.Load()+c.Load()+d.Load() != 4 {
			t.Fatal("Do dropped thunks under parallelism")
		}
	})
}

func TestDoNParallelBounded(t *testing.T) {
	withProcs(t, 4, func() {
		var inFlight, peak atomic.Int32
		DoN(64, func(i int) {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			// Busy-yield so overlapping goroutines can be observed.
			for j := 0; j < 100; j++ {
				runtime.Gosched()
			}
			inFlight.Add(-1)
		})
		if peak.Load() > int32(4) {
			t.Fatalf("DoN exceeded worker bound: peak %d", peak.Load())
		}
		if peak.Load() < 1 {
			t.Fatal("DoN never ran")
		}
	})
}

func TestCostUnderHeavyContention(t *testing.T) {
	withProcs(t, 8, func() {
		c := NewCost()
		For(100000, 100, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				c.AddWork(1)
			}
		})
		if c.Work() != 100000 {
			t.Fatalf("contended work = %d, want 100000", c.Work())
		}
	})
}
