package par

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestCostSequential(t *testing.T) {
	c := NewCost()
	c.AddWork(10)
	c.AddDepth(3)
	c.Round(5)
	if w := c.Work(); w != 15 {
		t.Fatalf("work = %d, want 15", w)
	}
	if d := c.Depth(); d != 4 {
		t.Fatalf("depth = %d, want 4", d)
	}
}

func TestCostNilSafe(t *testing.T) {
	var c *Cost
	c.AddWork(1)
	c.AddDepth(1)
	c.Round(1)
	c.AddSequential(NewCost())
	c.JoinMax(NewCost())
	if c.Work() != 0 || c.Depth() != 0 {
		t.Fatal("nil cost should report zeros")
	}
}

func TestCostJoinMax(t *testing.T) {
	a := NewCost()
	a.AddWork(100)
	a.AddDepth(7)
	b := NewCost()
	b.AddWork(50)
	b.AddDepth(12)
	parent := NewCost()
	parent.AddDepth(1)
	parent.JoinMax(a, b, nil)
	if w := parent.Work(); w != 150 {
		t.Fatalf("joined work = %d, want 150", w)
	}
	if d := parent.Depth(); d != 13 {
		t.Fatalf("joined depth = %d, want 1+max(7,12)=13", d)
	}
}

func TestCostAddSequential(t *testing.T) {
	a := NewCost()
	a.AddWork(5)
	a.AddDepth(2)
	parent := NewCost()
	parent.AddWork(1)
	parent.AddDepth(1)
	parent.AddSequential(a)
	parent.AddSequential(nil)
	if parent.Work() != 6 || parent.Depth() != 3 {
		t.Fatalf("sequential compose = (%d,%d), want (6,3)",
			parent.Work(), parent.Depth())
	}
}

func TestCostConcurrent(t *testing.T) {
	c := NewCost()
	Do(
		func() {
			for i := 0; i < 1000; i++ {
				c.AddWork(1)
			}
		},
		func() {
			for i := 0; i < 1000; i++ {
				c.AddWork(2)
			}
		},
		func() {
			for i := 0; i < 1000; i++ {
				c.AddDepth(1)
			}
		},
	)
	if c.Work() != 3000 {
		t.Fatalf("concurrent work = %d, want 3000", c.Work())
	}
	if c.Depth() != 1000 {
		t.Fatalf("concurrent depth = %d, want 1000", c.Depth())
	}
}

func TestForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, 512, 513, 10000} {
		hits := make([]atomic.Int32, n)
		For(n, 100, func(lo, hi int) {
			if lo < 0 || hi > n || lo > hi {
				t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
			}
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("n=%d index %d visited %d times", n, i, got)
			}
		}
	}
}

func TestForAutoGrain(t *testing.T) {
	const n = 100000
	var count atomic.Int64
	For(n, 0, func(lo, hi int) { count.Add(int64(hi - lo)) })
	if count.Load() != n {
		t.Fatalf("auto-grain coverage = %d, want %d", count.Load(), n)
	}
}

func TestDo(t *testing.T) {
	var a, b, c atomic.Bool
	Do(
		func() { a.Store(true) },
		func() { b.Store(true) },
		func() { c.Store(true) },
	)
	if !a.Load() || !b.Load() || !c.Load() {
		t.Fatal("Do did not run all thunks")
	}
	// Degenerate arities.
	Do()
	ran := false
	Do(func() { ran = true })
	if !ran {
		t.Fatal("Do with one thunk did not run it")
	}
}

func TestDoN(t *testing.T) {
	for _, n := range []int{0, 1, 3, 64, 300} {
		hits := make([]atomic.Int32, n)
		DoN(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("DoN(%d) index %d hit %d times", n, i, hits[i].Load())
			}
		}
	}
}

// Property: For visits each index exactly once regardless of grain.
func TestForProperty(t *testing.T) {
	f := func(nRaw uint16, grainRaw uint8) bool {
		n := int(nRaw) % 3000
		grain := int(grainRaw)
		hits := make([]atomic.Int32, n)
		For(n, grain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
		})
		for i := range hits {
			if hits[i].Load() != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkForOverhead(b *testing.B) {
	xs := make([]int64, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		For(len(xs), 0, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				xs[j]++
			}
		})
	}
}
