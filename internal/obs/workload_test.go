package obs

// Workload-analytics unit tests: the space-saving sketch's exactness
// and admission guarantees, and the per-graph Workload bundle's snapshot shape (including nil safety —
// library users of internal/server carry a nil bundle).

import "testing"

func TestPairKeyRoundTrip(t *testing.T) {
	cases := [][2]int32{{0, 0}, {1, 2}, {2, 1}, {-1, 7}, {1 << 30, -(1 << 30)}}
	seen := make(map[uint64][2]int32)
	for _, c := range cases {
		k := PairKey(c[0], c[1])
		if s, tt := PairFromKey(k); s != c[0] || tt != c[1] {
			t.Fatalf("PairFromKey(PairKey(%d,%d)) = (%d,%d)", c[0], c[1], s, tt)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("pairs %v and %v collide on key %d", prev, c, k)
		}
		seen[k] = c
	}
	if PairKey(1, 2) == PairKey(2, 1) {
		t.Fatal("(s,t) and (t,s) must be distinct keys")
	}
}

func TestTopKExactWithinCapacity(t *testing.T) {
	tk := NewTopK(8)
	want := map[uint64]uint64{}
	for i := 0; i < 5; i++ {
		k := PairKey(int32(i), int32(i+1))
		for j := 0; j <= i; j++ {
			tk.Observe(k)
			want[k]++
		}
	}
	pairs, total := tk.Snapshot(0)
	if total != 15 {
		t.Fatalf("total = %d, want 15", total)
	}
	if len(pairs) != 5 {
		t.Fatalf("sketch holds %d keys, want 5", len(pairs))
	}
	for i, p := range pairs {
		if p.Err != 0 {
			t.Fatalf("pair %d has err %d inside capacity", i, p.Err)
		}
		if got := want[PairKey(p.S, p.T)]; p.Count != got {
			t.Fatalf("pair (%d,%d) count %d, want %d", p.S, p.T, p.Count, got)
		}
		if i > 0 && p.Count > pairs[i-1].Count {
			t.Fatalf("snapshot not count-descending at %d", i)
		}
	}
	// k bounds the report without touching the totals.
	top2, total2 := tk.Snapshot(2)
	if len(top2) != 2 || total2 != 15 || top2[0].Count != 5 {
		t.Fatalf("Snapshot(2) = %v (total %d)", top2, total2)
	}
}

func TestTopKEvictionGuarantees(t *testing.T) {
	// Capacity 4, one genuinely heavy key amid a stream of singletons.
	tk := NewTopK(4)
	heavy := PairKey(9999, 9999)
	for i := 0; i < 50; i++ {
		tk.Observe(heavy)
		tk.Observe(PairKey(int32(i), int32(i)))
	}
	pairs, total := tk.Snapshot(0)
	if total != 100 {
		t.Fatalf("total = %d, want 100", total)
	}
	if len(pairs) != 4 {
		t.Fatalf("sketch holds %d keys, want capacity 4", len(pairs))
	}
	// The heavy hitter (true count 50 > N/k = 25) must be retained,
	// and every reported count must bound truth: true in [count-err,
	// count].
	found := false
	for _, p := range pairs {
		if PairKey(p.S, p.T) == heavy {
			found = true
			if p.Count < 50 {
				t.Fatalf("heavy count %d underestimates true 50", p.Count)
			}
			if p.Count-p.Err > 50 {
				t.Fatalf("heavy bound [count-err=%d] exceeds true 50", p.Count-p.Err)
			}
		}
	}
	if !found {
		t.Fatal("heavy hitter evicted despite count > N/k")
	}
}

func TestTopKNilAndDefaults(t *testing.T) {
	var tk *TopK
	tk.Observe(1) // must not panic
	if p, n := tk.Snapshot(5); p != nil || n != 0 {
		t.Fatalf("nil sketch snapshot = %v, %d", p, n)
	}
	if got := NewTopK(0).k; got != DefaultTopK {
		t.Fatalf("NewTopK(0) capacity = %d, want %d", got, DefaultTopK)
	}
}

func TestWorkloadBundle(t *testing.T) {
	w := NewWorkload(8)
	w.ObservePair(3, 4)
	w.ObservePair(3, 4)
	w.ObservePair(5, 6)

	snap := w.Snapshot(10)
	if snap.TotalPairs != 3 || len(snap.TopPairs) != 2 {
		t.Fatalf("pairs = %d total %d", len(snap.TopPairs), snap.TotalPairs)
	}
	if p := snap.TopPairs[0]; p.S != 3 || p.T != 4 || p.Count != 2 || p.Err != 0 {
		t.Fatalf("top pair = %+v", p)
	}

	// Nil bundle: every method inert, snapshot non-nil slices (the
	// HTTP layer marshals it directly).
	var nw *Workload
	nw.ObservePair(1, 2)
	ns := nw.Snapshot(5)
	if ns.TopPairs == nil {
		t.Fatalf("nil workload snapshot = %+v", ns)
	}
}
