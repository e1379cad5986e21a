package spanner

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TestUniqueIDsMatchesSort: the bitmap dedupe returns what sort plus
// unique returns, for lists with duplicates, for an empty list, and
// for id ranges that are not a multiple of the 64-bit word.
func TestUniqueIDsMatchesSort(t *testing.T) {
	for _, ids := range [][]int32{nil, {}} {
		if got := uniqueIDs(ids, 10); len(got) != 0 {
			t.Fatalf("uniqueIDs(%v) = %v", ids, got)
		}
	}
	for seed := uint64(0); seed < 300; seed++ {
		r := rng.New(seed)
		m := int64(1 + r.Intn(300)) // mostly not a multiple of 64
		if seed%10 == 0 {
			m = 64 * int64(1+r.Intn(4))
		}
		ids := make([]int32, r.Intn(3*int(m)))
		for i := range ids {
			ids[i] = int32(r.Intn(int(m)))
		}
		if seed%7 == 0 && len(ids) > 0 {
			ids[0] = int32(m - 1) // the last id of the last word
		}
		want := slices.Clone(ids)
		slices.Sort(want)
		want = slices.Compact(want)
		got := uniqueIDs(slices.Clone(ids), m)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d (m=%d): uniqueIDs = %v, want %v", seed, m, got, want)
		}
	}
}

func strictlyAscending(t *testing.T, what string, ids []int32) {
	t.Helper()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("%s: EdgeIDs[%d..%d] = %d, %d: not strictly ascending", what, i-1, i, ids[i-1], ids[i])
		}
	}
}

// TestSpannerEdgeIDsStrictlyAscending: every construction returns its
// edge ids sorted with no duplicates, which Result.EdgeIDs promises.
func TestSpannerEdgeIDsStrictlyAscending(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		g := graph.RandomConnectedGNM(300, 2400, seed)
		wg := graph.UniformWeights(g, 200, seed)
		k := 1 + int(seed%5)
		for _, tc := range []struct {
			name string
			res  *Result
		}{
			{"Unweighted", Unweighted(g, k, seed, Options{})},
			{"Weighted", Weighted(wg, k, seed, Options{})},
			{"BaswanaSen", BaswanaSen(wg, k, seed, nil)},
		} {
			what := fmt.Sprintf("%s seed=%d k=%d", tc.name, seed, k)
			if tc.res.Size() == 0 {
				t.Fatalf("%s: empty spanner of a connected graph", what)
			}
			strictlyAscending(t, what, tc.res.EdgeIDs)
		}
	}
}
