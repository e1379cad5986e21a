//go:build linux

package obs

import (
	"math"
	"testing"
	"time"
)

// TestAccountantCountsShortSection: five sections that each spin for
// 2 ms of wall time are each accounted no more thread CPU than their
// wall time, and the best is accounted at least 1 ms, both in End's
// return and in the accountant's cell. A tick-granular thread clock
// reads such sections as 0 or as a whole tick (4 ms at HZ=250). The
// lower bound takes the best attempt, so a runner that preempts one
// spin does not fail the test.
func TestAccountantCountsShortSection(t *testing.T) {
	const (
		spin  = 2 * time.Millisecond
		slack = 200 * time.Microsecond
	)
	a := NewAccountant()
	var best, total time.Duration
	for attempt := 0; attempt < 5; attempt++ {
		t0 := time.Now()
		s := a.Begin()
		for time.Since(t0) < spin {
		}
		cpu := time.Duration(a.End(s, "g", OpQuery, 1, false))
		wall := time.Since(t0)
		if cpu > wall+slack {
			t.Fatalf("attempt %d: section of %v wall accounted %v of thread CPU", attempt, wall, cpu)
		}
		best = max(best, cpu)
		total += cpu
	}
	if best < time.Millisecond {
		t.Fatalf("a %v busy section was accounted at best %v of thread CPU, want >= 1ms", spin, best)
	}
	rows := a.GraphSnapshot("g")
	if len(rows) != 1 || math.Abs(rows[0].CPUSeconds-total.Seconds()) > 1e-9 {
		t.Fatalf("accountant rows = %+v, want cpu_seconds %v", rows, total.Seconds())
	}
}
