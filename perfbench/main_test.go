package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// spec is the part of the repository's BENCHMARK.json these tests read.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tiny shrinks every input so that a run takes about a second.
var tiny = sizes{
	roadSide: 12, spannerN: 256, spannerM: 2048,
	serveGen: "grid:side=8,w=uniform,maxw=50",
	pool:     32, reps: 1, spanners: 2, windows: 2, probeBatches: 4, checkPairs: 8,
}

func tinyRun(t *testing.T, workload string, traced, corrupt bool) *result {
	t.Helper()
	res, err := execute(config{
		workload: workload,
		seed:     7,
		dur:      300 * time.Millisecond,
		traced:   traced,
		sz:       tiny,
		traceDir: t.TempDir(),
		corrupt:  corrupt,
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// programWorkloads lists every workload the program runs, sorted: the
// ones BENCHMARK.json gates and the ones kept for manual runs.
func programWorkloads() []string {
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestSmokeEmitsEveryMetric runs every workload of the program at tiny
// scale, untraced and traced, and checks that each run is correct and
// prints exactly the metrics BENCHMARK.json names, with their units.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json: %d workloads, %d end-to-end, %d per-layer metrics (program has %d per-layer)",
			len(s.Workloads), len(s.EndToEnd), len(s.PerLayer), len(perLayer))
	}
	for _, w := range s.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not in the program", w.Name)
		}
	}
	for _, name := range programWorkloads() {
		for _, traced := range []bool{false, true} {
			res := tinyRun(t, name, traced, false)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want unit %s", name, traced, m.Name, got, ok, m.Unit)
				}
				if !traced && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s reads 0", name, m.Name)
				}
			}
		}
	}
}

// TestCheckerCountsCorruptedAnswer feeds each workload's checker one
// corrupted answer and expects it counted as a failed operation.
func TestCheckerCountsCorruptedAnswer(t *testing.T) {
	for _, name := range programWorkloads() {
		res := tinyRun(t, name, false, true)
		if res.Correct || res.Failed != 1 {
			t.Errorf("%s: corrupted answer gave correct=%v failed=%d, want false and 1", name, res.Correct, res.Failed)
		}
		if got := res.Metrics["success_frac"].Value; got >= 1 {
			t.Errorf("%s: success_frac %v with a failed operation", name, got)
		}
	}
}
