// Command perfbench is the repository benchmark. One run replays one
// seeded workload — against the library facade (offline-road,
// offline-spanner) or against an in-process spanhopd server on a
// loopback listener (serve-hot, serve-churn) — for a fixed wall time,
// checks every answer it gets, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separate traced run,
// whose spans are written under .bench_build/perfbench-trace/ at exit.
// README.md in this directory maps every metric to the public function
// it times.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	// One process is the whole load: GOMAXPROCS = the CPUs this
	// process may run on (nproc), never a quota-derived guess.
	runtime.GOMAXPROCS(runtime.NumCPU())
	var (
		workload = flag.String("workload", "", "offline-road | offline-spanner | serve-hot | serve-churn")
		seed     = flag.Uint64("seed", 1, "workload seed; the same seed replays the same inputs")
		seconds  = flag.Float64("seconds", 10, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad flags")
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		dur:      time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		sz:       full,
		traceDir: filepath.Join(".bench_build", "perfbench-trace"),
	}
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d nproc=%d GOMAXPROCS=%d go=%s %s/%s\n",
		cfg.workload, cfg.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), runtime.GOOS, runtime.GOARCH)
	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
