// Command hopset builds a hopset for a graph file, reports its size
// and construction cost, and optionally runs approximate distance
// queries against exact ground truth.
//
// Usage:
//
//	hopset -in graph.txt [-algo est|ks97|cohen|limited] [-seed N] [-queries 10] [-gamma2 0.5] [-workers N]
//	hopset -in graph.txt -save hopset.snap     # build once, persist
//	hopset -load hopset.snap [-queries 100]    # reuse across runs
//
// -save/-load apply to the est multi-scale hopset: -save writes the
// built structure as a direct-mode flat arena (graph included, every
// section checksummed; see internal/flat), -load maps it and skips the
// build entirely. With both -load and -in, the input graph must
// fingerprint-match the one the snapshot was built for.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/eval"
	"repro/internal/exec"
	"repro/internal/flat"
	"repro/internal/graph"
	"repro/internal/hopset"
	"repro/internal/par"
	"repro/internal/rng"
)

func main() {
	in := flag.String("in", "", "input graph file (text or binary; required unless -load)")
	algo := flag.String("algo", "est", "algorithm: est (ours), ks97, cohen, limited")
	seed := flag.Uint64("seed", 1, "random seed")
	queries := flag.Int("queries", 10, "approximate distance queries to run (est only)")
	gamma2 := flag.Float64("gamma2", 0.5, "top-level decomposition exponent (est only)")
	alpha := flag.Float64("alpha", 0.5, "target depth exponent (limited only)")
	workers := flag.Int("workers", 0, "worker cap for the est build: 0 or 1 = sequential, N > 1 = multicore capped at N")
	save := flag.String("save", "", "write the built est hopset to this snapshot file")
	load := flag.String("load", "", "restore an est hopset snapshot instead of building")
	flag.Parse()

	if *in == "" && *load == "" {
		fmt.Fprintln(os.Stderr, "hopset: -in is required (or -load a snapshot)")
		flag.Usage()
		os.Exit(2)
	}
	if *load != "" && *algo != "est" {
		fmt.Fprintln(os.Stderr, "hopset: -load only applies to -algo est")
		os.Exit(2)
	}
	var g *graph.Graph
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		g, err = graph.ReadAuto(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("graph: n=%d m=%d weighted=%v\n", g.NumVertices(), g.NumEdges(), g.Weighted())
	}

	cost := par.NewCost()
	switch *algo {
	case "est":
		var s *hopset.Scaled
		if *load != "" {
			m, err := flat.MapFile(*load)
			if err != nil {
				fatal(err)
			}
			// The hopset's arrays alias the mapping.
			defer runtime.KeepAlive(m)
			p, err := flat.Open(m.Bytes(), g)
			if err != nil {
				fatal(err)
			}
			if p.Direct == nil {
				fatal(fmt.Errorf("snapshot %s holds no multi-scale hopset", *load))
			}
			s = p.Direct
			// Open adopts g only when its fingerprint matches the arena's.
			if g != nil {
				if p.Graph != g {
					fatal(fmt.Errorf("snapshot %s was built for a different graph than %s", *load, *in))
				}
			} else {
				g = s.Base
				fmt.Printf("graph (from snapshot): n=%d m=%d weighted=%v\n",
					g.NumVertices(), g.NumEdges(), g.Weighted())
			}
			fmt.Printf("est multi-scale hopset (restored from %s): %d edges over %d bands\n",
				*load, s.Size(), len(s.Scales))
		} else {
			wp := hopset.DefaultWeightedParams(*seed)
			wp.Gamma2 = *gamma2
			if *workers > 0 {
				wp.Exec = exec.Parallel(*workers)
			}
			s = hopset.BuildScaled(g, wp, cost)
			fmt.Printf("est multi-scale hopset: %d edges over %d bands\n", s.Size(), len(s.Scales))
			fmt.Printf("cost: work=%d depth=%d\n", cost.Work(), cost.Depth())
		}
		if *save != "" {
			a, err := flat.Freeze(&flat.Parts{Graph: s.Base, Seed: s.Params.Seed, Direct: s})
			if err == nil {
				err = os.WriteFile(*save, a.Bytes(), 0o644)
			}
			if err != nil {
				fatal(err)
			}
			fmt.Printf("saved hopset snapshot to %s\n", *save)
		}
		if *queries > 0 && g.NumVertices() > 1 {
			r := rng.New(*seed + 3)
			var levels, ratios []float64
			for i := 0; i < *queries; i++ {
				s1 := r.Int31n(g.NumVertices())
				t1 := r.Int31n(g.NumVertices())
				if s1 == t1 {
					continue
				}
				exact := s.ExactDistance(s1, t1)
				if exact == graph.InfDist {
					continue
				}
				q := s.Query(s1, t1, nil)
				levels = append(levels, float64(q.Levels))
				ratios = append(ratios, float64(q.Dist)/float64(exact))
			}
			fmt.Printf("queries: %d, mean levels %.0f, mean returned/exact %.4f\n",
				len(levels), eval.Mean(levels), eval.Mean(ratios))
		}
	case "ks97":
		res := hopset.KS97(g, *seed, cost)
		fmt.Printf("ks97 hopset: %d edges\n", res.Size())
		fmt.Printf("cost: work=%d depth=%d\n", cost.Work(), cost.Depth())
	case "cohen":
		res := hopset.CohenStyle(g, 2, *seed, cost)
		fmt.Printf("cohen-style hopset: %d edges\n", res.Size())
		fmt.Printf("cost: work=%d depth=%d\n", cost.Work(), cost.Depth())
	case "limited":
		res := hopset.Limited(g, *alpha, 0.4, *seed, cost)
		fmt.Printf("limited hopset (alpha=%.2f): %d edges over %d rounds\n",
			*alpha, res.Size(), res.Levels)
		fmt.Printf("cost: work=%d depth=%d\n", cost.Work(), cost.Depth())
	default:
		fmt.Fprintf(os.Stderr, "hopset: unknown algorithm %q\n", *algo)
		os.Exit(2)
	}
	if *workers > 1 && *algo != "est" {
		fmt.Fprintln(os.Stderr, "hopset: note: -workers only affects -algo est; baselines ran sequentially")
	}
	if *save != "" && *algo != "est" {
		fmt.Fprintln(os.Stderr, "hopset: note: -save only applies to -algo est; nothing was written")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hopset:", err)
	os.Exit(1)
}
