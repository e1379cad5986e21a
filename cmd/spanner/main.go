// Command spanner builds a spanner of a graph file and reports size,
// cost, and measured stretch; optionally writes the spanner out.
//
// Usage:
//
//	spanner -in graph.txt [-k 3] [-algo est|baswana-sen|greedy] [-seed N] [-out spanner.txt] [-samples 200] [-workers N]
//
// Graph files use the text or binary format of internal/graph (see
// cmd/gengraph to create one; the format is sniffed). -out writes the
// spanner subgraph in the text format, which any tool here reads back.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/eval"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/spanner"
)

func main() {
	in := flag.String("in", "", "input graph file (text or binary; required)")
	out := flag.String("out", "", "optional output file for the spanner subgraph")
	k := flag.Int("k", 3, "stretch parameter k")
	algo := flag.String("algo", "est", "algorithm: est (ours), baswana-sen, greedy")
	seed := flag.Uint64("seed", 1, "random seed")
	samples := flag.Int("samples", 200, "edges sampled for stretch measurement (0 = skip)")
	workers := flag.Int("workers", 0, "worker cap for the est build: 0 or 1 = sequential, N > 1 = multicore capped at N")
	flag.Parse()

	if *in == "" {
		fmt.Fprintln(os.Stderr, "spanner: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	g, err := graph.ReadAuto(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	cost := par.NewCost()
	var res *spanner.Result
	switch *algo {
	case "est":
		opts := spanner.Options{Cost: cost}
		if *workers > 0 {
			opts.Exec = exec.Parallel(*workers)
		}
		if g.Weighted() {
			res = spanner.WeightedOpts(g, *k, *seed, opts)
		} else {
			res = spanner.UnweightedOpts(g, *k, *seed, opts)
		}
	case "baswana-sen":
		res = spanner.BaswanaSen(g, *k, *seed, cost)
	case "greedy":
		res = spanner.Greedy(g, *k, cost)
	default:
		fmt.Fprintf(os.Stderr, "spanner: unknown algorithm %q\n", *algo)
		os.Exit(2)
	}
	if *workers > 1 && *algo != "est" {
		fmt.Fprintln(os.Stderr, "spanner: note: -workers only affects -algo est; baselines ran sequentially")
	}

	fmt.Printf("graph: n=%d m=%d weighted=%v ratio=%.3g\n",
		g.NumVertices(), g.NumEdges(), g.Weighted(), g.WeightRatio())
	fmt.Printf("spanner (%s, k=%d): %d edges (%.1f%% of input)\n",
		*algo, *k, res.Size(), 100*float64(res.Size())/float64(g.NumEdges()))
	fmt.Printf("cost: work=%d depth=%d\n", cost.Work(), cost.Depth())
	if *samples > 0 {
		st := eval.SpannerStretch(g, res.EdgeIDs, *samples, *seed+7)
		fmt.Printf("stretch over %d sampled edges: max=%.3f mean=%.3f\n",
			st.Samples, st.Max, st.Mean)
	}
	if *out != "" {
		h := res.Graph(g)
		of, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := graph.WriteText(of, h); err != nil {
			fatal(err)
		}
		if err := of.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote spanner to %s\n", *out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spanner:", err)
	os.Exit(1)
}
