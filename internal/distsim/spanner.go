package distsim

import (
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/rng"
)

// This file ports the paper's unweighted spanner (Algorithm 2) to the
// synchronized distributed model, as Section 2.2 says is possible:
// "its employs breadth first search, which admits a simple
// implementation in synchronized distributed networks".
//
// Each vertex knows n, k, and a shared seed (used only to make the
// simulation reproducible; real deployments draw locally). The EST
// race runs as a flood: vertex v wakes at round floor(C − δ_v) and
// claims itself; an assigned vertex forwards its cluster's claim once.
// Claims are compared by (arrival round, center fraction, center id),
// which orders them exactly by real arrival time C − δ_center + dist —
// so the resulting partition provably equals the shared-memory
// clustering on the same shifts (adding the constant C−δ_max to every
// key preserves the order). Two closing rounds exchange cluster ids
// and select one boundary edge per (vertex, adjacent cluster) pair.

// Phase-1 claim: join center's cluster.
type claimMsg struct {
	center graph.V
	frac   float64
	dist   int32
}

// Phase-2 announcement: my cluster id.
type clusterMsg struct {
	center graph.V
}

// SpannerNode is the per-vertex state of the distributed spanner.
type SpannerNode struct {
	g *graph.Graph
	v graph.V

	wakeRound int
	wakeFrac  float64
	raceEnd   int // rounds [0, raceEnd) run the race

	center    graph.V
	parent    graph.V
	frac      float64
	dist      int32
	forwarded bool

	neighborCluster map[graph.V]graph.V

	// SelectedEdges are the spanner edges this vertex is responsible
	// for: its tree edge (parent, v) and its boundary picks (v, u).
	SelectedEdges [][2]graph.V
}

// NewSpannerNetwork prepares the distributed spanner protocol on g
// with stretch parameter k. It returns the network plus the node list
// (to collect results after Run). The shifts are drawn from seed in
// vertex order, which makes the outcome comparable to
// core.Cluster(g, ln(n)/(2k), seed).
func NewSpannerNetwork(g *graph.Graph, k int, seed uint64) (*Network, []*SpannerNode, int) {
	n := g.NumVertices()
	beta := math.Log(float64(max32(n, 3))) / (2 * float64(k))
	// C bounds both the largest shift (clamped, probability n^{-3})
	// and, consequently, the largest cluster radius, so the race is
	// deterministically over by round 2C.
	c := int(math.Ceil(3*math.Log(float64(max32(n, 3)))/beta)) + 1
	r := rng.New(seed)
	nodes := make([]*SpannerNode, n)
	raceEnd := 2*c + 2
	for v := graph.V(0); v < n; v++ {
		delta := r.Exp(beta)
		if delta > float64(c)-0.5 {
			delta = float64(c) - 0.5
		}
		s := float64(c) - delta
		nodes[v] = &SpannerNode{
			g:         g,
			v:         v,
			wakeRound: int(math.Floor(s)),
			wakeFrac:  s - math.Floor(s),
			raceEnd:   raceEnd,
			center:    graph.NoVertex,
			parent:    graph.NoVertex,
		}
	}
	net := New(g, func(v graph.V) Node { return nodes[v] })
	return net, nodes, raceEnd
}

func max32(a graph.V, b graph.V) graph.V {
	if a > b {
		return a
	}
	return b
}

// Step implements the protocol state machine.
func (nd *SpannerNode) Step(round int, inbox []Envelope) (map[graph.V]Message, bool) {
	switch {
	case round < nd.raceEnd:
		return nd.raceStep(round, inbox), false
	case round == nd.raceEnd:
		// Phase 2: announce cluster id to all neighbors.
		return Broadcast(nd.g, nd.v, clusterMsg{center: nd.center}), false
	default:
		// Phase 3: pick one boundary edge per adjacent foreign
		// cluster, then halt.
		nd.neighborCluster = map[graph.V]graph.V{}
		for _, env := range inbox {
			if m, ok := env.Payload.(clusterMsg); ok {
				nd.neighborCluster[env.From] = m.center
			}
		}
		nd.selectEdges()
		return nil, true
	}
}

// raceStep processes one round of the clustering race.
func (nd *SpannerNode) raceStep(round int, inbox []Envelope) map[graph.V]Message {
	if nd.center == graph.NoVertex {
		// Gather this round's claims (all arrive with the same
		// integer arrival = this round).
		best := claimMsg{center: graph.NoVertex}
		consider := func(c claimMsg) {
			if best.center == graph.NoVertex ||
				c.frac < best.frac ||
				(c.frac == best.frac && c.center < best.center) {
				best = c
			}
		}
		for _, env := range inbox {
			if m, ok := env.Payload.(claimMsg); ok {
				consider(m)
			}
		}
		var parent graph.V = graph.NoVertex
		for _, env := range inbox {
			if m, ok := env.Payload.(claimMsg); ok {
				if m == best {
					parent = env.From
					break
				}
			}
		}
		if round == nd.wakeRound {
			consider(claimMsg{center: nd.v, frac: nd.wakeFrac, dist: 0})
			if best.center == nd.v {
				parent = graph.NoVertex
			}
		}
		if best.center != graph.NoVertex {
			nd.center = best.center
			nd.parent = parent
			nd.frac = best.frac
			nd.dist = best.dist
		}
	}
	if nd.center != graph.NoVertex && !nd.forwarded {
		nd.forwarded = true
		return Broadcast(nd.g, nd.v, claimMsg{
			center: nd.center,
			frac:   nd.frac,
			dist:   nd.dist + 1,
		})
	}
	return nil
}

// selectEdges records the tree edge and the per-cluster boundary
// picks (lowest neighbor id per foreign cluster, a deterministic local
// rule).
func (nd *SpannerNode) selectEdges() {
	if nd.parent != graph.NoVertex {
		nd.SelectedEdges = append(nd.SelectedEdges, [2]graph.V{nd.parent, nd.v})
	}
	bestPerCluster := map[graph.V]graph.V{}
	for _, a := range nd.g.Arcs(nd.v) {
		u := a.To
		cu, ok := nd.neighborCluster[u]
		if !ok || cu == nd.center {
			continue
		}
		if prev, seen := bestPerCluster[cu]; !seen || u < prev {
			bestPerCluster[cu] = u
		}
	}
	for _, u := range bestPerCluster {
		nd.SelectedEdges = append(nd.SelectedEdges, [2]graph.V{nd.v, u})
	}
}

// Center returns the node's cluster center after the run.
func (nd *SpannerNode) Center() graph.V { return nd.center }

// DistributedSpanner runs the full protocol and returns the spanner as
// a deduplicated vertex-pair list together with the simulation stats.
func DistributedSpanner(g *graph.Graph, k int, seed uint64) ([][2]graph.V, Stats, error) {
	net, nodes, raceEnd := NewSpannerNetwork(g, k, seed)
	stats, err := net.Run(raceEnd + 8)
	if err != nil {
		return nil, stats, err
	}
	seen := map[[2]graph.V]bool{}
	var out [][2]graph.V
	for _, nd := range nodes {
		for _, e := range nd.SelectedEdges {
			a, b := e[0], e[1]
			if a > b {
				a, b = b, a
			}
			key := [2]graph.V{a, b}
			if !seen[key] {
				seen[key] = true
				out = append(out, key)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out, stats, nil
}
