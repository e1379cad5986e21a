// Package distsim is a synchronized distributed message-passing
// simulator (the CONGEST-style model of the paper's Section 2.2
// discussion): computation proceeds in rounds; in each round every
// vertex processes the messages delivered in the previous round,
// updates local state, and sends at most one bounded-size message per
// incident edge.
//
// The paper observes that its unweighted spanner construction "can be
// ported to this distributed setting with similar guarantees, as it
// employs breadth first search, which admits a simple implementation
// in synchronized distributed networks". This package provides the
// simulator and spanner.go implements that port: EST clustering as a
// distributed race (each vertex wakes at its shifted start time and
// floods cluster claims), followed by one round of boundary-edge
// proposals. The number of rounds matches the O(k log n)-flavored
// bound, and the per-round message complexity is at most one message
// per edge direction, both of which the simulator reports.
//
// The simulator is deterministic: vertices are stepped in id order and
// message delivery order is (sender id, edge order).
package distsim

import (
	"fmt"

	"repro/internal/graph"
)

// Message is an opaque payload exchanged between neighbors. Algorithms
// define their own concrete types; the simulator only routes.
type Message interface{}

// Envelope is a delivered message with its arrival port.
type Envelope struct {
	// From is the sending neighbor.
	From graph.V
	// Payload is the message content.
	Payload Message
}

// Node is the algorithm state at one vertex.
type Node interface {
	// Step processes one synchronous round: inbox holds the messages
	// delivered this round; the returned map routes outgoing messages
	// by neighbor (only neighbors of the vertex are legal keys; a nil
	// or empty map sends nothing). halted=true means the node has
	// terminated and will not be stepped again (late messages are
	// dropped).
	Step(round int, inbox []Envelope) (outbox map[graph.V]Message, halted bool)
}

// Stats summarizes a finished simulation.
type Stats struct {
	// Rounds executed before global quiescence.
	Rounds int
	// Messages is the total message count.
	Messages int64
	// MaxPerRound is the peak per-round message count (congestion).
	MaxPerRound int64
}

// Network couples a graph with per-vertex algorithm nodes.
type Network struct {
	g     *graph.Graph
	nodes []Node
}

// New builds a network over g; factory constructs the node for each
// vertex.
func New(g *graph.Graph, factory func(v graph.V) Node) *Network {
	n := &Network{g: g, nodes: make([]Node, g.NumVertices())}
	for v := graph.V(0); v < g.NumVertices(); v++ {
		n.nodes[v] = factory(v)
	}
	return n
}

// Run executes synchronous rounds until every node has halted and no
// messages are in flight, or maxRounds is reached (returned error).
func (n *Network) Run(maxRounds int) (Stats, error) {
	var stats Stats
	inboxes := make([][]Envelope, len(n.nodes))
	halted := make([]bool, len(n.nodes))
	haltedCount := 0
	pending := int64(0)
	for round := 0; ; round++ {
		if haltedCount == len(n.nodes) && pending == 0 {
			stats.Rounds = round
			return stats, nil
		}
		if round >= maxRounds {
			stats.Rounds = round
			return stats, fmt.Errorf("distsim: no quiescence after %d rounds", maxRounds)
		}
		next := make([][]Envelope, len(n.nodes))
		var sentThisRound int64
		pending = 0
		for v := range n.nodes {
			if halted[v] {
				continue
			}
			inbox := inboxes[v]
			inboxes[v] = nil
			out, h := n.nodes[v].Step(round, inbox)
			if h {
				halted[v] = true
				haltedCount++
			}
			for to, payload := range out {
				if !n.adjacent(graph.V(v), to) {
					return stats, fmt.Errorf("distsim: vertex %d sent to non-neighbor %d", v, to)
				}
				next[to] = append(next[to], Envelope{From: graph.V(v), Payload: payload})
				sentThisRound++
			}
		}
		// Deliver (messages to halted nodes are dropped, but still
		// count as sent).
		for v := range next {
			if halted[v] {
				next[v] = nil
				continue
			}
			pending += int64(len(next[v]))
			// Wake a quiescent-but-not-halted node only when it has
			// mail; all nodes are stepped anyway in this simple
			// stepper, so nothing to do.
		}
		inboxes = next
		stats.Messages += sentThisRound
		if sentThisRound > stats.MaxPerRound {
			stats.MaxPerRound = sentThisRound
		}
	}
}

func (n *Network) adjacent(u, v graph.V) bool {
	// Degree-bounded scan; the simulator is a correctness harness,
	// not a performance path.
	for _, a := range n.g.Arcs(u) {
		if a.To == v {
			return true
		}
	}
	return false
}

// Broadcast is a helper constructing an outbox that sends the same
// payload to every neighbor of v.
func Broadcast(g *graph.Graph, v graph.V, payload Message) map[graph.V]Message {
	out := make(map[graph.V]Message, g.Degree(v))
	for _, a := range g.Arcs(v) {
		out[a.To] = payload
	}
	return out
}
