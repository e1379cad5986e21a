package flat

import (
	"errors"
	"testing"

	"repro/internal/graph"
)

// TestRoundTripExact: an exact oracle's arena holds its base graph and
// nothing after it, and opens as the exact shape with the graph,
// journal and note intact.
func TestRoundTripExact(t *testing.T) {
	g := graph.UniformWeights(graph.Grid2D(6, 6), 50, 1)
	p := decomposedParts(t)
	p.Graph, p.Exact, p.Dec, p.Instances = g, true, nil, nil
	p.Journal = p.Journal[:1]
	data := freezeBytes(t, p)
	if data[56] != modeExact {
		t.Fatalf("mode byte = %d, want %d", data[56], modeExact)
	}
	got, err := Open(data, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !got.Exact || got.Degenerate || got.Direct != nil || got.Dec != nil || got.Instances != nil {
		t.Fatalf("exact round trip: exact=%v degenerate=%v direct=%v dec=%v instances=%d",
			got.Exact, got.Degenerate, got.Direct != nil, got.Dec != nil, len(got.Instances))
	}
	checkGraphEqual(t, g, got.Graph, "exact base")
	if len(got.Journal) != 1 || got.Journal[0] != p.Journal[0] || string(got.Note) != string(p.Note) {
		t.Fatalf("journal %+v note %q, want %+v %q", got.Journal, got.Note, p.Journal, p.Note)
	}
}

// TestOpenRejectsUnknownMode: a header whose mode byte names no oracle
// shape — with its checksum intact, so only the mode is wrong — fails
// with ErrCorrupt, and so does a direct arena relabeled exact (its
// hopset sections become index bytes nothing reads).
func TestOpenRejectsUnknownMode(t *testing.T) {
	data := freezeBytes(t, directParts(t))
	for _, mode := range []uint8{modeExact, 4, 0x7f, 0xff} {
		forged := append([]byte(nil), data...)
		forged[56] = mode
		put32(forged[64:], headerCRC(forged))
		p, err := Open(forged, nil)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("mode %d: Open = (%v, %v), want ErrCorrupt", mode, p, err)
		}
	}
}
