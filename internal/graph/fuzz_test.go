package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadText hardens the text parser: arbitrary input must never
// panic, and any successfully parsed graph must be valid and must
// round-trip.
func FuzzReadText(f *testing.F) {
	// Seed corpus: valid files, truncations, and junk.
	var good bytes.Buffer
	_ = WriteText(&good, UniformWeights(Grid2D(3, 3), 5, 1))
	f.Add(good.String())
	f.Add("spanhop-graph/v1 3 2 1\n0 1 5\n1 2 7\n")
	f.Add("spanhop-graph/v1 3 2 1\n0 1 5\n")
	f.Add("spanhop-graph/v1 0 0 0\n")
	f.Add("spanhop-graph/v1 -1 0 0\n")
	f.Add("spanhop-graph/v1 2 1 0\n0 0 1\n")  // self loop
	f.Add("spanhop-graph/v1 2 1 1\n0 1 -5\n") // negative weight
	f.Add("spanhop-graph/v1 2 99999999 0\n")  // absurd m
	f.Add("wrong 1 2 3\n")
	f.Add("")
	f.Add("spanhop-graph/v1 2 1 1\n0 1 99999999999999999999\n") // overflow
	f.Add(forgedTextM)

	f.Fuzz(func(t *testing.T, input string) {
		defer func() {
			// FromEdges panics on malformed edges are programming
			// errors for direct callers, but the parser must reject
			// malformed files with an error, never a panic. Recover
			// and fail loudly if one escapes.
			if r := recover(); r != nil {
				t.Fatalf("ReadText panicked on %q: %v", input, r)
			}
		}()
		g, err := ReadText(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parsed graph invalid: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, g); err != nil {
			t.Fatalf("re-serialize failed: %v", err)
		}
		back, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
			t.Fatal("round trip changed the graph")
		}
	})
}

// FuzzReadBinary does the same for the binary format.
func FuzzReadBinary(f *testing.F) {
	var good bytes.Buffer
	_ = WriteBinary(&good, UniformWeights(Grid2D(3, 3), 5, 1))
	f.Add(good.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x31, 0x48, 0x50, 0x53}) // magic only
	f.Add(good.Bytes()[:len(good.Bytes())-3])

	f.Fuzz(func(t *testing.T, input []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("ReadBinary panicked: %v", r)
			}
		}()
		g, err := ReadBinary(bytes.NewReader(input))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parsed graph invalid: %v", err)
		}
	})
}
