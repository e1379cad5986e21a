package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// binaryWrite is the little-endian write shorthand used to hand-craft
// malformed binary files.
func binaryWrite(w io.Writer, v any) error { return binary.Write(w, binary.LittleEndian, v) }

func graphsEqual(a, b *Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() ||
		a.Weighted() != b.Weighted() {
		return false
	}
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			return false
		}
	}
	return true
}

func TestTextRoundTrip(t *testing.T) {
	for _, g := range []*Graph{
		FromEdges(0, nil, false),
		FromEdges(3, nil, true),
		UniformWeights(Grid2D(4, 4), 50, 1),
		RandomConnectedGNM(80, 200, 2),
	} {
		var buf bytes.Buffer
		if err := WriteText(&buf, g); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		back, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("ReadText: %v", err)
		}
		if !graphsEqual(g, back) {
			t.Fatal("text round trip changed the graph")
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, g := range []*Graph{
		FromEdges(0, nil, false),
		FromEdges(3, nil, true),
		UniformWeights(Grid2D(4, 4), 50, 1),
		RandomConnectedGNM(80, 200, 2),
	} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatalf("WriteBinary: %v", err)
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("ReadBinary: %v", err)
		}
		if !graphsEqual(g, back) {
			t.Fatal("binary round trip changed the graph")
		}
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"",
		"wrong-magic 1 0 0\n",
		"spanhop-graph/v1 2 1 0\n",        // truncated edge list
		"spanhop-graph/v1 2 1 0\n0 1\n",   // short edge line
		"spanhop-graph/v1 2 1 0\nx y z\n", // non-numeric
		"spanhop-graph/v1 x 1 0\n0 1 1\n", // bad n
		"spanhop-graph/v1 2 x 0\n0 1 1\n", // bad m
		"spanhop-graph/v1 2 1\n0 1 1\n",   // short header
		"spanhop-graph/v1 2 -1 0\n",       // negative m
		forgedTextM,
	}
	for i, c := range cases {
		if _, err := ReadText(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// Inputs of a few dozen bytes whose headers declare counts far past
// what they carry.
const (
	forgedTextM    = "spanhop-graph/v1 2 1000000000000000 0\n0 1 1\n"
	forgedCoordsN  = "p aux sp co 67108864\nv 1 0 0\n"
	forgedAllocCap = 8 << 20
)

// TestForgedCountsBoundAllocation: a declared edge or vertex count
// must not size an allocation the input does not back. Each forged
// input must fail cleanly with the bytes allocated bounded by the
// readers' fixed buffers, not by the header.
func TestForgedCountsBoundAllocation(t *testing.T) {
	cases := []struct {
		name, in string
		read     func(io.Reader) error
	}{
		{"text", forgedTextM, func(r io.Reader) error { _, err := ReadText(r); return err }},
		{"dimacs-co", forgedCoordsN, func(r io.Reader) error { _, err := ReadDIMACSCoords(r); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := tc.read(strings.NewReader(tc.in))
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "truncated") {
				t.Fatalf("error %v, want a truncation error", err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > forgedAllocCap {
				t.Fatalf("allocated %d bytes for a %d-byte input (cap %d)", grew, len(tc.in), forgedAllocCap)
			}
		})
	}
}

func TestReadBinaryErrors(t *testing.T) {
	// Bad magic.
	if _, err := ReadBinary(bytes.NewReader([]byte{1, 2, 3, 4, 0, 0, 0, 0})); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated stream.
	var buf bytes.Buffer
	g := Path(10)
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader(full[:len(full)-4])); err == nil {
		t.Error("truncated binary accepted")
	}
}

// Property: arbitrary random weighted graphs survive both round trips.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, weighted bool) bool {
		g := RandomGNM(30, 60, seed)
		if weighted {
			g = UniformWeights(g, 1000, seed)
		}
		var tb, bb bytes.Buffer
		if WriteText(&tb, g) != nil || WriteBinary(&bb, g) != nil {
			return false
		}
		t1, err1 := ReadText(&tb)
		t2, err2 := ReadBinary(&bb)
		return err1 == nil && err2 == nil && graphsEqual(g, t1) && graphsEqual(g, t2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// ReadAuto must sniff both interchange formats and reject junk.
func TestReadAuto(t *testing.T) {
	g := UniformWeights(Grid2D(4, 5), 12, 3)
	var tb, bb bytes.Buffer
	if err := WriteText(&tb, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bb, g); err != nil {
		t.Fatal(err)
	}
	fromText, err := ReadAuto(&tb)
	if err != nil {
		t.Fatalf("ReadAuto(text): %v", err)
	}
	fromBin, err := ReadAuto(&bb)
	if err != nil {
		t.Fatalf("ReadAuto(binary): %v", err)
	}
	if !graphsEqual(g, fromText) || !graphsEqual(g, fromBin) {
		t.Fatal("ReadAuto changed the graph")
	}
	if _, err := ReadAuto(bytes.NewReader(nil)); err == nil {
		t.Error("ReadAuto accepted empty input")
	}
	if _, err := ReadAuto(bytes.NewReader([]byte("junk\n1 2 3\n"))); err == nil {
		t.Error("ReadAuto accepted junk")
	}
}

// TestRoundTripEdgeCases is the table-driven sweep of the codec's
// corner geometry: empty graphs (weighted and not), a single isolated
// vertex, an isolated MAX-index vertex (n larger than any endpoint —
// the header, not the edge list, must carry n), duplicate parallel
// edges, and a two-vertex weighted edge — through text, binary, and
// the ReadAuto sniffer.
func TestRoundTripEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
	}{
		{"empty-unweighted", FromEdges(0, nil, false)},
		{"empty-weighted", FromEdges(0, nil, true)},
		{"single-isolated-vertex", FromEdges(1, nil, false)},
		{"isolated-max-index-vertex", FromEdges(5, []Edge{{U: 0, V: 1, W: 3}}, true)},
		{"isolated-max-index-unweighted", FromEdges(7, []Edge{{U: 2, V: 3}}, false)},
		{"parallel-edges", FromEdges(3, []Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 0, W: 5}}, true)},
		{"two-vertex", FromEdges(2, []Edge{{U: 0, V: 1, W: 1 << 40}}, true)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var tb, bb bytes.Buffer
			if err := WriteText(&tb, tc.g); err != nil {
				t.Fatalf("WriteText: %v", err)
			}
			if err := WriteBinary(&bb, tc.g); err != nil {
				t.Fatalf("WriteBinary: %v", err)
			}
			for _, rt := range []struct {
				kind string
				g    *Graph
				err  error
			}{
				read("text", func() (*Graph, error) { return ReadText(bytes.NewReader(tb.Bytes())) }),
				read("binary", func() (*Graph, error) { return ReadBinary(bytes.NewReader(bb.Bytes())) }),
				read("auto-text", func() (*Graph, error) { return ReadAuto(bytes.NewReader(tb.Bytes())) }),
				read("auto-binary", func() (*Graph, error) { return ReadAuto(bytes.NewReader(bb.Bytes())) }),
			} {
				if rt.err != nil {
					t.Fatalf("%s: %v", rt.kind, rt.err)
				}
				if !graphsEqual(tc.g, rt.g) {
					t.Fatalf("%s round trip changed the graph", rt.kind)
				}
				if err := rt.g.Validate(); err != nil {
					t.Fatalf("%s: decoded graph invalid: %v", rt.kind, err)
				}
				if rt.g.Fingerprint() != tc.g.Fingerprint() {
					t.Fatalf("%s: fingerprint changed", rt.kind)
				}
			}
		})
	}
}

func read(kind string, f func() (*Graph, error)) (out struct {
	kind string
	g    *Graph
	err  error
}) {
	out.kind = kind
	out.g, out.err = f()
	return out
}

// TestSelfLoopFilesRejected: a graph can never hold a self-loop
// (FromEdges panics on programmer error), so files carrying one must
// fail as data errors in every reader — cleanly, never a panic.
func TestSelfLoopFilesRejected(t *testing.T) {
	text := "spanhop-graph/v1 3 1 0\n2 2 1\n"
	if _, err := ReadText(strings.NewReader(text)); err == nil {
		t.Error("ReadText accepted a self-loop")
	}
	if _, err := ReadAuto(strings.NewReader(text)); err == nil {
		t.Error("ReadAuto accepted a text self-loop")
	}
	// Binary: magic, n=3, m=1, flag=0, edge (2,2).
	var bb bytes.Buffer
	for _, v := range []any{binaryMagic, int32(3), int64(1), uint32(0), [2]int32{2, 2}} {
		if err := binaryWrite(&bb, v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ReadBinary(bytes.NewReader(bb.Bytes())); err == nil {
		t.Error("ReadBinary accepted a self-loop")
	}
	if _, err := ReadAuto(bytes.NewReader(bb.Bytes())); err == nil {
		t.Error("ReadAuto accepted a binary self-loop")
	}
}

// TestBinaryBadWeightFlag: the weighted flag is 0 or 1; anything else
// is corruption, not a graph.
func TestBinaryBadWeightFlag(t *testing.T) {
	var bb bytes.Buffer
	for _, v := range []any{binaryMagic, int32(2), int64(0), uint32(7)} {
		if err := binaryWrite(&bb, v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ReadBinary(bytes.NewReader(bb.Bytes())); err == nil {
		t.Error("ReadBinary accepted weighted flag 7")
	}
}

// Fingerprint must be stable across (de)serialization and sensitive to
// any logical change: weights, endpoints, weightedness, vertex count.
func TestFingerprint(t *testing.T) {
	g := UniformWeights(Grid2D(5, 5), 20, 7)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != g.Fingerprint() {
		t.Fatal("fingerprint changed across a binary round trip")
	}
	if UniformWeights(Grid2D(5, 5), 20, 8).Fingerprint() == g.Fingerprint() {
		t.Fatal("different weights, same fingerprint")
	}
	if Grid2D(5, 5).Fingerprint() == g.Fingerprint() {
		t.Fatal("unweighted vs weighted, same fingerprint")
	}
	if Grid2D(5, 6).Fingerprint() == Grid2D(5, 5).Fingerprint() {
		t.Fatal("different shape, same fingerprint")
	}
	if Grid2D(5, 5).Fingerprint() != Grid2D(5, 5).Fingerprint() {
		t.Fatal("fingerprint not deterministic")
	}
}

// FromEdgesOrig must preserve the mapping, including empty-but-present.
func TestFromEdgesOrig(t *testing.T) {
	edges := []Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}}
	g := FromEdgesOrig(3, edges, true, []int32{7, 9})
	if !g.HasOrigEdgeIDs() || g.OrigEdgeID(0) != 7 || g.OrigEdgeID(1) != 9 {
		t.Fatalf("mapping lost: %v %v", g.OrigEdgeID(0), g.OrigEdgeID(1))
	}
	if e := FromEdgesOrig(2, nil, false, []int32{}); !e.HasOrigEdgeIDs() {
		t.Fatal("empty-but-present mapping collapsed to absent")
	}
	if p := FromEdgesOrig(3, edges, true, nil); p.HasOrigEdgeIDs() {
		t.Fatal("nil mapping reported as present")
	}
}

// TestWeightCap: a weight w with w·max(n−1, 1) ≥ InfDist is refused at
// every graph entry point — FromEdges panics, the text and binary
// readers return errors — while the cap itself is accepted. The case
// is two edges of weight 2^61 on three vertices, where an uncapped
// graph reported a reachable vertex at InfDist.
func TestWeightCap(t *testing.T) {
	const heavy = W(1) << 61
	wCap := WeightCap(3)
	if wCap != (InfDist-1)/2 || 2*wCap >= InfDist || 2*(wCap+1) < InfDist {
		t.Fatalf("WeightCap(3) = %d is not the largest w with 2w < InfDist", wCap)
	}
	if WeightCap(1) != InfDist-1 || WeightCap(2) != InfDist-1 {
		t.Fatalf("WeightCap(1), WeightCap(2) = %d, %d, want InfDist-1", WeightCap(1), WeightCap(2))
	}
	path := func(w W) []Edge { return []Edge{{U: 0, V: 1, W: w}, {U: 1, V: 2, W: w}} }
	if g := FromEdges(3, path(wCap), true); g.MaxWeight() != wCap {
		t.Fatalf("FromEdges at the cap: max weight %d, want %d", g.MaxWeight(), wCap)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("FromEdges accepted weight 2^61 on 3 vertices")
			}
		}()
		FromEdges(3, path(heavy), true)
	}()

	text := fmt.Sprintf("%s 3 2 1\n0 1 %d\n1 2 1\n", textMagic, heavy)
	if _, err := ReadText(strings.NewReader(text)); err == nil || !strings.Contains(err.Error(), "exceeds the cap") {
		t.Fatalf("ReadText = %v, want a cap error", err)
	}
	var bin bytes.Buffer
	for _, v := range []any{uint32(binaryMagic), int32(3), int64(2), uint32(1),
		[2]int32{0, 1}, [2]int32{1, 2}, int64(heavy), int64(1)} {
		if err := binaryWrite(&bin, v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ReadBinary(&bin); err == nil || !strings.Contains(err.Error(), "exceeds the cap") {
		t.Fatalf("ReadBinary = %v, want a cap error", err)
	}

	// Hopset-style shortcuts are base distances: Augment holds them
	// below InfDist, not to the per-edge cap.
	aug := FromEdges(3, path(wCap), true).Augment([]Edge{{U: 0, V: 2, W: 2 * wCap}})
	if aug.NumEdges() != 3 || aug.MaxWeight() != 2*wCap {
		t.Fatalf("Augment: %d edges, max weight %d", aug.NumEdges(), aug.MaxWeight())
	}
}
