package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/hopset"
	"repro/internal/wscale"
)

// buildOracle constructs a small decomposed-or-direct oracle exchange
// object the way the facade would.
func buildOracle(g *graph.Graph, eps float64, seed uint64) (*Oracle, *graph.Graph) {
	o := &Oracle{Eps: eps, Seed: seed}
	if g.NumVertices() < 2 || g.NumEdges() == 0 {
		o.Degenerate = true
		return o, g
	}
	wp := hopset.DefaultWeightedParams(seed)
	wp.Zeta = eps
	n := float64(g.NumVertices())
	if g.WeightRatio() <= (n/eps)*(n/eps)*(n/eps) {
		o.Direct = hopset.BuildScaled(g, wp, nil)
		return o, g
	}
	o.Dec = wscale.Build(g, eps, nil)
	for i, inst := range o.Dec.Instances {
		p := wp
		p.Seed = wp.Seed + uint64(i)*0x9e3779b97f4a7c15
		o.Instances = append(o.Instances, hopset.BuildScaled(inst.G, p, nil))
	}
	return o, g
}

func mustWrite(t *testing.T, g *graph.Graph, o *Oracle, note []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteOracle(&buf, g, o, note); err != nil {
		t.Fatalf("WriteOracle: %v", err)
	}
	return buf.Bytes()
}

func testGraph() *graph.Graph {
	return graph.UniformWeights(graph.Grid2D(7, 8), 15, 3)
}

func TestOracleRoundTripDirect(t *testing.T) {
	g := testGraph()
	o, _ := buildOracle(g, 0.3, 11)
	if o.Direct == nil {
		t.Fatal("expected a direct oracle")
	}
	raw := mustWrite(t, g, o, []byte("hello"))
	back, eg, note, err := ReadOracle(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadOracle: %v", err)
	}
	if string(note) != "hello" {
		t.Fatalf("note = %q", note)
	}
	if eg.Fingerprint() != g.Fingerprint() {
		t.Fatal("embedded graph fingerprint mismatch")
	}
	if back.Direct == nil || back.Dec != nil || back.Degenerate {
		t.Fatal("restored oracle has the wrong shape")
	}
	if got, want := back.Direct.Size(), o.Direct.Size(); got != want {
		t.Fatalf("restored hopset size %d, want %d", got, want)
	}
	if got, want := len(back.Direct.Scales), len(o.Direct.Scales); got != want {
		t.Fatalf("restored %d scales, want %d", got, want)
	}
	for i := range o.Direct.Scales {
		a, b := o.Direct.Scales[i], back.Direct.Scales[i]
		if a.D != b.D || a.WHat != b.WHat || len(a.Res.Edges) != len(b.Res.Edges) {
			t.Fatalf("scale %d mismatch: %+v vs %+v", i, a, b)
		}
	}
	// Shared-result dedup must survive: bands that reused one hopset
	// still point at one object.
	shared := map[*hopset.Result]bool{}
	for i := range o.Direct.Scales {
		shared[o.Direct.Scales[i].Res] = true
	}
	restored := map[*hopset.Result]bool{}
	for i := range back.Direct.Scales {
		restored[back.Direct.Scales[i].Res] = true
	}
	if len(restored) != len(shared) {
		t.Fatalf("result sharing changed: %d unique originally, %d restored", len(shared), len(restored))
	}
}

func TestOracleRoundTripDecomposed(t *testing.T) {
	g := graph.ExponentialWeights(graph.RandomConnectedGNM(90, 360, 5), 10, 28, 6)
	o, _ := buildOracle(g, 0.25, 7)
	if o.Dec == nil {
		t.Fatal("expected a decomposed oracle")
	}
	raw := mustWrite(t, g, o, nil)
	back, _, note, err := ReadOracle(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadOracle: %v", err)
	}
	if note != nil {
		t.Fatalf("unexpected note %q", note)
	}
	if back.Dec == nil || len(back.Instances) != len(o.Instances) {
		t.Fatalf("restored decomposition shape wrong: %d instances, want %d",
			len(back.Instances), len(o.Instances))
	}
	if len(back.Dec.Cats) != len(o.Dec.Cats) {
		t.Fatalf("restored %d category levels, want %d", len(back.Dec.Cats), len(o.Dec.Cats))
	}
	for j := range o.Dec.Levels {
		if back.Dec.LevelCounts[j] != o.Dec.LevelCounts[j] {
			t.Fatalf("level %d count mismatch", j)
		}
		for v := range o.Dec.Levels[j] {
			if back.Dec.Levels[j][v] != o.Dec.Levels[j][v] {
				t.Fatalf("level %d label %d mismatch", j, v)
			}
		}
		inst, binst := o.Dec.Instances[j], back.Dec.Instances[j]
		if inst.G.NumVertices() != binst.G.NumVertices() || inst.G.NumEdges() != binst.G.NumEdges() {
			t.Fatalf("instance %d graph shape mismatch", j)
		}
		if inst.G.HasOrigEdgeIDs() != binst.G.HasOrigEdgeIDs() {
			t.Fatalf("instance %d lost its contraction back-mapping", j)
		}
		for e := int32(0); int64(e) < inst.G.NumEdges(); e++ {
			if inst.G.OrigEdgeID(e) != binst.G.OrigEdgeID(e) {
				t.Fatalf("instance %d orig edge id %d mismatch", j, e)
			}
		}
	}
	// Instance hopsets must be bound to the restored instance graphs.
	for j, s := range back.Instances {
		if s.Base != back.Dec.Instances[j].G {
			t.Fatalf("instance %d hopset bound to the wrong graph", j)
		}
	}
	// Label-slice sharing must survive: where the built decomposition
	// aliases a level labeling for an instance, the restored one must
	// alias too (the snapshot stores a reference, not a second copy).
	for j, inst := range o.Dec.Instances {
		if len(inst.Label) == 0 {
			continue
		}
		for jj := range o.Dec.Levels {
			if len(o.Dec.Levels[jj]) > 0 && &o.Dec.Levels[jj][0] == &inst.Label[0] {
				if &back.Dec.Levels[jj][0] != &back.Dec.Instances[j].Label[0] {
					t.Fatalf("instance %d label sharing with level %d not restored", j, jj)
				}
			}
		}
	}
}

func TestOracleRejectsPartial(t *testing.T) {
	g := graph.ExponentialWeights(graph.RandomConnectedGNM(60, 240, 9), 10, 28, 10)
	o, _ := buildOracle(g, 0.25, 3)
	if o.Dec == nil {
		t.Skip("graph did not decompose")
	}
	o.Instances[0] = nil // simulate a canceled build
	var buf bytes.Buffer
	if err := WriteOracle(&buf, g, o, nil); err == nil {
		t.Fatal("WriteOracle accepted a partial oracle")
	}
}

func TestScaledRoundTrip(t *testing.T) {
	g := testGraph()
	s := hopset.BuildScaled(g, hopset.DefaultWeightedParams(5), nil)
	var buf bytes.Buffer
	if err := WriteScaled(&buf, s, []byte("n")); err != nil {
		t.Fatalf("WriteScaled: %v", err)
	}
	back, note, err := ReadScaled(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadScaled: %v", err)
	}
	if string(note) != "n" || back.Size() != s.Size() || len(back.Scales) != len(s.Scales) {
		t.Fatalf("scaled round trip mismatch: size %d vs %d", back.Size(), s.Size())
	}
	// The restored hopset must be queryable (cold caches repopulate).
	q1 := s.Query(0, g.NumVertices()-1, nil)
	q2 := back.Query(0, g.NumVertices()-1, nil)
	if q1.Dist != q2.Dist || q1.Levels != q2.Levels || q1.Fallback != q2.Fallback {
		t.Fatalf("restored query %+v != original %+v", q2, q1)
	}
}

func TestSpannerRoundTrip(t *testing.T) {
	g := testGraph()
	ids := []int32{0, 3, 4, 9, 17}
	var buf bytes.Buffer
	if err := WriteSpanner(&buf, g, 3, 77, ids, nil); err != nil {
		t.Fatalf("WriteSpanner: %v", err)
	}
	k, seed, back, _, err := ReadSpanner(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatalf("ReadSpanner: %v", err)
	}
	if k != 3 || seed != 77 || len(back) != len(ids) {
		t.Fatalf("spanner round trip: k=%d seed=%d ids=%v", k, seed, back)
	}
	for i := range ids {
		if back[i] != ids[i] {
			t.Fatalf("id %d: %d != %d", i, back[i], ids[i])
		}
	}
	// A different graph must be rejected by fingerprint.
	other := graph.UniformWeights(graph.Grid2D(7, 8), 15, 4)
	if _, _, _, _, err := ReadSpanner(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Fatal("ReadSpanner accepted a mismatched graph")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	g := testGraph()
	o, _ := buildOracle(g, 0.3, 11)
	raw := mustWrite(t, g, o, []byte("note"))

	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[0] ^= 0xFF
		if _, _, _, err := ReadOracle(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("bad-version", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[4] = 99
		if _, _, _, err := ReadOracle(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, _, _, err := ReadOracle(bytes.NewReader(nil)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		// Every proper prefix must error, never hang or panic.
		for _, cut := range []int{7, 12, 20, len(raw) / 4, len(raw) / 2, len(raw) - 1} {
			if cut >= len(raw) {
				continue
			}
			if _, _, _, err := ReadOracle(bytes.NewReader(raw[:cut])); err == nil {
				t.Fatalf("prefix of %d bytes decoded cleanly", cut)
			}
		}
	})
	t.Run("flipped-payload-byte", func(t *testing.T) {
		// Flip bytes across the stream: every flip must be caught (by
		// CRC, validation, or framing) or — if it lands in a section's
		// own CRC trailer — reported as a mismatch.
		for _, pos := range []int{30, 60, len(raw) / 3, len(raw) / 2, 2 * len(raw) / 3, len(raw) - 5} {
			bad := append([]byte(nil), raw...)
			bad[pos] ^= 0x01
			if _, _, _, err := ReadOracle(bytes.NewReader(bad)); err == nil {
				t.Fatalf("flip at %d decoded cleanly", pos)
			}
		}
	})
}

// TestForgedVertexCountBoundsAllocation: the degenerate stream with its
// GRAPH vertex count rewritten to the format limit and the section CRC
// left stale must fail on the CRC before the count sizes the graph's
// CSR arrays (about 1.3 GB at 2^26 vertices).
func TestForgedVertexCountBoundsAllocation(t *testing.T) {
	const allocCap = 16 << 20
	raw := mustWrite(t, graph.FromEdges(1, nil, false), &Oracle{Eps: 0.5, Seed: 1, Degenerate: true}, nil)
	// Walk the frames (8-byte header; per section type u32, length
	// u64, payload, CRC u32) to the GRAPH payload's leading count.
	off := 8
	for binary.LittleEndian.Uint32(raw[off:]) != secGraph {
		off += 12 + int(binary.LittleEndian.Uint64(raw[off+4:])) + 4
	}
	binary.LittleEndian.PutUint32(raw[off+12:], maxVertices)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := ReadOracle(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > allocCap {
		t.Fatalf("allocated %d bytes for a %d-byte stream (cap %d)", grew, len(raw), allocCap)
	}
}
