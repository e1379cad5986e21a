package flat

import (
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/hopset"
	"repro/internal/wscale"
)

// buildOracleParts builds an oracle the way the facade does: degenerate
// below two vertices or without edges, one direct multi-scale hopset
// while the weight ratio is polynomially bounded, a wscale
// decomposition with one hopset per instance beyond that.
func buildOracleParts(g *graph.Graph, eps float64, seed uint64) *Parts {
	p := &Parts{Graph: g, Eps: eps, Seed: seed}
	if g.NumVertices() < 2 || g.NumEdges() == 0 {
		p.Degenerate = true
		return p
	}
	wp := hopset.DefaultWeightedParams(seed)
	wp.Zeta = eps
	n := float64(g.NumVertices())
	if g.WeightRatio() <= (n/eps)*(n/eps)*(n/eps) {
		p.Direct = hopset.BuildScaled(g, wp, nil)
		return p
	}
	p.Dec = wscale.Build(g, eps, nil)
	for i, inst := range p.Dec.Instances {
		ip := wp
		ip.Seed = wp.Seed + uint64(i)*0x9e3779b97f4a7c15
		p.Instances = append(p.Instances, hopset.BuildScaled(inst.G, ip, nil))
	}
	return p
}

func testGraph() *graph.Graph {
	return graph.UniformWeights(graph.Grid2D(7, 8), 15, 3)
}

func TestOracleRoundTripDirect(t *testing.T) {
	g := testGraph()
	p := buildOracleParts(g, 0.3, 11)
	if p.Direct == nil {
		t.Fatal("expected a direct oracle")
	}
	p.Note = []byte("hello")
	back, err := Open(freezeBytes(t, p), nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if string(back.Note) != "hello" {
		t.Fatalf("note = %q", back.Note)
	}
	if back.Graph.Fingerprint() != g.Fingerprint() || back.Fingerprint != g.Fingerprint() {
		t.Fatal("embedded graph fingerprint mismatch")
	}
	if back.Direct == nil || back.Dec != nil || back.Degenerate {
		t.Fatal("restored oracle has the wrong shape")
	}
	if got, want := back.Direct.Size(), p.Direct.Size(); got != want {
		t.Fatalf("restored hopset size %d, want %d", got, want)
	}
	if got, want := len(back.Direct.Scales), len(p.Direct.Scales); got != want {
		t.Fatalf("restored %d scales, want %d", got, want)
	}
	for i := range p.Direct.Scales {
		a, b := p.Direct.Scales[i], back.Direct.Scales[i]
		if a.D != b.D || a.WHat != b.WHat || len(a.Res.Edges) != len(b.Res.Edges) {
			t.Fatalf("scale %d mismatch: %+v vs %+v", i, a, b)
		}
	}
	// Bands that reused one hopset still point at one object.
	shared := map[*hopset.Result]bool{}
	for i := range p.Direct.Scales {
		shared[p.Direct.Scales[i].Res] = true
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
	p := buildOracleParts(g, 0.25, 7)
	if p.Dec == nil {
		t.Fatal("expected a decomposed oracle")
	}
	back, err := Open(freezeBytes(t, p), nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if back.Note != nil {
		t.Fatalf("unexpected note %q", back.Note)
	}
	if back.Dec == nil || len(back.Instances) != len(p.Instances) {
		t.Fatalf("restored decomposition shape wrong: %d instances, want %d",
			len(back.Instances), len(p.Instances))
	}
	if len(back.Dec.Cats) != len(p.Dec.Cats) {
		t.Fatalf("restored %d category levels, want %d", len(back.Dec.Cats), len(p.Dec.Cats))
	}
	for j := range p.Dec.Levels {
		if back.Dec.LevelCounts[j] != p.Dec.LevelCounts[j] {
			t.Fatalf("level %d count mismatch", j)
		}
		for v := range p.Dec.Levels[j] {
			if back.Dec.Levels[j][v] != p.Dec.Levels[j][v] {
				t.Fatalf("level %d label %d mismatch", j, v)
			}
		}
	}
	for j, inst := range p.Dec.Instances {
		binst := back.Dec.Instances[j]
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
	// Where the built decomposition aliases a level labeling for an
	// instance, the restored one aliases too: the arena stores a
	// reference, not a second copy.
	for j, inst := range p.Dec.Instances {
		if len(inst.Label) == 0 {
			continue
		}
		for jj := range p.Dec.Levels {
			if len(p.Dec.Levels[jj]) > 0 && &p.Dec.Levels[jj][0] == &inst.Label[0] {
				if &back.Dec.Levels[jj][0] != &back.Dec.Instances[j].Label[0] {
					t.Fatalf("instance %d label sharing with level %d not restored", j, jj)
				}
			}
		}
	}
}

// TestScaledRoundTrip: a bare multi-scale hopset (the cmd/hopset
// snapshot) comes back queryable, answering as the original does.
func TestScaledRoundTrip(t *testing.T) {
	g := testGraph()
	s := hopset.BuildScaled(g, hopset.DefaultWeightedParams(5), nil)
	back, err := Open(freezeBytes(t, &Parts{Graph: g, Eps: 0.3, Seed: 5, Direct: s, Note: []byte("n")}), nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if string(back.Note) != "n" || back.Direct.Size() != s.Size() || len(back.Direct.Scales) != len(s.Scales) {
		t.Fatalf("scaled round trip mismatch: size %d vs %d", back.Direct.Size(), s.Size())
	}
	q1 := s.Query(nil, 0, g.NumVertices()-1, nil)
	q2 := back.Direct.Query(nil, 0, g.NumVertices()-1, nil)
	if q1.Dist != q2.Dist || q1.Levels != q2.Levels || q1.Fallback != q2.Fallback {
		t.Fatalf("restored query %+v != original %+v", q2, q1)
	}
}

// TestJournalRoundTrip: an oracle arena carries its journal
// bit-exactly, next to a direct hopset and a note.
func TestJournalRoundTrip(t *testing.T) {
	g := graph.UniformWeights(graph.Grid2D(4, 4), 9, 1)
	p := buildOracleParts(g, 0.3, 2)
	p.FloorGen, p.Journal = journalFixture()
	p.Note = []byte("spec")
	got, err := Open(freezeBytes(t, p), nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Note) != "spec" {
		t.Fatalf("note = %q", got.Note)
	}
	if got.FloorGen != p.FloorGen || len(got.Journal) != len(p.Journal) {
		t.Fatalf("journal shape: floor=%d len=%d", got.FloorGen, len(got.Journal))
	}
	for i := range p.Journal {
		if got.Journal[i].Gen != p.Journal[i].Gen || got.Journal[i].Update != p.Journal[i].Update {
			t.Fatalf("entry %d: got %+v, want %+v", i, got.Journal[i], p.Journal[i])
		}
	}
}

// TestUnknownVersionRejected: versions above the current one fail,
// not guess — ErrVersion behind an intact header checksum, ErrCorrupt
// behind a stale one.
func TestUnknownVersionRejected(t *testing.T) {
	data := freezeBytes(t, &Parts{Graph: graph.FromEdges(1, nil, false), Eps: 0.5, Seed: 1, Degenerate: true})
	for _, v := range []uint32{Version + 1, 1 << 31} {
		b := append([]byte(nil), data...)
		put32(b[4:], v)
		if _, err := Open(b, nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("version %d, stale header checksum: Open = %v, want ErrCorrupt", v, err)
		}
		put32(b[64:], headerCRC(b))
		if _, err := Open(b, nil); !errors.Is(err, ErrVersion) {
			t.Fatalf("version %d: Open = %v, want ErrVersion", v, err)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	p := buildOracleParts(testGraph(), 0.3, 11)
	p.Note = []byte("note")
	raw := freezeBytes(t, p)

	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[0] ^= 0xFF
		if _, err := Open(bad, nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("bad-version", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[4] = 99
		if _, err := Open(bad, nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := Open(nil, nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{7, 12, 20, len(raw) / 4, len(raw) / 2, len(raw) - 1} {
			if _, err := Open(raw[:cut], nil); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("prefix of %d bytes: err = %v, want ErrCorrupt", cut, err)
			}
		}
	})
	t.Run("flipped-payload-byte", func(t *testing.T) {
		// Flips across the header, table and payloads are each caught
		// by a checksum or a structural rule.
		for _, pos := range []int{30, 60, len(raw) / 3, len(raw) / 2, 2 * len(raw) / 3, len(raw) - 5} {
			bad := append([]byte(nil), raw...)
			bad[pos] ^= 0x01
			if _, err := Open(bad, nil); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip at %d: err = %v, want ErrCorrupt", pos, err)
			}
		}
	})
}
