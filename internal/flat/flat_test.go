package flat

import (
	"errors"
	"os"
	"reflect"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/hopset"
	"repro/internal/par"
	"repro/internal/wscale"
)

// directParts builds a small direct-mode oracle shape over a weighted
// grid graph.
func directParts(t testing.TB) *Parts {
	t.Helper()
	g := graph.UniformWeights(graph.Grid2D(6, 6), 50, 1)
	wp := hopset.DefaultWeightedParams(7)
	s := hopset.BuildScaled(g, wp, par.NewCost())
	return &Parts{Graph: g, Eps: 0.25, Seed: 7, Direct: s}
}

// decomposedParts builds a decomposed-mode oracle shape: a path graph
// with astronomically spread weights forces the wscale decomposition.
func decomposedParts(t testing.TB) *Parts {
	t.Helper()
	var edges []graph.Edge
	w := graph.W(1)
	for u := int32(0); u < 24; u++ {
		edges = append(edges, graph.Edge{U: u, V: u + 1, W: w})
		if u%4 == 3 {
			w *= 1 << 8
		}
	}
	g := graph.FromEdges(25, edges, true)
	dec := wscale.Build(g, 0.25, par.NewCost())
	if len(dec.Instances) < 2 {
		t.Fatalf("want a nontrivial decomposition, got %d instances", len(dec.Instances))
	}
	wp := hopset.DefaultWeightedParams(9)
	var instances []*hopset.Scaled
	for _, inst := range dec.Instances {
		instances = append(instances, hopset.BuildScaled(inst.G, wp, par.NewCost()))
	}
	return &Parts{Graph: g, Eps: 0.25, Seed: 9, Dec: dec, Instances: instances,
		FloorGen: 3,
		Journal: []dynamic.Entry{
			{Update: dynamic.Update{Op: dynamic.OpInsert, U: 0, V: 5, W: 2}, Gen: 4},
			{Update: dynamic.Update{Op: dynamic.OpReweight, U: 0, V: 5, W: 3}, Gen: 5},
			{Update: dynamic.Update{Op: dynamic.OpDelete, U: 0, V: 1}, Gen: 6},
		},
		Note: []byte(`{"kind":"test"}`),
	}
}

func freezeBytes(t testing.TB, p *Parts) []byte {
	t.Helper()
	a, err := Freeze(p)
	if err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	return a.Bytes()
}

func checkGraphEqual(t *testing.T, want, got *graph.Graph, label string) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() ||
		got.Weighted() != want.Weighted() {
		t.Fatalf("%s: shape mismatch", label)
	}
	if !reflect.DeepEqual(want.Edges(), got.Edges()) {
		t.Fatalf("%s: edge lists differ", label)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: restored graph invalid: %v", label, err)
	}
	for v := graph.V(0); v < want.NumVertices(); v++ {
		if !reflect.DeepEqual(want.Arcs(v), got.Arcs(v)) || !reflect.DeepEqual(want.Wide(v), got.Wide(v)) {
			t.Fatalf("%s: arcs of vertex %d differ", label, v)
		}
	}
}

func checkScaledEqual(t *testing.T, want, got *hopset.Scaled, label string) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: nil restored hopset", label)
	}
	if !reflect.DeepEqual(want.Params, stripExec(got.Params)) {
		t.Fatalf("%s: params differ: %+v vs %+v", label, want.Params, got.Params)
	}
	if len(got.Scales) != len(want.Scales) {
		t.Fatalf("%s: %d scales, want %d", label, len(got.Scales), len(want.Scales))
	}
	for i := range want.Scales {
		w, g := want.Scales[i], got.Scales[i]
		if w.D != g.D || w.WHat != g.WHat {
			t.Fatalf("%s: scale %d metadata differs", label, i)
		}
		if w.Res.Stars != g.Res.Stars || w.Res.Cliques != g.Res.Cliques || w.Res.Levels != g.Res.Levels {
			t.Fatalf("%s: scale %d counters differ", label, i)
		}
		if len(w.Res.Edges) != len(g.Res.Edges) || (len(w.Res.Edges) > 0 && !reflect.DeepEqual(w.Res.Edges, g.Res.Edges)) {
			t.Fatalf("%s: scale %d hopset edges differ", label, i)
		}
	}
	// Result-table dedup must survive: bands sharing a Result in the
	// original share one in the restored hopset.
	for i := range want.Scales {
		for j := range want.Scales {
			wantShared := want.Scales[i].Res == want.Scales[j].Res
			gotShared := got.Scales[i].Res == got.Scales[j].Res
			if wantShared != gotShared {
				t.Fatalf("%s: result sharing (%d,%d) = %v, want %v", label, i, j, gotShared, wantShared)
			}
		}
	}
	checkGraphEqual(t, want.Augmented(), got.Augmented(), label+" augmented")
}

func stripExec(wp hopset.WeightedParams) hopset.WeightedParams {
	wp.Exec = nil
	return wp
}

func TestRoundTripDirect(t *testing.T) {
	p := directParts(t)
	got, err := Open(freezeBytes(t, p), nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got.Eps != p.Eps || got.Seed != p.Seed || got.Degenerate || got.Dec != nil {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	if got.Fingerprint != p.Graph.Fingerprint() {
		t.Fatalf("fingerprint %#x, want %#x", got.Fingerprint, p.Graph.Fingerprint())
	}
	checkGraphEqual(t, p.Graph, got.Graph, "base")
	checkScaledEqual(t, p.Direct, got.Direct, "direct")
	if got.Note != nil || got.Journal != nil || got.FloorGen != 0 {
		t.Fatalf("unexpected note/journal: %+v", got)
	}
}

func TestOpenWithCallerGraph(t *testing.T) {
	p := directParts(t)
	data := freezeBytes(t, p)
	// A fingerprint-matching caller graph is adopted directly — the
	// oracle binds to it, not to a fresh view over the arena.
	got, err := Open(data, p.Graph)
	if err != nil {
		t.Fatalf("Open with caller graph: %v", err)
	}
	if got.Graph != p.Graph {
		t.Fatal("caller graph not adopted as the base")
	}
	if got.Direct.Base != p.Graph {
		t.Fatal("hopset not bound to the caller graph")
	}
	checkScaledEqual(t, p.Direct, got.Direct, "direct")
	// A non-matching caller graph is ignored: the fully validated
	// embedded copy comes back instead (the snapshot facade then turns
	// the fingerprint mismatch into its own error).
	other := graph.UniformWeights(graph.Grid2D(4, 4), 9, 99)
	got, err = Open(data, other)
	if err != nil {
		t.Fatalf("Open with foreign graph: %v", err)
	}
	if got.Graph == other {
		t.Fatal("foreign graph adopted despite fingerprint mismatch")
	}
	checkGraphEqual(t, p.Graph, got.Graph, "fallback base")
	if err := got.Graph.Validate(); err != nil {
		t.Fatalf("fallback base not validated: %v", err)
	}
}

func TestRoundTripDecomposed(t *testing.T) {
	p := decomposedParts(t)
	got, err := Open(freezeBytes(t, p), nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got.Dec == nil || len(got.Instances) != len(p.Instances) {
		t.Fatalf("decomposition shape mismatch")
	}
	checkGraphEqual(t, p.Graph, got.Graph, "base")
	d, gd := p.Dec, got.Dec
	if d.Eps != gd.Eps || d.B != gd.B || !reflect.DeepEqual(d.Cats, gd.Cats) ||
		!reflect.DeepEqual(d.LevelCounts, gd.LevelCounts) || !reflect.DeepEqual(d.Levels, gd.Levels) {
		t.Fatalf("decomposition skeleton differs")
	}
	for j := range d.Instances {
		wi, gi := d.Instances[j], gd.Instances[j]
		if wi.Level != gi.Level || !reflect.DeepEqual(wi.Label, gi.Label) {
			t.Fatalf("instance %d labeling differs", j)
		}
		checkGraphEqual(t, wi.G, gi.G, "instance graph")
		checkScaledEqual(t, p.Instances[j], got.Instances[j], "instance hopset")
	}
	// Label sharing with the level arrays must survive the round trip.
	for j := range gd.Instances {
		if kind, ref := labelKind(gd, gd.Instances[j]); kind == labelShared {
			if &gd.Instances[j].Label[0] != &gd.Levels[ref][0] {
				t.Fatalf("instance %d label no longer aliases level %d", j, ref)
			}
		}
	}
	if got.FloorGen != p.FloorGen || !reflect.DeepEqual(got.Journal, p.Journal) {
		t.Fatalf("journal mismatch: %+v vs %+v", got.Journal, p.Journal)
	}
	if string(got.Note) != string(p.Note) {
		t.Fatalf("note %q, want %q", got.Note, p.Note)
	}
}

// TestRoundTripWideGraph: a graph with weights on both sides of
// math.MaxUint32 freezes with its wide weight section and opens with
// Arcs and Wide equal to the source's (checkGraphEqual), its arcs
// saturated where the weight does not fit.
func TestRoundTripWideGraph(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1, W: 1<<32 - 1}, {U: 1, V: 2, W: 1 << 32}, {U: 2, V: 3, W: 1<<32 + 1}, {U: 3, V: 0, W: 5}}
	g := graph.FromEdges(4, edges, true)
	got, err := Open(freezeBytes(t, &Parts{Graph: g, Eps: 0.5, Seed: 1, Degenerate: true}), nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	checkGraphEqual(t, g, got.Graph, "wide base")
	wantArcs := []graph.Arc{{To: 2, W: 1<<32 - 1}, {To: 0, W: 5}}
	if a := got.Graph.Arcs(3); !reflect.DeepEqual(a, wantArcs) {
		t.Fatalf("arcs of vertex 3 = %v, want %v", a, wantArcs)
	}
	if w := got.Graph.Wide(3); !reflect.DeepEqual(w, []graph.W{1<<32 + 1, 5}) {
		t.Fatalf("wide weights of vertex 3 = %v", w)
	}
}

// TestOpenRejectsWideSectionMismatch: a wide graph frozen without its
// wide section, a narrow one frozen with one, and arcs whose weight
// disagrees with the edge list are corrupt, though every checksum is
// valid.
func TestOpenRejectsWideSectionMismatch(t *testing.T) {
	wide := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1 << 40}, {U: 1, V: 2, W: 3}}, true)
	narrow := graph.UniformWeights(graph.Grid2D(3, 3), 9, 1)
	mutate := map[string]func() *graph.Graph{
		"wide graph without wide section": func() *graph.Graph {
			v := wide.CSRView()
			v.Wide = nil
			return graph.FromCSRView(v)
		},
		"narrow graph with wide section": func() *graph.Graph {
			v := narrow.CSRView()
			v.Wide = make([]graph.W, len(v.Arcs))
			for i, a := range v.Arcs {
				v.Wide[i] = graph.W(a.W)
			}
			return graph.FromCSRView(v)
		},
		"arc weight off the edge list": func() *graph.Graph {
			v := narrow.CSRView()
			v.Arcs = append([]graph.Arc(nil), v.Arcs...)
			v.Arcs[0].W++
			return graph.FromCSRView(v)
		},
		"wide weight off the edge list": func() *graph.Graph {
			v := wide.CSRView()
			v.Wide = append([]graph.W(nil), v.Wide...)
			v.Wide[0]--
			return graph.FromCSRView(v)
		},
	}
	for name, f := range mutate {
		data := freezeBytes(t, &Parts{Graph: f(), Eps: 0.5, Seed: 1, Degenerate: true})
		if _, err := Open(data, nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Open = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestOpenRefusesOtherVersions: an intact arena header of version 3
// (the split neighbor/weight layout) or 5 is refused with ErrVersion,
// not read as the current layout and not reported as corrupt.
func TestOpenRefusesOtherVersions(t *testing.T) {
	data := freezeBytes(t, directParts(t))
	for _, v := range []uint32{3, 5} {
		old := append([]byte(nil), data...)
		put32(old[4:], v)
		put32(old[64:], headerCRC(old))
		_, err := Open(old, nil)
		if !errors.Is(err, ErrVersion) || errors.Is(err, ErrCorrupt) {
			t.Fatalf("version %d: Open = %v, want ErrVersion", v, err)
		}
	}
}

func TestRoundTripDegenerate(t *testing.T) {
	g := graph.FromEdges(1, nil, false)
	p := &Parts{Graph: g, Eps: 0.5, Seed: 1, Degenerate: true}
	got, err := Open(freezeBytes(t, p), nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !got.Degenerate || got.Direct != nil || got.Dec != nil {
		t.Fatalf("degenerate round trip: %+v", got)
	}
}

// TestOpenRejectsEveryBitFlippedByte asserts the total-coverage
// property: there is no byte in the arena whose corruption goes
// undetected (header, table, payloads, and alignment padding are all
// under some checksum or structural rule).
func TestOpenRejectsEveryBitFlippedByte(t *testing.T) {
	g := graph.UniformWeights(graph.Grid2D(3, 3), 9, 1)
	s := hopset.BuildScaled(g, hopset.DefaultWeightedParams(3), par.NewCost())
	data := freezeBytes(t, &Parts{Graph: g, Eps: 0.25, Seed: 3, Direct: s})
	if _, err := Open(data, nil); err != nil {
		t.Fatalf("pristine arena must open: %v", err)
	}
	mut := make([]byte, len(data))
	for i := range data {
		copy(mut, data)
		mut[i] ^= 0x40
		if _, err := Open(mut, nil); err == nil {
			t.Fatalf("flip at byte %d/%d accepted", i, len(data))
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at byte %d: error %v does not wrap ErrCorrupt", i, err)
		}
	}
}

func TestOpenRejectsEveryTruncation(t *testing.T) {
	g := graph.UniformWeights(graph.Grid2D(3, 3), 9, 1)
	s := hopset.BuildScaled(g, hopset.DefaultWeightedParams(3), par.NewCost())
	data := freezeBytes(t, &Parts{Graph: g, Eps: 0.25, Seed: 3, Direct: s})
	for n := 0; n < len(data); n++ {
		if _, err := Open(data[:n], nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: %v", n, err)
		}
	}
	// Trailing garbage is also not an arena.
	if _, err := Open(append(append([]byte(nil), data...), 0), nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("extended arena accepted")
	}
}

// forgeArena assembles an arena from raw table entries with every
// checksum recomputed (header, table, and each in-range payload), so
// tests can express layout-level forgeries — offsets past the end,
// wrapped sizes — that bit-flip mutation can never reach: a flip
// breaks a CRC before the layout rules run.
func forgeArena(total int, secs []section) []byte {
	data := make([]byte, total)
	copy(data, Magic)
	put32(data[4:], Version)
	put32(data[8:], endianMarker)
	put32(data[12:], uint32(len(secs)))
	put64(data[16:], uint64(total))
	put64(data[24:], 0xFEED)               // fingerprint
	put64(data[32:], mathFloat64bits(0.5)) // eps
	put64(data[40:], 1)                    // seed
	data[56] = modeDegenerate
	tableEnd := headerSize + len(secs)*tableEntSize
	for i, s := range secs {
		crc := s.crc
		if end := s.off + s.size; s.off >= uint64(tableEnd) && s.off <= uint64(total) && end >= s.off && end <= uint64(total) {
			crc = checksum(data[s.off:end])
		}
		ent := data[headerSize+i*tableEntSize:]
		put32(ent, s.kind)
		put32(ent[4:], crc)
		put64(ent[8:], s.off)
		put64(ent[16:], s.size)
	}
	put32(data[60:], checksum(data[headerSize:tableEnd]))
	put32(data[64:], headerCRC(data))
	return data
}

// TestOpenRejectsLayoutForgeries covers table-level attacks with
// valid checksums. The first case is a regression: a section ending
// unaligned just before the end of the arena puts the next entry's
// aligned offset past the end, the unsigned size check under-flowed,
// and the pad scan sliced out of bounds — Open panicked instead of
// returning ErrCorrupt.
func TestOpenRejectsLayoutForgeries(t *testing.T) {
	cases := []struct {
		name  string
		total int
		secs  []section
	}{
		// 2 sections in 127 bytes: section 0 ends at 125, so section 1's
		// tight-packing offset align8(125)=128 exceeds the arena.
		{"aligned offset past end", 127, []section{
			{kind: kindIndex, off: 120, size: 5},
			{kind: kindI32, off: 128, size: 0},
		}},
		{"aligned offset past end with huge size", 127, []section{
			{kind: kindIndex, off: 120, size: 5},
			{kind: kindI32, off: 128, size: 1 << 60},
		}},
		{"size wraps off+size past 2^64", 128, []section{
			{kind: kindIndex, off: 120, size: ^uint64(0) - 60},
		}},
		{"offset before the table", 128, []section{
			{kind: kindIndex, off: 0, size: 8, crc: 0xDEAD},
		}},
		{"gap between sections", 136, []section{
			{kind: kindIndex, off: 120, size: 8},
			{kind: kindI32, off: 136, size: 0},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Open panicked: %v", r)
				}
			}()
			if _, err := Open(forgeArena(tc.total, tc.secs), nil); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("forged layout: got %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestMapFileRoundTrip(t *testing.T) {
	p := directParts(t)
	data := freezeBytes(t, p)
	path := t.TempDir() + "/oracle.snap"
	if err := writeFile(path, data); err != nil {
		t.Fatal(err)
	}
	m, err := MapFile(path)
	if err != nil {
		t.Fatalf("MapFile: %v", err)
	}
	if m.Size() != int64(len(data)) {
		t.Fatalf("mapping of %d bytes, want %d", m.Size(), len(data))
	}
	got, err := Open(m.Bytes(), nil)
	if err != nil {
		t.Fatalf("Open(mapped): %v", err)
	}
	checkGraphEqual(t, p.Graph, got.Graph, "mapped base")
	checkScaledEqual(t, p.Direct, got.Direct, "mapped direct")
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestAlignBytes(t *testing.T) {
	base := alignedBuf(64)
	aligned := base[:32]
	if got := AlignBytes(aligned); &got[0] != &aligned[0] {
		t.Fatalf("aligned input copied")
	}
	misaligned := base[1:33]
	got := AlignBytes(misaligned)
	if &got[0] == &misaligned[0] {
		t.Fatalf("misaligned input not copied")
	}
	if !reflect.DeepEqual([]byte(got), []byte(misaligned)) {
		t.Fatalf("copy differs")
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}
