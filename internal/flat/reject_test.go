package flat

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/hopset"
)

// Index layout of a direct-mode arena, for forging counts: the note
// and journal references, then the base graph (n, m, weighted, minW,
// maxW and six section references), then the hopset's eleven
// parameters, then its result count.
const (
	baseGraphAt     = 2 * 4
	graphIndexSize  = 4 + 8 + 1 + 8 + 8 + 6*4
	paramsIndexSize = 11 * 8
	numResultsAt    = baseGraphAt + graphIndexSize + paramsIndexSize

	// forgedAllocCap bounds what Open may allocate for a forged arena
	// of a few kilobytes.
	forgedAllocCap = 1 << 20
)

// reforge returns a copy of an arena whose index section was rewritten
// by mutate (in place, same length), with the index, table and header
// checksums recomputed: a forged arena that only the structural checks
// can reject.
func reforge(data []byte, mutate func(index []byte)) []byte {
	out := alignedBuf(len(data))
	copy(out, data)
	ent := out[headerSize:]
	off, size := le64(ent[8:]), le64(ent[16:])
	mutate(out[off : off+size])
	put32(ent[4:], checksum(out[off:off+size]))
	table := out[headerSize : headerSize+int(le32(out[12:]))*tableEntSize]
	put32(out[60:], checksum(table))
	put32(out[64:], headerCRC(out))
	return out
}

// gridHopsetArena is a valid direct arena over a weighted 4×4 grid.
func gridHopsetArena(t testing.TB) ([]byte, *hopset.Scaled) {
	g := graph.UniformWeights(graph.Grid2D(4, 4), 9, 1)
	s := hopset.BuildScaled(g, hopset.DefaultWeightedParams(2), nil)
	a, err := Freeze(&Parts{Graph: g, Eps: 0.3, Seed: 2, Direct: s, Note: []byte("spec")})
	if err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	return a.Bytes(), s
}

// forgedCounts returns the grid arena with its result count, and with
// its scale count, set to maxSections.
func forgedCounts(t testing.TB) (results, scales []byte) {
	data, s := gridHopsetArena(t)
	res, _ := s.Results()
	numScalesAt := numResultsAt + 4 + len(res)*resultIndexSize
	return reforge(data, func(ix []byte) {
			if got := le32(ix[numResultsAt:]); got != uint32(len(res)) {
				t.Fatalf("index holds result count %d at %d, want %d", got, numResultsAt, len(res))
			}
			put32(ix[numResultsAt:], maxSections)
		}), reforge(data, func(ix []byte) {
			if got := le32(ix[numScalesAt:]); got != uint32(len(s.Scales)) {
				t.Fatalf("index holds scale count %d at %d, want %d", got, numScalesAt, len(s.Scales))
			}
			put32(ix[numScalesAt:], maxSections)
		})
}

// forgedVertexCount is a degenerate one-vertex arena whose base graph
// declares maxVertices vertices.
func forgedVertexCount(t *testing.T) []byte {
	data := freezeBytes(t, &Parts{Graph: graph.FromEdges(1, nil, false), Eps: 0.5, Seed: 1, Degenerate: true})
	return reforge(data, func(ix []byte) {
		if got := le32(ix[baseGraphAt:]); got != 1 {
			t.Fatalf("index holds vertex count %d at %d, want 1", got, baseGraphAt)
		}
		put32(ix[baseGraphAt:], maxVertices)
	})
}

// layoutForgedArena is a 127-byte arena whose checksums are all valid
// but whose section 0 ends unaligned at byte 125, so section 1's
// tight-packing offset align8(125)=128 lands past the end of the file.
// Byte-flip mutants never reach this corruption class — a flip breaks
// a CRC before the layout rules run — so the fuzz corpus carries it.
func layoutForgedArena() []byte {
	return forgeArena(127, []section{
		{kind: kindIndex, off: 120, size: 5},
		{kind: kindI32, off: 128, size: 0},
	})
}

// codecStream is the head of a snapshot in the streaming codec an
// earlier release wrote (its magic word, then version 2): not an arena.
func codecStream() []byte {
	b := make([]byte, 143)
	put32(b, 0x31535053)
	put32(b[4:], 2)
	return b
}

// allocDuring returns the bytes f allocates.
func allocDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzReadOracle hardens Open the way FuzzReadBinary hardens the graph
// parser: arbitrary bytes — corrupted headers, truncated sections, bad
// CRCs, forged counts — must produce ErrCorrupt (or ErrVersion) or a
// structurally valid oracle, and must never panic. A successful open
// must additionally survive being queried (Open's validation contract
// is "nothing restored can panic later").
func FuzzReadOracle(f *testing.F) {
	direct, _ := gridHopsetArena(f)
	f.Add(direct)
	f.Add(direct[:len(direct)-9])
	flipped := append([]byte(nil), direct...)
	flipped[len(flipped)/2] ^= 0xA5
	f.Add(flipped)
	f.Add(direct[:headerSize])
	f.Add(append(append([]byte(nil), direct...), 0))

	dec := freezeBytes(f, decomposedParts(f))
	f.Add(dec)
	f.Add(dec[:len(dec)/2])

	g := graph.UniformWeights(graph.Grid2D(4, 4), 9, 1)
	floor, journal := journalFixture()
	a, _ := Freeze(&Parts{Graph: g, Eps: 0.3, Seed: 2, Degenerate: true, FloorGen: floor, Journal: journal})
	f.Add(a.Bytes())
	f.Add(a.Bytes()[:len(a.Bytes())-24]) // truncated inside the journal
	a, _ = Freeze(&Parts{Graph: graph.FromEdges(1, nil, false), Eps: 0.5, Seed: 1, Degenerate: true})
	f.Add(a.Bytes())
	unweighted := graph.Grid2D(4, 4)
	a, _ = Freeze(&Parts{Graph: unweighted, Eps: 0.3, Seed: 5, Direct: hopset.BuildScaled(unweighted, hopset.DefaultWeightedParams(5), nil)})
	f.Add(a.Bytes())
	wide := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1 << 40}, {U: 1, V: 2, W: 3}}, true)
	a, _ = Freeze(&Parts{Graph: wide, Eps: 0.5, Seed: 1, Degenerate: true})
	f.Add(a.Bytes())

	results, scales := forgedCounts(f)
	f.Add(results)
	f.Add(scales)
	f.Add(reforge(direct, func(ix []byte) { put32(ix[baseGraphAt:], maxVertices) }))
	f.Add(layoutForgedArena())
	f.Add([]byte(Magic))
	f.Add(codecStream())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, input []byte) {
		p, err := Open(AlignBytes(input), nil)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("Open error %v wraps neither ErrCorrupt nor ErrVersion", err)
			}
			return
		}
		g := p.Graph
		if err := g.Validate(); err != nil {
			t.Fatalf("opened graph invalid: %v", err)
		}
		if n := g.NumVertices(); n >= 2 {
			switch {
			case p.Direct != nil:
				_ = p.Direct.Query(nil, 0, n-1, nil)
			case p.Dec != nil:
				if inst, s, d := p.Dec.InstanceFor(0, n-1); inst != nil && s != d {
					_ = p.Instances[inst.Level].Query(nil, s, d, nil)
				}
			}
		}
	})
}

// TestLayoutForgedArenaReachesSectionChecks keeps the fuzz seed above
// useful: it must pass the header checks (magic, checksum, version)
// and fail at the section layout rule it forges.
func TestLayoutForgedArenaReachesSectionChecks(t *testing.T) {
	_, err := Open(layoutForgedArena(), nil)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "tight packing") {
		t.Fatalf("Open(layoutForgedArena) = %v, want the section layout error", err)
	}
}

// TestForgedCountsBoundAllocation: a hopset result or scale count
// forged to the format limit, with every checksum recomputed, is
// rejected without sizing an allocation by the count — the capacity
// is bounded by the index bytes that could hold the entries.
func TestForgedCountsBoundAllocation(t *testing.T) {
	results, scales := forgedCounts(t)
	for name, data := range map[string][]byte{"results": results, "scales": scales} {
		var err error
		grew := allocDuring(func() { _, err = Open(data, nil) })
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Open = %v, want ErrCorrupt", name, err)
		}
		if grew > forgedAllocCap {
			t.Errorf("%s: allocated %d bytes for a %d-byte arena (cap %d)", name, grew, len(data), forgedAllocCap)
		}
	}
}

// TestForgedVertexCountBoundsAllocation: a base graph declaring the
// format's vertex limit, every checksum recomputed, fails on its
// offsets section (which holds n+1 entries for n = 1) before anything
// is sized by the count — about 1.3 GB of CSR arrays at 2^26 vertices.
func TestForgedVertexCountBoundsAllocation(t *testing.T) {
	data := forgedVertexCount(t)
	var err error
	grew := allocDuring(func() { _, err = Open(data, nil) })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
	if grew > forgedAllocCap {
		t.Fatalf("allocated %d bytes for a %d-byte arena (cap %d)", grew, len(data), forgedAllocCap)
	}
}

// TestOracleRejectsPartial: Freeze refuses an oracle whose build was
// canceled — an instance without a hopset, or a band without a result.
func TestOracleRejectsPartial(t *testing.T) {
	p := decomposedParts(t)
	p.Instances[0] = nil
	if _, err := Freeze(p); err == nil {
		t.Fatal("Freeze accepted an instance without a hopset")
	}
	d := directParts(t)
	scales := append([]hopset.Scale(nil), d.Direct.Scales...)
	scales[len(scales)-1].Res = nil
	d.Direct = hopset.NewScaled(d.Graph, scales, d.Direct.Params)
	if _, err := Freeze(d); err == nil {
		t.Fatal("Freeze accepted a band without a hopset")
	}
}

// journalFixture is a structurally valid pending journal over a
// weighted graph of at least six vertices.
func journalFixture() (uint64, []dynamic.Entry) {
	return 3, []dynamic.Entry{
		{Update: dynamic.Update{Op: dynamic.OpInsert, U: 0, V: 5, W: 7}, Gen: 4},
		{Update: dynamic.Update{Op: dynamic.OpReweight, U: 0, V: 5, W: 2}, Gen: 5},
		{Update: dynamic.Update{Op: dynamic.OpDelete, U: 0, V: 5}, Gen: 9},
	}
}

// journalArena freezes a degenerate oracle over g carrying the given
// journal; Freeze does not validate journals, so a corrupt one reaches
// Open as it would from disk.
func journalArena(t *testing.T, g *graph.Graph, floor uint64, journal []dynamic.Entry) []byte {
	t.Helper()
	return freezeBytes(t, &Parts{Graph: g, Eps: 0.3, Seed: 2, Degenerate: true, FloorGen: floor, Journal: journal})
}

// TestCorruptJournalRejected: every structural journal violation is
// ErrCorrupt — never a partially applied journal.
func TestCorruptJournalRejected(t *testing.T) {
	g := graph.UniformWeights(graph.Grid2D(4, 4), 9, 1)
	cases := map[string]func(floor *uint64, e []dynamic.Entry){
		"gen-not-ascending":     func(_ *uint64, e []dynamic.Entry) { e[2].Gen = e[1].Gen },
		"gen-below-floor":       func(floor *uint64, e []dynamic.Entry) { *floor = e[0].Gen },
		"endpoint-out-of-range": func(_ *uint64, e []dynamic.Entry) { e[0].V = 99 },
		"self-loop":             func(_ *uint64, e []dynamic.Entry) { e[1].V = e[1].U },
		"bad-op":                func(_ *uint64, e []dynamic.Entry) { e[0].Op = dynamic.Op(7) },
		"non-positive-weight":   func(_ *uint64, e []dynamic.Entry) { e[0].W = 0 },
		"weight-over-cap":       func(_ *uint64, e []dynamic.Entry) { e[0].W = graph.WeightCap(16) + 1 },
	}
	for name, mutate := range cases {
		floor, journal := journalFixture()
		mutate(&floor, journal)
		if _, err := Open(journalArena(t, g, floor, journal), nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Open = %v, want ErrCorrupt", name, err)
		}
	}

	// A flipped bit inside the journal section: its checksum catches it.
	floor, journal := journalFixture()
	data := journalArena(t, g, floor, journal)
	for i := 0; i < int(le32(data[12:])); i++ {
		ent := data[headerSize+i*tableEntSize:]
		if le32(ent) == kindJournal {
			data[le64(ent[8:])+3] ^= 0x5A
		}
	}
	if _, err := Open(data, nil); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("bit-flipped journal: Open = %v, want a checksum ErrCorrupt", err)
	}
}

// TestWeightIntoUnweightedJournalRejected: journal weights must match
// the embedded graph's weightedness.
func TestWeightIntoUnweightedJournalRejected(t *testing.T) {
	journal := []dynamic.Entry{{Update: dynamic.Update{Op: dynamic.OpInsert, U: 0, V: 5, W: 9}, Gen: 1}}
	if _, err := Open(journalArena(t, graph.Grid2D(4, 4), 0, journal), nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

// TestGraphWeightOverCapRejected: an embedded graph past
// graph.WeightCap — two edges of weight 2^61 on three vertices, which
// FromEdges refuses — is ErrCorrupt, never a graph whose reachable
// vertices read as unreachable; so is a hopset edge at InfDist.
func TestGraphWeightOverCapRejected(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1 << 33}, {U: 1, V: 2, W: 1 << 33}}, true)
	v := g.CSRView() // aliases g's arrays: forge them in place
	for i := range v.Edges {
		v.Edges[i].W = 1 << 61
	}
	for i := range v.Wide {
		v.Wide[i] = 1 << 61
	}
	v.MinW, v.MaxW = 1<<61, 1<<61
	data := freezeBytes(t, &Parts{Graph: graph.FromCSRView(v), Eps: 0.5, Seed: 1, Degenerate: true})
	if _, err := Open(data, nil); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("Open = %v, want a weight-cap ErrCorrupt", err)
	}

	// A hopset shortcut is a base distance, so InfDist is out of range
	// too: accepted, it would panic the first query's Augmented build.
	gg := graph.UniformWeights(graph.Grid2D(4, 4), 9, 1)
	s := hopset.BuildScaled(gg, hopset.DefaultWeightedParams(2), nil)
	res, _ := s.Results()
	res[len(res)-1].Edges[0].W = graph.InfDist
	data = freezeBytes(t, &Parts{Graph: gg, Eps: 0.3, Seed: 2, Direct: s})
	if _, err := Open(data, nil); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "hopset edge") {
		t.Fatalf("Open = %v, want a hopset-edge ErrCorrupt", err)
	}
}
