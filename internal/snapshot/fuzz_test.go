package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"repro/internal/flat"
	"repro/internal/graph"
	"repro/internal/hopset"
)

// FuzzReadOracle hardens the snapshot decoder the way FuzzReadBinary
// hardens the graph parser: arbitrary bytes — corrupted headers,
// truncated sections, bad CRCs, forged counts — must produce an error
// or a structurally valid oracle, and must never panic. A successful
// decode must additionally survive being queried (the decoder's
// validation contract is "nothing restored can panic later").
func FuzzReadOracle(f *testing.F) {
	// Seed corpus: valid snapshots of each shape plus mutations.
	small := graph.UniformWeights(graph.Grid2D(4, 4), 9, 1)
	o, _ := buildOracle(small, 0.3, 2)
	var direct bytes.Buffer
	_ = WriteOracle(&direct, small, o, []byte("spec"))
	f.Add(direct.Bytes())

	multi := graph.ExponentialWeights(graph.RandomConnectedGNM(40, 160, 3), 10, 28, 4)
	od, _ := buildOracle(multi, 0.25, 5)
	if od.Dec != nil {
		var dec bytes.Buffer
		_ = WriteOracle(&dec, multi, od, nil)
		f.Add(dec.Bytes())
	}

	empty := graph.FromEdges(1, nil, false)
	og := &Oracle{Eps: 0.5, Seed: 1, Degenerate: true}
	var degen bytes.Buffer
	_ = WriteOracle(&degen, empty, og, nil)
	f.Add(degen.Bytes())

	// Version-2 journal section and a legacy version-1 stream.
	oj, _ := buildOracle(small, 0.3, 2)
	oj.FloorGen, oj.Journal = journalFixture()
	var withJournal bytes.Buffer
	_ = WriteOracle(&withJournal, small, oj, []byte("spec"))
	f.Add(withJournal.Bytes())
	var v1 bytes.Buffer
	_ = writeOracleVersion(&v1, small, o, nil, versionV1)
	f.Add(v1.Bytes())
	trunc := withJournal.Bytes()
	f.Add(trunc[:len(trunc)-24]) // truncated inside the journal section

	var scaled bytes.Buffer
	_ = WriteScaled(&scaled, hopset.BuildScaled(small, hopset.DefaultWeightedParams(6), nil), nil)
	f.Add(scaled.Bytes())

	// Version-3 flat arenas ride the same reader (ReadOracle sniffs the
	// magic): valid direct and decomposed arenas, one with a journal,
	// plus truncated and bit-flipped mutants.
	if arena, err := FreezeOracle(small, o, []byte("spec")); err == nil {
		f.Add(arena.Bytes())
		f.Add(arena.Bytes()[:len(arena.Bytes())-9])
		flipped := append([]byte(nil), arena.Bytes()...)
		flipped[len(flipped)/2] ^= 0xA5
		f.Add(flipped)
	}
	if od.Dec != nil {
		if arena, err := FreezeOracle(multi, od, nil); err == nil {
			f.Add(arena.Bytes())
		}
	}
	if arena, err := FreezeOracle(small, oj, nil); err == nil {
		f.Add(arena.Bytes())
	}
	f.Add([]byte("SPF3")) // arena magic only
	f.Add(layoutForgedArena())

	f.Add([]byte{})
	f.Add([]byte{0x53, 0x50, 0x53, 0x31})         // magic only
	f.Add(direct.Bytes()[:len(direct.Bytes())/2]) // truncated mid-section
	f.Add(direct.Bytes()[:len(direct.Bytes())-2]) // truncated trailer
	corrupt := append([]byte(nil), direct.Bytes()...)
	corrupt[len(corrupt)/2] ^= 0xA5
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, input []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("ReadOracle panicked: %v", r)
			}
		}()
		got, g, _, err := ReadOracle(bytes.NewReader(input))
		if err != nil {
			return
		}
		// Anything that decodes cleanly must be internally consistent
		// enough to query without panicking.
		if err := g.Validate(); err != nil {
			t.Fatalf("decoded graph invalid: %v", err)
		}
		if g.NumVertices() >= 2 {
			switch {
			case got.Direct != nil:
				_ = got.Direct.Query(0, g.NumVertices()-1, nil)
			case got.Dec != nil:
				if inst, s, d := got.Dec.InstanceFor(0, g.NumVertices()-1); inst != nil && s != d {
					_ = got.Instances[inst.Level].Query(s, d, nil)
				}
			}
		}
	})
}

// layoutForgedArena builds a 127-byte arena of the current version
// (flat.Version) whose checksums are all valid but whose section
// table is forged: section 0 ends
// unaligned at byte 125, so section 1's tight-packing offset
// align8(125)=128 lands past the end of the file. Byte-flip mutants
// can never reach this corruption class — a flip breaks a CRC before
// the layout rules run — so the corpus needs a seed with the header
// and table CRCs recomputed after the rewrite. Regression: this exact
// shape used to panic the arena opener with a slice out of range.
func layoutForgedArena() []byte {
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	crc := func(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }
	data := make([]byte, 127)
	le := binary.LittleEndian
	copy(data, "SPF3")
	le.PutUint32(data[4:], flat.Version)           // version
	le.PutUint32(data[8:], 0x1A2B3C4D)             // endian marker
	le.PutUint32(data[12:], 2)                     // section count
	le.PutUint64(data[16:], 127)                   // total size
	le.PutUint64(data[32:], math.Float64bits(0.5)) // eps
	// Section 0: the index, 5 bytes at offset 120 (table ends at 120).
	ent := data[72:]
	le.PutUint32(ent, 1) // kindIndex
	le.PutUint32(ent[4:], crc(data[120:125]))
	le.PutUint64(ent[8:], 120)
	le.PutUint64(ent[16:], 5)
	// Section 1: offset 128 = align8(125), past the 127-byte arena.
	ent = data[96:]
	le.PutUint32(ent, 4) // kindI32
	le.PutUint64(ent[8:], 128)
	le.PutUint32(data[60:], crc(data[72:120]))                                      // table CRC
	le.PutUint32(data[64:], crc32.Update(crc(data[0:64]), castagnoli, data[68:72])) // header CRC
	return data
}

// TestLayoutForgedArenaReachesSectionChecks keeps the fuzz seed above
// useful: it must pass the header checks (magic, checksum, version)
// and fail at the section layout rule it forges.
func TestLayoutForgedArenaReachesSectionChecks(t *testing.T) {
	_, _, _, err := ReadOracle(bytes.NewReader(layoutForgedArena()))
	if err == nil || !strings.Contains(err.Error(), "tight packing") {
		t.Fatalf("ReadOracle(layoutForgedArena) = %v, want the section layout error", err)
	}
}

// FuzzReadSpanner covers the standalone spanner shape's decoder.
func FuzzReadSpanner(f *testing.F) {
	g := graph.Grid2D(4, 4)
	var good bytes.Buffer
	_ = WriteSpanner(&good, g, 3, 1, []int32{0, 2, 5}, nil)
	f.Add(good.Bytes())
	f.Add([]byte{})
	f.Add(good.Bytes()[:len(good.Bytes())-3])

	f.Fuzz(func(t *testing.T, input []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("ReadSpanner panicked: %v", r)
			}
		}()
		k, _, ids, _, err := ReadSpanner(bytes.NewReader(input), g)
		if err != nil {
			return
		}
		if k < 1 {
			t.Fatalf("decoded k = %d", k)
		}
		for _, id := range ids {
			if int64(id) < 0 || int64(id) >= g.NumEdges() {
				t.Fatalf("decoded edge id %d out of range", id)
			}
		}
	})
}
