package flat

import (
	"errors"
	"fmt"

	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/hopset"
	"repro/internal/wscale"
)

// Parts is the exchange shape between a built oracle and its arena:
// the facade's DistanceOracle converts to it on save and is assembled
// from it on load. Exactly one of the four shapes is populated:
// Exact, Degenerate, Direct, or Dec+Instances. A standalone
// multi-scale hopset (cmd/hopset -save) is the direct shape.
type Parts struct {
	// Graph is the base graph the oracle answers queries on.
	Graph *graph.Graph
	// Eps and Seed echo the build parameters.
	Eps  float64
	Seed uint64
	// Fingerprint is the base graph digest. Freeze computes it; Open
	// returns the header value (the arena CRCs vouch for the content,
	// so the digest is identity metadata, not re-verified by hashing).
	Fingerprint uint64
	// Exact marks an oracle that builds nothing and answers with exact
	// search on Graph; the arena stores the graph alone.
	Exact bool
	// Degenerate marks a hopset oracle over a graph too small to route.
	Degenerate bool
	// Direct is the single multi-scale hopset of a poly-bounded-ratio
	// build.
	Direct *hopset.Scaled
	// Dec plus Instances (one scaled hopset per decomposition level)
	// form a decomposed oracle.
	Dec       *wscale.Decomposition
	Instances []*hopset.Scaled
	// FloorGen and Journal carry a dynamic oracle's overlay state.
	FloorGen uint64
	Journal  []dynamic.Entry
	// Note is the opaque caller annotation (the server's graph spec).
	Note []byte
}

// Arena is an assembled flat oracle: one contiguous, 8-byte-aligned
// buffer ready to be written to disk verbatim or opened in place.
type Arena struct{ data []byte }

// Bytes returns the raw arena. Callers write it to disk unmodified —
// the bytes are the format.
func (a *Arena) Bytes() []byte { return a.data }

// Size returns the arena length in bytes.
func (a *Arena) Size() int64 { return int64(len(a.data)) }

// Freeze flattens a built oracle into an arena. The graphs' CSR
// arrays are copied verbatim (via their zero-copy views), and shared
// structures — hopset results reused across bands, labelings aliased
// between the decomposition and its instances — are stored once and
// re-shared on open. Derived caches (augmented query graphs) are not
// stored: they rebuild deterministically on first query.
func Freeze(p *Parts) (*Arena, error) {
	if !hostLittleEndian() {
		return nil, errors.New("flat: arena format requires a little-endian host")
	}
	if p.Graph == nil {
		return nil, errors.New("flat: nil base graph")
	}
	mode := modeDegenerate
	switch {
	case p.Exact:
		mode = modeExact
	case p.Degenerate:
	case p.Direct != nil:
		mode = modeDirect
		if err := checkComplete(p.Direct); err != nil {
			return nil, err
		}
	case p.Dec != nil:
		mode = modeDecomposed
		if len(p.Instances) != len(p.Dec.Instances) {
			return nil, errors.New("flat: oracle instance count does not match its decomposition")
		}
		for _, s := range p.Instances {
			if err := checkComplete(s); err != nil {
				return nil, err
			}
		}
	default:
		return nil, errors.New("flat: oracle has neither a hopset nor a decomposition")
	}
	if len(p.Note) > maxNote {
		return nil, fmt.Errorf("flat: note of %d bytes exceeds the %d limit", len(p.Note), maxNote)
	}
	if len(p.Journal) > maxJournalEntries {
		return nil, fmt.Errorf("flat: journal of %d entries exceeds the format limit %d", len(p.Journal), maxJournalEntries)
	}

	b := &builder{}
	b.add(kindIndex, nil) // section 0 reserved; filled after the walk
	ix := &ixWriter{}

	if p.Note != nil {
		ix.i32(b.add(kindNote, p.Note))
	} else {
		ix.i32(-1)
	}
	if len(p.Journal) > 0 {
		ix.i32(b.add(kindJournal, packJournal(p.Journal)))
	} else {
		ix.i32(-1)
	}
	b.addGraph(ix, p.Graph)
	switch mode {
	case modeDirect:
		b.addScaled(ix, p.Direct)
	case modeDecomposed:
		b.addWScale(ix, p.Dec, p.Instances)
	}
	b.secs[0].data = ix.buf

	return b.assemble(arenaHeader{
		mode:        mode,
		eps:         p.Eps,
		seed:        p.Seed,
		fingerprint: p.Graph.Fingerprint(),
		floorGen:    p.FloorGen,
	})
}

// checkComplete rejects partial hopsets (a canceled BuildScaled leaves
// bands with nil Res).
func checkComplete(s *hopset.Scaled) error {
	if s == nil {
		return errors.New("flat: cannot freeze a partial (canceled) oracle")
	}
	for i := range s.Scales {
		if s.Scales[i].Res == nil {
			return errors.New("flat: cannot freeze a partial (canceled) oracle: band without a hopset")
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Builder: accumulates sections and the index walk, then lays the
// arena out in one aligned buffer.

type bsec struct {
	kind uint32
	data []byte
}

type builder struct{ secs []bsec }

// add registers a payload and returns its section ordinal (what the
// index stores).
func (b *builder) add(kind uint32, data []byte) int32 {
	b.secs = append(b.secs, bsec{kind: kind, data: data})
	return int32(len(b.secs) - 1)
}

// addGraph writes a graph reference into the index: scalar metadata
// inline, every CSR array as its own typed section (byte-for-byte the
// graph's in-memory arrays, which is what lets Open alias them back).
func (b *builder) addGraph(ix *ixWriter, g *graph.Graph) {
	v := g.CSRView()
	ix.i32(v.N)
	ix.i64(int64(len(v.Edges)))
	if v.Weighted {
		ix.u8(1)
	} else {
		ix.u8(0)
	}
	ix.i64(v.MinW)
	ix.i64(v.MaxW)
	ix.i32(b.add(kindEdge, bytesOf(v.Edges)))
	ix.i32(b.add(kindI64, bytesOf(v.Offs)))
	ix.i32(b.add(kindArc, bytesOf(v.Arcs)))
	if v.Wide != nil {
		ix.i32(b.add(kindI64, bytesOf(v.Wide)))
	} else {
		ix.i32(-1)
	}
	ix.i32(b.add(kindI32, bytesOf(v.Eids)))
	if v.OrigEID != nil {
		ix.i32(b.add(kindI32, bytesOf(v.OrigEID)))
	} else {
		ix.i32(-1)
	}
}

// addScaled writes one multi-scale hopset: parameters, the dedup
// result table (bands sharing a Result store it once), and per-band
// scales. The augmented query graph is NOT
// frozen — Augmented() rebuilds it deterministically from the base
// graph and the band edges, so storing it would double the arena for
// bytes the opener can reproduce exactly. Opened-arena queries stay
// bit-identical because the rebuild is the same function the live
// oracle ran.
func (b *builder) addScaled(ix *ixWriter, s *hopset.Scaled) {
	wp := s.Params
	ix.f64(wp.Epsilon)
	ix.f64(wp.Delta)
	ix.f64(wp.Gamma1)
	ix.f64(wp.Gamma2)
	ix.f64(wp.K)
	ix.i64(int64(wp.MinFinal))
	ix.u64(wp.Seed)
	ix.f64(wp.Eta)
	ix.f64(wp.Zeta)
	ix.f64(wp.Escalation)
	ix.f64(wp.InitialHopBudget)

	results, resIdx := s.Results()
	ix.u32(uint32(len(results)))
	for _, res := range results {
		ix.f64(res.Params.Epsilon)
		ix.f64(res.Params.Delta)
		ix.f64(res.Params.Gamma1)
		ix.f64(res.Params.Gamma2)
		ix.f64(res.Params.K)
		ix.i64(int64(res.Params.MinFinal))
		ix.u64(res.Params.Seed)
		ix.i64(int64(res.Stars))
		ix.i64(int64(res.Cliques))
		ix.i64(int64(res.Levels))
		ix.i32(b.add(kindEdge, bytesOf(res.Edges)))
	}
	ix.u32(uint32(len(s.Scales)))
	for i := range s.Scales {
		ix.f64(s.Scales[i].D)
		ix.i64(s.Scales[i].WHat)
		ix.u32(resIdx[i])
	}
}

// addWScale writes the decomposition and its per-level instances.
// Level labelings are one i32 section each; an instance whose Label
// aliases a level's slice stores a reference, not a copy
// (labelShared), so open restores the aliasing and the memory
// footprint of a fresh build.
func (b *builder) addWScale(ix *ixWriter, dec *wscale.Decomposition, instances []*hopset.Scaled) {
	ix.f64(dec.Eps)
	ix.f64(dec.B)
	L := len(dec.Cats)
	ix.u32(uint32(L))
	levelSecs := make([]int32, L)
	for j := 0; j < L; j++ {
		ix.i64(int64(dec.Cats[j]))
		ix.i32(dec.LevelCounts[j])
		levelSecs[j] = b.add(kindI32, bytesOf(dec.Levels[j]))
		ix.i32(levelSecs[j])
	}
	for j := 0; j < L; j++ {
		inst := dec.Instances[j]
		kind, ref := labelKind(dec, inst)
		ix.u8(kind)
		switch kind {
		case labelShared:
			ix.i64(ref)
		case labelExplicit:
			ix.i32(b.add(kindI32, bytesOf(inst.Label)))
		}
		b.addGraph(ix, inst.G)
		b.addScaled(ix, instances[j])
	}
}

// Instance label encodings.
const (
	labelExplicit uint8 = 0
	labelIdentity uint8 = 1
	labelShared   uint8 = 2
)

// labelKind classifies inst.Label: identity, an alias of
// dec.Levels[ref], or explicit.
func labelKind(dec *wscale.Decomposition, inst *wscale.Instance) (kind uint8, ref int64) {
	n := dec.Base.NumVertices()
	if int64(len(inst.Label)) != int64(n) {
		return labelExplicit, 0
	}
	identity := true
	for v, lbl := range inst.Label {
		if lbl != graph.V(v) {
			identity = false
			break
		}
	}
	if identity {
		return labelIdentity, 0
	}
	if n > 0 {
		for jj := range dec.Levels {
			if len(dec.Levels[jj]) == len(inst.Label) && &dec.Levels[jj][0] == &inst.Label[0] {
				return labelShared, int64(jj)
			}
		}
	}
	return labelExplicit, 0
}

// packJournal serializes the dynamic journal (gen u64, op u8, u i32,
// v i32, w i64 per entry, after a u64 count). The journal is
// decoded, not aliased, on open: entries are tiny and carry fields
// (apply timestamps) the arena does not persist.
func packJournal(entries []dynamic.Entry) []byte {
	w := &ixWriter{}
	w.u64(uint64(len(entries)))
	for _, ent := range entries {
		w.u64(ent.Gen)
		w.u8(uint8(ent.Op))
		w.i32(ent.U)
		w.i32(ent.V)
		w.i64(int64(ent.W))
	}
	return w.buf
}

// arenaHeader is the scalar metadata Freeze stamps into the header.
type arenaHeader struct {
	mode        uint8
	eps         float64
	seed        uint64
	fingerprint uint64
	floorGen    uint64
}

// assemble lays out header + table + aligned payloads in one buffer
// and fills in every checksum.
func (b *builder) assemble(h arenaHeader) (*Arena, error) {
	S := len(b.secs)
	if S > maxSections {
		return nil, fmt.Errorf("flat: oracle needs %d sections, format limit %d", S, maxSections)
	}
	cur := align8(uint64(headerSize) + uint64(S)*tableEntSize)
	offs := make([]uint64, S)
	for i, s := range b.secs {
		cur = align8(cur)
		offs[i] = cur
		cur += uint64(len(s.data))
	}
	total := cur
	buf := alignedBuf(int(total))

	copy(buf[0:4], Magic)
	put32(buf[4:], Version)
	put32(buf[8:], endianMarker)
	put32(buf[12:], uint32(S))
	put64(buf[16:], total)
	put64(buf[24:], h.fingerprint)
	put64(buf[32:], mathFloat64bits(h.eps))
	put64(buf[40:], h.seed)
	put64(buf[48:], h.floorGen)
	buf[56] = h.mode

	table := buf[headerSize : headerSize+S*tableEntSize]
	for i, s := range b.secs {
		copy(buf[offs[i]:], s.data)
		ent := table[i*tableEntSize:]
		put32(ent, s.kind)
		put32(ent[4:], checksum(s.data))
		put64(ent[8:], offs[i])
		put64(ent[16:], uint64(len(s.data)))
	}
	put32(buf[60:], checksum(table))
	put32(buf[64:], headerCRC(buf))
	return &Arena{data: buf}, nil
}

// headerCRC checksums the header bytes around the stored CRC itself:
// [0,64) plus the trailing pad [68,72). Together with the table CRC,
// the per-payload CRCs, and Open's zero-gap rule, every byte of the
// arena is integrity-checked.
func headerCRC(buf []byte) uint32 {
	h := checksum(buf[0:64])
	return crc32Update(h, buf[68:headerSize])
}
