package snapshot

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"repro/internal/dynamic"
	"repro/internal/flat"
	"repro/internal/graph"
	"repro/internal/hopset"
	"repro/internal/wscale"
)

// Oracle is the codec's exchange shape for a DistanceOracle: the
// facade (which owns the private oracle fields) converts to and from
// it around Write/Read. Exactly one of the three shapes is populated:
// Degenerate, Direct, or Dec+Instances.
type Oracle struct {
	// Eps and Seed echo the build parameters.
	Eps  float64
	Seed uint64
	// Fingerprint is the base graph's digest from the META section,
	// already verified against the embedded graph by ReadOracle (zero
	// on the encode side; Write recomputes from the graph).
	Fingerprint uint64
	// Degenerate marks an oracle over a graph too small to route.
	Degenerate bool
	// Direct is the single multi-scale hopset of a poly-bounded-ratio
	// build.
	Direct *hopset.Scaled
	// Dec plus Instances (one scaled hopset per decomposition level)
	// form a decomposed oracle.
	Dec       *wscale.Decomposition
	Instances []*hopset.Scaled

	// FloorGen and Journal carry a dynamic oracle's overlay state: the
	// generation the serialized base oracle reflects and the pending
	// mutations above it (gen-ascending). Both zero for a static
	// oracle. New in format version 2; a v1 stream decodes with an
	// empty journal.
	FloorGen uint64
	Journal  []dynamic.Entry
}

// WriteOracle writes a self-contained snapshot of o built over g:
// header, META, optional NOTE (an opaque caller annotation, e.g. the
// server's graph spec), the embedded base graph, and the oracle
// sections. The stream is flushed but not closed.
func WriteOracle(w io.Writer, g *graph.Graph, o *Oracle, note []byte) error {
	return writeOracleVersion(w, g, o, note, version)
}

// writeOracleVersion is WriteOracle pinned to a format version; only
// tests emit the legacy v1 layout (no JOURNAL section, which
// therefore requires an empty journal).
func writeOracleVersion(w io.Writer, g *graph.Graph, o *Oracle, note []byte, ver uint32) error {
	if ver < versionV2 && (len(o.Journal) > 0 || o.FloorGen != 0) {
		return errors.New("snapshot: version 1 cannot carry a mutation journal")
	}
	mode := modeDegenerate
	switch {
	case o.Degenerate:
	case o.Direct != nil:
		mode = modeDirect
		if err := checkScaledComplete(o.Direct); err != nil {
			return err
		}
	case o.Dec != nil:
		mode = modeDecomposed
		if len(o.Instances) != len(o.Dec.Instances) {
			return errors.New("snapshot: oracle instance count does not match its decomposition")
		}
		for _, s := range o.Instances {
			if err := checkScaledComplete(s); err != nil {
				return err
			}
		}
	default:
		return errors.New("snapshot: oracle has neither a hopset nor a decomposition")
	}
	e := newEncoder(w)
	e.version = ver
	e.header()
	writeMeta(e, mode, o.Eps, o.Seed, g.Fingerprint())
	writeNote(e, note)
	writeGraph(e, g)
	switch mode {
	case modeDirect:
		writeScaled(e, o.Direct)
	case modeDecomposed:
		writeWScale(e, o.Dec)
		for j, inst := range o.Dec.Instances {
			writeInstance(e, o.Dec, inst, g.NumVertices())
			writeScaled(e, o.Instances[j])
		}
	}
	if ver >= versionV2 {
		writeJournal(e, o.FloorGen, o.Journal)
	}
	writeEnd(e)
	return e.flush()
}

// ReadOracle parses a WriteOracle or WriteOracleFlat stream (the
// 4-byte magic negotiates the format), returning the restored oracle
// skeleton, the embedded base graph, and the caller annotation (nil
// when none was written). Every structural invariant the query path
// relies on is validated; any violation, truncation, or checksum
// mismatch returns an error wrapping ErrCorrupt. A flat arena arriving
// through this generic-reader path is slurped into an aligned buffer
// and opened in place; use MapOracleFile to open an arena file
// without reading it.
func ReadOracle(r io.Reader) (*Oracle, *graph.Graph, []byte, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	if prefix, err := br.Peek(4); err == nil && flat.IsArena(prefix) {
		data, err := io.ReadAll(br)
		if err != nil {
			return nil, nil, nil, corruptf("reading arena: %v", err)
		}
		return OpenOracleArena(flat.AlignBytes(data), nil)
	}
	r = br
	d := newDecoder(r)
	d.header()
	mode, eps, seed, fp := readMeta(d)
	note := readNote(d)
	if d.err != nil {
		return nil, nil, nil, d.err
	}
	if mode != modeDegenerate && mode != modeDirect && mode != modeDecomposed {
		return nil, nil, nil, corruptf("stream holds shape %d, not an oracle", mode)
	}
	g := readGraph(d)
	if d.err == nil && g.Fingerprint() != fp {
		return nil, nil, nil, corruptf("embedded graph does not hash to the META fingerprint")
	}
	o := &Oracle{Eps: eps, Seed: seed, Fingerprint: fp}
	switch mode {
	case modeDegenerate:
		o.Degenerate = true
	case modeDirect:
		o.Direct = readScaled(d, g)
	case modeDecomposed:
		dec := readWScale(d, g)
		if d.err == nil {
			for j := range dec.Instances {
				inst := readInstance(d, g, dec, j)
				dec.Instances[j] = inst
				if d.err != nil {
					break
				}
				o.Instances = append(o.Instances, readScaled(d, inst.G))
			}
		}
		o.Dec = dec
	}
	if d.version >= versionV2 {
		o.FloorGen, o.Journal = readJournal(d, g)
	}
	readEnd(d)
	if d.err != nil {
		return nil, nil, nil, d.err
	}
	return o, g, note, nil
}

// WriteScaled writes a standalone multi-scale hopset snapshot (the
// cmd/hopset -save shape), embedding its base graph.
func WriteScaled(w io.Writer, s *hopset.Scaled, note []byte) error {
	if s == nil || s.Base == nil {
		return errors.New("snapshot: nil scaled hopset")
	}
	if err := checkScaledComplete(s); err != nil {
		return err
	}
	e := newEncoder(w)
	e.header()
	writeMeta(e, modeScaled, 0, s.Params.Seed, s.Base.Fingerprint())
	writeNote(e, note)
	writeGraph(e, s.Base)
	writeScaled(e, s)
	writeEnd(e)
	return e.flush()
}

// ReadScaled parses a WriteScaled stream, returning the hopset (bound
// to the embedded graph) and the annotation.
func ReadScaled(r io.Reader) (*hopset.Scaled, []byte, error) {
	d := newDecoder(r)
	d.header()
	mode, _, _, fp := readMeta(d)
	note := readNote(d)
	if d.err == nil && mode != modeScaled {
		return nil, nil, corruptf("stream holds shape %d, not a scaled hopset", mode)
	}
	g := readGraph(d)
	if d.err == nil && g.Fingerprint() != fp {
		return nil, nil, corruptf("embedded graph does not hash to the META fingerprint")
	}
	s := readScaled(d, g)
	readEnd(d)
	if d.err != nil {
		return nil, nil, d.err
	}
	return s, note, nil
}

// WriteSpanner writes a spanner result (edge-id subset of g) without
// embedding the graph: ids are meaningless except against the exact
// input graph, which the META fingerprint pins.
func WriteSpanner(w io.Writer, g *graph.Graph, k int, seed uint64, edgeIDs []int32, note []byte) error {
	e := newEncoder(w)
	e.header()
	writeMeta(e, modeSpanner, 0, seed, g.Fingerprint())
	writeNote(e, note)
	e.begin(secSpanner, 8+8+uint64(len(edgeIDs))*4)
	e.i64(int64(k))
	e.u64(uint64(len(edgeIDs)))
	for _, id := range edgeIDs {
		e.i32(id)
	}
	e.end()
	writeEnd(e)
	return e.flush()
}

// ReadSpanner parses a WriteSpanner stream against the graph it was
// saved for; a fingerprint mismatch is an error.
func ReadSpanner(r io.Reader, g *graph.Graph) (k int, seed uint64, edgeIDs []int32, note []byte, err error) {
	d := newDecoder(r)
	d.header()
	mode, _, sseed, fp := readMeta(d)
	note = readNote(d)
	if d.err == nil && mode != modeSpanner {
		return 0, 0, nil, nil, corruptf("stream holds shape %d, not a spanner", mode)
	}
	if d.err == nil && g.Fingerprint() != fp {
		return 0, 0, nil, nil, fmt.Errorf("snapshot: spanner was saved for a different graph (fingerprint mismatch)")
	}
	d.next(secSpanner)
	k64 := d.i64()
	count := d.u64()
	ids := d.i32s(count)
	m := g.NumEdges()
	for i, id := range ids {
		if d.err != nil {
			break
		}
		if int64(id) < 0 || int64(id) >= m {
			d.fail(corruptf("spanner edge id %d out of range m=%d", id, m))
			break
		}
		if i > 0 && ids[i-1] >= id {
			d.fail(corruptf("spanner edge ids not strictly ascending at %d", i))
			break
		}
	}
	if d.err == nil && (k64 < 1 || k64 > 1<<20) {
		d.fail(corruptf("spanner k = %d out of range", k64))
	}
	d.end()
	readEnd(d)
	if d.err != nil {
		return 0, 0, nil, nil, d.err
	}
	return int(k64), sseed, ids, note, nil
}

// ---------------------------------------------------------------------------
// META / NOTE / END sections.

func writeMeta(e *encoder, mode uint8, eps float64, seed, fp uint64) {
	e.begin(secMeta, 1+8+8+8)
	e.u8(mode)
	e.f64(eps)
	e.u64(seed)
	e.u64(fp)
	e.end()
}

func readMeta(d *decoder) (mode uint8, eps float64, seed, fp uint64) {
	d.next(secMeta)
	mode = d.u8()
	eps = d.f64()
	seed = d.u64()
	fp = d.u64()
	if d.err == nil && (!finite(eps) || eps < 0 || eps >= 1) {
		d.fail(corruptf("eps = %v out of range", eps))
	}
	d.end()
	return mode, eps, seed, fp
}

// writeNote writes the optional annotation section; nil or empty notes
// write an empty section so the decode sequence stays fixed.
func writeNote(e *encoder, note []byte) {
	if uint64(len(note)) > maxNote {
		e.fail(fmt.Errorf("snapshot: note of %d bytes exceeds the %d limit", len(note), maxNote))
		return
	}
	e.begin(secNote, uint64(len(note)))
	e.raw(note)
	e.end()
}

func readNote(d *decoder) []byte {
	d.next(secNote)
	if d.err != nil {
		return nil
	}
	if d.remaining > maxNote {
		d.fail(corruptf("note of %d bytes exceeds the %d limit", d.remaining, maxNote))
		return nil
	}
	var note []byte
	if d.remaining > 0 {
		note = make([]byte, d.remaining)
		d.read(note)
	}
	d.end()
	if d.err != nil {
		return nil
	}
	return note
}

func writeEnd(e *encoder) {
	e.begin(secEnd, 0)
	e.end()
}

func readEnd(d *decoder) {
	d.next(secEnd)
	d.end()
}

// ---------------------------------------------------------------------------
// JOURNAL section (version 2): a dynamic oracle's pending mutations.

// journalEntrySize is the fixed per-entry payload: gen u64, op u8,
// u i32, v i32, w i64.
const journalEntrySize = 8 + 1 + 4 + 4 + 8

// maxJournalEntries bounds a declared journal: a rebuild policy that
// let this many mutations pile up does not exist, so a bigger count
// is corruption.
const maxJournalEntries = 1 << 24

func writeJournal(e *encoder, floorGen uint64, entries []dynamic.Entry) {
	if uint64(len(entries)) > maxJournalEntries {
		// The decoder hard-rejects larger counts; writing one would
		// produce a snapshot no reader accepts. Fail the save instead
		// (mirrors writeOracleVersion refusing v1 + journal).
		e.fail(fmt.Errorf("snapshot: journal of %d entries exceeds the format limit %d", len(entries), maxJournalEntries))
		return
	}
	e.begin(secJournal, 8+8+uint64(len(entries))*journalEntrySize)
	e.u64(floorGen)
	e.u64(uint64(len(entries)))
	for _, ent := range entries {
		e.u64(ent.Gen)
		e.u8(uint8(ent.Op))
		e.i32(ent.U)
		e.i32(ent.V)
		e.i64(int64(ent.W))
	}
	e.end()
}

// readJournal decodes and structurally validates the journal against
// the embedded base graph: known ops, in-range non-loop endpoints,
// positive weights where a weight is meaningful (exactly 1 for an
// unweighted graph), and strictly ascending generations above the
// floor. Semantic validity (delete of an absent edge, ...) is the
// loader's replay to verify — it needs the evolving pair state.
func readJournal(d *decoder, g *graph.Graph) (uint64, []dynamic.Entry) {
	d.next(secJournal)
	floorGen := d.u64()
	count := d.u64()
	if d.err == nil && count > maxJournalEntries {
		d.fail(corruptf("journal declares %d entries, limit %d", count, maxJournalEntries))
	}
	if !d.need(count, journalEntrySize) {
		count = 0
	}
	n := g.NumVertices()
	entries := make([]dynamic.Entry, 0, min(count, chunkElems))
	prev := floorGen
	for i := uint64(0); i < count && d.err == nil; i++ {
		var ent dynamic.Entry
		ent.Gen = d.u64()
		op := d.u8()
		ent.U = d.i32()
		ent.V = d.i32()
		ent.W = d.i64()
		if d.err != nil {
			break
		}
		if op > uint8(dynamic.OpReweight) {
			d.fail(corruptf("journal entry %d has unknown op %d", i, op))
			break
		}
		ent.Op = dynamic.Op(op)
		if ent.Gen <= prev {
			d.fail(corruptf("journal generations not ascending at entry %d (%d after %d)", i, ent.Gen, prev))
			break
		}
		prev = ent.Gen
		if ent.U < 0 || ent.U >= n || ent.V < 0 || ent.V >= n {
			d.fail(corruptf("journal entry %d endpoint (%d,%d) out of range n=%d", i, ent.U, ent.V, n))
			break
		}
		if ent.U == ent.V {
			d.fail(corruptf("journal entry %d is a self-loop at %d", i, ent.U))
			break
		}
		if ent.Op != dynamic.OpDelete {
			if ent.W <= 0 {
				d.fail(corruptf("journal entry %d has non-positive weight %d", i, ent.W))
				break
			}
			if !g.Weighted() && ent.W != 1 {
				d.fail(corruptf("journal entry %d carries weight %d into an unweighted graph", i, ent.W))
				break
			}
		}
		entries = append(entries, ent)
	}
	d.end()
	if len(entries) == 0 {
		entries = nil
	}
	return floorGen, entries
}

// ---------------------------------------------------------------------------
// GRAPH payloads (used by the GRAPH and INSTANCE sections).

func graphSize(g *graph.Graph) uint64 {
	m := uint64(g.NumEdges())
	esz := uint64(8)
	if g.Weighted() {
		esz = 16
	}
	size := uint64(4+8+1+1) + m*esz
	if g.HasOrigEdgeIDs() {
		size += m * 4
	}
	return size
}

func writeGraphPayload(e *encoder, g *graph.Graph) {
	m := g.NumEdges()
	e.u32(uint32(g.NumVertices()))
	e.u64(uint64(m))
	weighted := g.Weighted()
	if weighted {
		e.u8(1)
	} else {
		e.u8(0)
	}
	hasOrig := g.HasOrigEdgeIDs()
	if hasOrig {
		e.u8(1)
	} else {
		e.u8(0)
	}
	for _, ed := range g.Edges() {
		e.i32(ed.U)
		e.i32(ed.V)
		if weighted {
			e.i64(ed.W)
		}
	}
	if hasOrig {
		for i := int64(0); i < m; i++ {
			e.i32(g.OrigEdgeID(int32(i)))
		}
	}
}

func writeGraph(e *encoder, g *graph.Graph) {
	e.begin(secGraph, graphSize(g))
	writeGraphPayload(e, g)
	e.end()
}

// graphPayload is one decoded and validated graph payload, built only
// after its section's CRC verifies: n sizes the CSR arrays.
type graphPayload struct {
	n        int32
	edges    []graph.Edge
	weighted bool
	orig     []int32
}

// build returns the payload's graph, or an empty placeholder (never
// nil) once the decode has failed; the error aborts the decode.
func (p graphPayload) build(d *decoder) *graph.Graph {
	if d.err != nil {
		return graph.FromEdges(0, nil, false)
	}
	return graph.FromEdgesOrig(p.n, p.edges, p.weighted, p.orig)
}

// readGraphPayload decodes and validates one graph payload. maxOrig
// bounds the OrigEdgeID back-map values (exclusive): contraction
// back-references point into the edge list of an ancestor graph, so a
// value outside [0, maxOrig) would make any consumer that indexes
// with it panic — the codec's never-panic policy rejects it here. On
// any sticky error it returns the zero payload.
func readGraphPayload(d *decoder, maxOrig int64) graphPayload {
	var empty graphPayload
	nu := d.u32()
	m := d.u64()
	weighted := d.u8() == 1
	hasOrig := d.u8() == 1
	if d.err != nil {
		return empty
	}
	if nu > maxVertices {
		d.fail(corruptf("vertex count %d exceeds the format limit %d", nu, maxVertices))
		return empty
	}
	n := int32(nu)
	esz := uint64(8)
	if weighted {
		esz = 16
	}
	if !d.need(m, esz) {
		return empty
	}
	edges := make([]graph.Edge, 0, min(m, chunkElems))
	for left := m; left > 0; {
		c := min(left, chunkElems)
		buf := d.chunkBuf(int(c) * int(esz))
		d.read(buf)
		if d.err != nil {
			return empty
		}
		for i := uint64(0); i < c; i++ {
			off := i * esz
			u := int32(le32(buf[off:]))
			v := int32(le32(buf[off+4:]))
			w := graph.W(1)
			if weighted {
				w = int64(le64(buf[off+8:]))
			}
			if u < 0 || u >= n || v < 0 || v >= n {
				d.fail(corruptf("edge endpoint (%d,%d) out of range n=%d", u, v, n))
				return empty
			}
			if u == v {
				d.fail(corruptf("self-loop at vertex %d", u))
				return empty
			}
			if weighted && w <= 0 {
				d.fail(corruptf("non-positive edge weight %d", w))
				return empty
			}
			edges = append(edges, graph.Edge{U: u, V: v, W: w})
		}
		left -= c
	}
	var orig []int32
	if hasOrig {
		orig = d.i32s(m)
		if d.err != nil {
			return empty
		}
		for _, oe := range orig {
			if int64(oe) < 0 || int64(oe) >= maxOrig {
				d.fail(corruptf("orig edge id %d out of range %d", oe, maxOrig))
				return empty
			}
		}
	}
	return graphPayload{n: n, edges: edges, weighted: weighted, orig: orig}
}

func readGraph(d *decoder) *graph.Graph {
	d.next(secGraph)
	// A base graph's back-map (unusual but representable) has no
	// decodable ancestor to bound against; require ids non-negative
	// and representable.
	p := readGraphPayload(d, int64(1)<<31)
	d.end()
	return p.build(d)
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func le64(b []byte) uint64 {
	return uint64(le32(b)) | uint64(le32(b[4:]))<<32
}

// ---------------------------------------------------------------------------
// SCALED sections (one hopset.Scaled: params + dedup result table +
// per-band scales).

const (
	paramsSize  = 7 * 8 // Epsilon Delta Gamma1 Gamma2 K MinFinal Seed
	wparamsSize = paramsSize + 4*8
)

func writeParams(e *encoder, p hopset.Params) {
	e.f64(p.Epsilon)
	e.f64(p.Delta)
	e.f64(p.Gamma1)
	e.f64(p.Gamma2)
	e.f64(p.K)
	e.i64(int64(p.MinFinal))
	e.u64(p.Seed)
}

func readParams(d *decoder) hopset.Params {
	var p hopset.Params
	p.Epsilon = d.f64()
	p.Delta = d.f64()
	p.Gamma1 = d.f64()
	p.Gamma2 = d.f64()
	p.K = d.f64()
	mf := d.i64()
	p.Seed = d.u64()
	if d.err != nil {
		return p
	}
	// The saved params went through normalized(); anything outside its
	// domain would re-panic (or loop) at query time, so reject here.
	switch {
	case !finite(p.Epsilon) || p.Epsilon <= 0 || p.Epsilon >= 1:
		d.fail(corruptf("params Epsilon = %v out of (0,1)", p.Epsilon))
	case !finite(p.Delta) || p.Delta <= 1:
		d.fail(corruptf("params Delta = %v, want > 1", p.Delta))
	case !finite(p.Gamma1) || !finite(p.Gamma2) || p.Gamma1 <= 0 || p.Gamma2 <= p.Gamma1 || p.Gamma2 >= 1:
		d.fail(corruptf("params gammas (%v,%v) out of order", p.Gamma1, p.Gamma2))
	case !finite(p.K) || p.K < 1:
		d.fail(corruptf("params K = %v, want >= 1", p.K))
	case mf < 2 || mf > maxVertices:
		d.fail(corruptf("params MinFinal = %d out of range", mf))
	}
	p.MinFinal = int(mf)
	return p
}

func writeWParams(e *encoder, wp hopset.WeightedParams) {
	writeParams(e, wp.Params)
	e.f64(wp.Eta)
	e.f64(wp.Zeta)
	e.f64(wp.Escalation)
	e.f64(wp.InitialHopBudget)
}

func readWParams(d *decoder) hopset.WeightedParams {
	var wp hopset.WeightedParams
	wp.Params = readParams(d)
	wp.Eta = d.f64()
	wp.Zeta = d.f64()
	wp.Escalation = d.f64()
	wp.InitialHopBudget = d.f64()
	if d.err != nil {
		return wp
	}
	switch {
	case !finite(wp.Eta) || wp.Eta <= 0 || wp.Eta > 1:
		d.fail(corruptf("params Eta = %v out of (0,1]", wp.Eta))
	case !finite(wp.Zeta) || wp.Zeta <= 0 || wp.Zeta >= 1:
		d.fail(corruptf("params Zeta = %v out of (0,1)", wp.Zeta))
	case !finite(wp.Escalation) || wp.Escalation < 2:
		d.fail(corruptf("params Escalation = %v, want >= 2", wp.Escalation))
	case !finite(wp.InitialHopBudget) || wp.InitialHopBudget < 1:
		d.fail(corruptf("params InitialHopBudget = %v, want >= 1", wp.InitialHopBudget))
	}
	return wp
}

// checkScaledComplete rejects partial hopsets: a canceled BuildScaled
// abandons bands with nil Res, and persisting those would either
// panic the encoder or freeze an invalid oracle on disk.
func checkScaledComplete(s *hopset.Scaled) error {
	if s == nil {
		return errors.New("snapshot: cannot snapshot a partial (canceled) oracle")
	}
	for i := range s.Scales {
		if s.Scales[i].Res == nil {
			return errors.New("snapshot: cannot snapshot a partial (canceled) oracle: band without a hopset")
		}
	}
	return nil
}

func scaledSize(s *hopset.Scaled, results []*hopset.Result) uint64 {
	size := uint64(wparamsSize) + 4 + 4
	for _, res := range results {
		size += paramsSize + 3*8 + 8 + uint64(len(res.Edges))*16
	}
	size += uint64(len(s.Scales)) * 20
	return size
}

func writeScaled(e *encoder, s *hopset.Scaled) {
	results, resIdx := s.Results()
	e.begin(secScaled, scaledSize(s, results))
	writeWParams(e, s.Params)
	e.u32(uint32(len(results)))
	for _, res := range results {
		writeParams(e, res.Params)
		e.i64(int64(res.Stars))
		e.i64(int64(res.Cliques))
		e.i64(int64(res.Levels))
		e.u64(uint64(len(res.Edges)))
		for _, ed := range res.Edges {
			e.i32(ed.U)
			e.i32(ed.V)
			e.i64(ed.W)
		}
	}
	e.u32(uint32(len(s.Scales)))
	for i := range s.Scales {
		e.f64(s.Scales[i].D)
		e.i64(s.Scales[i].WHat)
		e.u32(resIdx[i])
	}
	e.end()
}

// readScaled decodes one SCALED section bound to base. Hopset edges
// are validated against base's vertex range: they are later unioned
// with base's edges into the augmented query graph, whose builder
// treats malformed edges as programming errors.
func readScaled(d *decoder, base *graph.Graph) *hopset.Scaled {
	d.next(secScaled)
	wp := readWParams(d)
	n := base.NumVertices()
	numResults := d.u32()
	// Each result carries at least its params and counters.
	if !d.need(uint64(numResults), paramsSize+3*8+8) {
		numResults = 0
	}
	results := make([]*hopset.Result, 0, min(uint64(numResults), chunkElems))
	for r := uint32(0); r < numResults && d.err == nil; r++ {
		res := &hopset.Result{Params: readParams(d)}
		res.Stars = int(d.i64())
		res.Cliques = int(d.i64())
		res.Levels = int(d.i64())
		numEdges := d.u64()
		if !d.need(numEdges, 16) {
			break
		}
		res.Edges = make([]graph.Edge, 0, min(numEdges, chunkElems))
		for left := numEdges; left > 0 && d.err == nil; {
			c := min(left, chunkElems)
			buf := d.chunkBuf(int(c) * 16)
			d.read(buf)
			if d.err != nil {
				break
			}
			for i := uint64(0); i < c; i++ {
				off := i * 16
				u := int32(le32(buf[off:]))
				v := int32(le32(buf[off+4:]))
				w := int64(le64(buf[off+8:]))
				if u < 0 || u >= n || v < 0 || v >= n || u == v || w <= 0 {
					d.fail(corruptf("hopset edge (%d,%d,w=%d) invalid for n=%d", u, v, w, n))
					break
				}
				res.Edges = append(res.Edges, graph.Edge{U: u, V: v, W: w})
			}
			left -= c
		}
		results = append(results, res)
	}
	numScales := d.u32()
	if !d.need(uint64(numScales), 20) {
		numScales = 0
	}
	scales := make([]hopset.Scale, 0, numScales)
	for i := uint32(0); i < numScales && d.err == nil; i++ {
		var sc hopset.Scale
		sc.D = d.f64()
		sc.WHat = d.i64()
		idx := d.u32()
		if d.err != nil {
			break
		}
		if !finite(sc.D) || sc.D <= 0 {
			d.fail(corruptf("scale D = %v invalid", sc.D))
			break
		}
		if sc.WHat < 1 {
			d.fail(corruptf("scale WHat = %d, want >= 1", sc.WHat))
			break
		}
		if uint64(idx) >= uint64(len(results)) {
			d.fail(corruptf("scale result index %d out of range %d", idx, len(results)))
			break
		}
		sc.Res = results[idx]
		scales = append(scales, sc)
	}
	d.end()
	return hopset.NewScaled(base, scales, wp)
}

// ---------------------------------------------------------------------------
// WSCALE + INSTANCE sections (the Appendix B decomposition).

func wscaleSize(dec *wscale.Decomposition, nBase int32) uint64 {
	L := uint64(len(dec.Cats))
	return 8 + 8 + 4 + L*8 + L*(4+uint64(nBase)*4)
}

func writeWScale(e *encoder, dec *wscale.Decomposition) {
	nBase := dec.Base.NumVertices()
	e.begin(secWScale, wscaleSize(dec, nBase))
	e.f64(dec.Eps)
	e.f64(dec.B)
	e.u32(uint32(len(dec.Cats)))
	for _, c := range dec.Cats {
		e.i64(int64(c))
	}
	for j := range dec.Cats {
		e.i32(dec.LevelCounts[j])
		for _, lbl := range dec.Levels[j] {
			e.i32(lbl)
		}
	}
	e.end()
}

// readWScale decodes the decomposition skeleton; Instances are sized
// but nil, filled by the INSTANCE sections that follow.
func readWScale(d *decoder, base *graph.Graph) *wscale.Decomposition {
	d.next(secWScale)
	dec := &wscale.Decomposition{Base: base}
	dec.Eps = d.f64()
	dec.B = d.f64()
	L := d.u32()
	n := base.NumVertices()
	if d.err == nil {
		if !finite(dec.Eps) || dec.Eps <= 0 || dec.Eps >= 1 {
			d.fail(corruptf("decomposition eps = %v out of (0,1)", dec.Eps))
		} else if !finite(dec.B) || dec.B < 2 {
			d.fail(corruptf("decomposition base B = %v, want >= 2", dec.B))
		}
	}
	if !d.need(uint64(L), 8) {
		L = 0
	}
	for j := uint32(0); j < L && d.err == nil; j++ {
		c := d.i64()
		if d.err != nil {
			break
		}
		if c < 0 || c > 1<<40 {
			d.fail(corruptf("category index %d out of range", c))
			break
		}
		if len(dec.Cats) > 0 && dec.Cats[len(dec.Cats)-1] >= int(c) {
			d.fail(corruptf("category levels not strictly ascending at %d", j))
			break
		}
		dec.Cats = append(dec.Cats, int(c))
	}
	for j := uint32(0); j < L && d.err == nil; j++ {
		count := d.i32()
		if d.err != nil {
			break
		}
		if count < 1 || count > n {
			d.fail(corruptf("level %d component count %d out of range n=%d", j, count, n))
			break
		}
		labels := d.i32s(uint64(n))
		if d.err != nil {
			break
		}
		for _, lbl := range labels {
			if lbl < 0 || lbl >= count {
				d.fail(corruptf("level %d component label %d out of range %d", j, lbl, count))
				break
			}
		}
		dec.LevelCounts = append(dec.LevelCounts, count)
		dec.Levels = append(dec.Levels, labels)
	}
	if d.err == nil {
		dec.Instances = make([]*wscale.Instance, L)
	}
	d.end()
	return dec
}

// Instance label encodings. A level's contraction labeling is either
// the identity (no level contracted yet) or exactly one of the
// per-level component labelings the WSCALE section already carries
// (wscale.Build aliases the slice); storing a kind byte plus a level
// reference instead of re-serializing n labels per instance halves
// the label bytes of a decomposed snapshot and restores the slice
// sharing (and hence the memory footprint) of a fresh build. Explicit
// labels remain representable for decompositions built by hand.
const (
	labelExplicit uint8 = 0
	labelIdentity uint8 = 1
	labelShared   uint8 = 2
)

// instanceLabelKind classifies inst.Label against the recorded
// levels: identity, an alias of dec.Levels[ref], or explicit.
func instanceLabelKind(dec *wscale.Decomposition, inst *wscale.Instance) (kind uint8, ref int64) {
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

func instanceSize(dec *wscale.Decomposition, inst *wscale.Instance, nBase int32) uint64 {
	size := uint64(8+1) + graphSize(inst.G)
	switch kind, _ := instanceLabelKind(dec, inst); kind {
	case labelShared:
		size += 8
	case labelExplicit:
		size += uint64(nBase) * 4
	}
	return size
}

func writeInstance(e *encoder, dec *wscale.Decomposition, inst *wscale.Instance, nBase int32) {
	e.begin(secInstance, instanceSize(dec, inst, nBase))
	e.i64(int64(inst.Level))
	kind, ref := instanceLabelKind(dec, inst)
	e.u8(kind)
	writeGraphPayload(e, inst.G)
	switch kind {
	case labelShared:
		e.i64(ref)
	case labelExplicit:
		for _, lbl := range inst.Label {
			e.i32(lbl)
		}
	}
	e.end()
}

// readInstance decodes instance j of dec; its Level must equal j
// because the oracle indexes its per-level hopsets by it.
func readInstance(d *decoder, base *graph.Graph, dec *wscale.Decomposition, j int) *wscale.Instance {
	d.next(secInstance)
	inst := &wscale.Instance{}
	level := d.i64()
	kind := d.u8()
	// Instance graphs are contracted from subsets of base edges, so
	// their back-maps index base-local edge ids.
	p := readGraphPayload(d, base.NumEdges())
	n := base.NumVertices()
	instN := p.n
	switch kind {
	case labelIdentity:
		// Contract with the identity keeps every vertex.
		if d.err == nil && instN != n {
			d.fail(corruptf("instance %d identity labeling over %d vertices, graph has %d", j, n, instN))
			break
		}
		inst.Label = make([]graph.V, n)
		for v := range inst.Label {
			inst.Label[v] = graph.V(v)
		}
	case labelShared:
		ref := d.i64()
		if d.err != nil {
			break
		}
		if ref < 0 || ref >= int64(len(dec.Levels)) {
			d.fail(corruptf("instance %d label reference %d out of range %d", j, ref, len(dec.Levels)))
			break
		}
		// The referenced level labels into [0, LevelCounts[ref]);
		// Contract then produced exactly that many vertices.
		if dec.LevelCounts[ref] != instN {
			d.fail(corruptf("instance %d labels via level %d with %d components, graph has %d vertices",
				j, ref, dec.LevelCounts[ref], instN))
			break
		}
		inst.Label = dec.Levels[ref]
	case labelExplicit:
		inst.Label = d.i32s(uint64(n))
		if d.err != nil {
			break
		}
		for _, lbl := range inst.Label {
			if lbl < 0 || lbl >= instN {
				d.fail(corruptf("instance %d label %d out of range n=%d", j, lbl, instN))
				break
			}
		}
	default:
		d.fail(corruptf("instance %d unknown label encoding %d", j, kind))
	}
	if d.err == nil {
		if int(level) != j {
			d.fail(corruptf("instance level %d at position %d", level, j))
		} else {
			inst.Level = j
		}
	}
	d.end()
	inst.G = p.build(d)
	return inst
}
