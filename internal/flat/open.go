package flat

import (
	"fmt"
	"math"

	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/hopset"
	"repro/internal/wscale"
)

// Open restores an oracle from an arena without copying its arrays:
// every graph, hopset edge list, and labeling in the returned Parts
// is a slice aliasing data, which therefore must stay alive (and
// unmodified) as long as the oracle serves — the snapshot facade
// chains the oracle to its Mapping for exactly this reason.
//
// The arena is untrusted: Open verifies the header, table, and every
// per-section CRC32, then validates every structural invariant the
// query path relies on — nothing Open accepts can panic a later
// query. Any violation returns an error wrapping ErrCorrupt.
//
// base, when non-nil, is a caller-resident graph the oracle should
// bind to instead of the embedded copy. If its fingerprint matches
// the arena header, the embedded base graph's arrays are only
// section-checked (kind, size, CRC) — not cross-validated — because
// the oracle will never read them. A base whose fingerprint does not
// match is ignored
// (the fully validated embedded graph is returned, and the caller's
// own fingerprint comparison reports the mismatch).
func Open(data []byte, base *graph.Graph) (*Parts, error) {
	if !hostLittleEndian() {
		return nil, corruptf("arena format requires a little-endian host")
	}
	o, h, err := openArena(data)
	if err != nil {
		return nil, err
	}
	r := &ixReader{b: o.index}
	p := &Parts{Eps: h.eps, Seed: h.seed, Fingerprint: h.fingerprint, FloorGen: h.floorGen}

	trusted := base
	if trusted != nil && trusted.Fingerprint() != h.fingerprint {
		trusted = nil
	}
	noteSec := r.i32()
	journalSec := r.i32()
	g := o.readGraph(r, 1<<31, true, trusted)
	if r.err != nil {
		return nil, r.err
	}
	p.Graph = g
	switch h.mode {
	case modeExact:
		p.Exact = true
	case modeDegenerate:
		p.Degenerate = true
	case modeDirect:
		p.Direct = o.readScaled(r, g)
	case modeDecomposed:
		p.Dec, p.Instances = o.readWScale(r, g)
	default:
		return nil, corruptf("header mode %d is not an oracle shape", h.mode)
	}
	if r.err != nil {
		return nil, r.err
	}
	if !r.done() {
		return nil, corruptf("index holds %d trailing bytes", len(o.index)-r.off)
	}
	if noteSec >= 0 {
		raw, err := o.payload(noteSec, kindNote)
		if err != nil {
			return nil, err
		}
		if len(raw) > maxNote {
			return nil, corruptf("note of %d bytes exceeds the %d limit", len(raw), maxNote)
		}
		// The note is the one blob callers may retain past the mapping
		// (the server parses it into its own structures) — copy it out.
		p.Note = append([]byte(nil), raw...)
	}
	if journalSec >= 0 {
		raw, err := o.payload(journalSec, kindJournal)
		if err != nil {
			return nil, err
		}
		p.Journal, err = unpackJournal(raw, g, h.floorGen)
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// ---------------------------------------------------------------------------
// Arena envelope: header, table, checksums.

type opener struct {
	data  []byte
	secs  []section
	index []byte
}

// parseHeader validates the fixed 72-byte header — length, magic,
// header checksum, version, byte order, scalar domains — and returns
// the decoded metadata plus the declared section count and total
// size. It reads nothing past the header: table and payload
// validation is openArena's job.
func parseHeader(data []byte) (arenaHeader, uint32, uint64, error) {
	var h arenaHeader
	if len(data) < headerSize {
		return h, 0, 0, corruptf("arena of %d bytes is smaller than a header", len(data))
	}
	if string(data[0:4]) != Magic {
		return h, 0, 0, corruptf("bad magic %q", data[0:4])
	}
	if headerCRC(data) != le32(data[64:]) {
		return h, 0, 0, corruptf("header checksum mismatch")
	}
	if v := le32(data[4:]); v != Version {
		return h, 0, 0, fmt.Errorf("%w %d, want %d", ErrVersion, v, Version)
	}
	if le32(data[8:]) != endianMarker {
		return h, 0, 0, corruptf("arena written with foreign byte order")
	}
	nsec := le32(data[12:])
	total := le64(data[16:])
	h.fingerprint = le64(data[24:])
	h.eps = mathFloat64frombits(le64(data[32:]))
	h.seed = le64(data[40:])
	h.floorGen = le64(data[48:])
	h.mode = data[56]
	if total != uint64(len(data)) {
		return h, 0, 0, corruptf("header declares %d bytes, file holds %d", total, len(data))
	}
	if !finite(h.eps) || h.eps < 0 || h.eps >= 1 {
		return h, 0, 0, corruptf("eps = %v out of range", h.eps)
	}
	if nsec < 1 || nsec > maxSections {
		return h, 0, 0, corruptf("section count %d out of range", nsec)
	}
	return h, nsec, total, nil
}

// openArena validates the envelope — lengths, magic, version,
// endianness, header/table/payload CRCs, section bounds and alignment
// — and returns the parsed table plus the index blob.
func openArena(data []byte) (*opener, arenaHeader, error) {
	h, nsec, total, err := parseHeader(data)
	if err != nil {
		return nil, h, err
	}
	tableEnd := uint64(headerSize) + uint64(nsec)*tableEntSize
	if tableEnd > total {
		return nil, h, corruptf("section table overruns the arena")
	}
	table := data[headerSize:tableEnd]
	if checksum(table) != le32(data[60:]) {
		return nil, h, corruptf("section table checksum mismatch")
	}
	o := &opener{data: data, secs: make([]section, nsec)}
	// The layout is canonical: payloads tightly packed in table order,
	// each at the 8-aligned end of its predecessor, alignment gaps
	// zero. Enforcing it makes overlap impossible and — together with
	// the header, table, and payload CRCs — leaves no byte of the
	// arena unchecked.
	prevEnd := tableEnd
	for i := range o.secs {
		ent := table[i*tableEntSize:]
		s := section{
			kind: le32(ent),
			crc:  le32(ent[4:]),
			off:  le64(ent[8:]),
			size: le64(ent[16:]),
		}
		// ap > total must be rejected before the size check: with
		// s.off == ap past the end, total-ap underflows and any size
		// passes, and the pad/checksum slices below go out of bounds.
		ap := align8(prevEnd)
		if s.off != ap || ap > total || s.size > total-ap {
			return nil, h, corruptf("section %d spans [%d,+%d), want tight packing at %d in %d bytes", i, s.off, s.size, ap, total)
		}
		for _, pad := range data[prevEnd:s.off] {
			if pad != 0 {
				return nil, h, corruptf("nonzero alignment padding before section %d", i)
			}
		}
		if checksum(data[s.off:s.off+s.size]) != s.crc {
			return nil, h, corruptf("section %d checksum mismatch", i)
		}
		prevEnd = s.off + s.size
		o.secs[i] = s
	}
	if prevEnd != total {
		return nil, h, corruptf("arena holds %d bytes past the last section", total-prevEnd)
	}
	if o.secs[0].kind != kindIndex {
		return nil, h, corruptf("section 0 has kind %d, want the index", o.secs[0].kind)
	}
	o.index = o.payloadOf(0)
	return o, h, nil
}

func (o *opener) payloadOf(i int32) []byte {
	s := o.secs[i]
	return o.data[s.off : s.off+s.size]
}

// payload resolves a section ordinal from the index, checking range
// and kind (an index that references the wrong section type is
// corrupt, not a cast hazard).
func (o *opener) payload(i int32, kind uint32) ([]byte, error) {
	if i < 0 || int(i) >= len(o.secs) {
		return nil, corruptf("section reference %d out of range %d", i, len(o.secs))
	}
	if o.secs[i].kind != kind {
		return nil, corruptf("section %d has kind %d, want %d", i, o.secs[i].kind, kind)
	}
	return o.payloadOf(i), nil
}

// arrayOf resolves a typed array section into a slice aliasing the
// arena. count < 0 derives the element count from the section size.
func arrayOf[T any](o *opener, r *ixReader, kind uint32, count int) []T {
	sec := r.i32()
	if r.err != nil {
		return nil
	}
	raw, err := o.payload(sec, kind)
	if err != nil {
		r.fail(err)
		return nil
	}
	if count < 0 {
		var zero T
		sz := intSizeof(zero)
		if len(raw)%sz != 0 {
			r.fail(corruptf("section %d size %d not a whole number of %d-byte elements", sec, len(raw), sz))
			return nil
		}
		count = len(raw) / sz
	}
	arr, err := view[T](raw, count)
	if err != nil {
		r.fail(err)
		return nil
	}
	return arr
}

// ---------------------------------------------------------------------------
// Graph references.

// readGraph reconstructs one graph as a zero-copy view over the arena
// and validates it. maxOrig bounds OrigEdgeID back-map values. deep
// selects the fused graph.Validate-equivalent pass
// (the base graph's contract with the fuzz harness); shallow graphs
// get the targeted array checks, which already cover everything their
// use on the query path can index with. A non-nil trusted graph (its
// fingerprint already matched the arena header) short-circuits
// content validation entirely: the sections are still resolved (kind,
// size, CRC) to keep the index walk honest, the scalar metadata is
// cross-checked, and trusted itself is returned — the embedded arrays
// are never read again.
func (o *opener) readGraph(r *ixReader, maxOrig int64, deep bool, trusted *graph.Graph) *graph.Graph {
	var v graph.CSRView
	v.N = r.i32()
	m := r.i64()
	weighted := r.u8()
	v.MinW = r.i64()
	v.MaxW = r.i64()
	if r.err != nil {
		return nil
	}
	if weighted > 1 {
		r.fail(corruptf("graph weighted flag %d", weighted))
		return nil
	}
	v.Weighted = weighted == 1
	if v.N < 0 || int64(v.N) > maxVertices {
		r.fail(corruptf("vertex count %d exceeds the format limit %d", v.N, maxVertices))
		return nil
	}
	if m < 0 || m > int64(maxVertices)*maxVertices {
		r.fail(corruptf("edge count %d out of range", m))
		return nil
	}
	v.Edges = arrayOf[graph.Edge](o, r, kindEdge, int(m))
	v.Offs = arrayOf[int64](o, r, kindI64, int(v.N)+1)
	v.Arcs = arrayOf[graph.Arc](o, r, kindArc, int(2*m))
	// The wide section is present exactly when the declared maximum
	// weight does not fit an Arc; checkGraphView then proves the
	// declared maximum against the edge list.
	if v.Weighted && v.MaxW > math.MaxUint32 {
		v.Wide = arrayOf[graph.W](o, r, kindI64, int(2*m))
	} else if sec := r.i32(); r.err == nil && sec != -1 {
		r.fail(corruptf("graph of maximum weight %d carries a wide weight section", v.MaxW))
	}
	v.Eids = arrayOf[int32](o, r, kindI32, int(2*m))
	origSec := r.i32()
	if r.err == nil && origSec >= 0 {
		// Re-read through arrayOf's machinery: back up one i32.
		r.off -= 4
		v.OrigEID = arrayOf[int32](o, r, kindI32, int(m))
		if v.OrigEID == nil {
			// An edgeless contracted graph keeps its (empty) back-map.
			v.OrigEID = []int32{}
		}
	}
	if r.err != nil {
		return nil
	}
	if trusted != nil {
		if int64(v.N) != int64(trusted.NumVertices()) || m != trusted.NumEdges() ||
			v.Weighted != trusted.Weighted() ||
			v.MinW != trusted.MinWeight() || v.MaxW != trusted.MaxWeight() {
			r.fail(corruptf("embedded graph metadata does not match the fingerprint-matched caller graph"))
			return nil
		}
		return trusted
	}
	if err := checkGraphView(&v, maxOrig, deep); err != nil {
		r.fail(err)
		return nil
	}
	return graph.FromCSRView(v)
}

// checkGraphView validates the CSR arrays: every value any consumer
// indexes with must be in range, weights must lie in
// [1, graph.WeightCap(n)] as the search kernels assume, and the cached
// extrema must match the edge list (wscale's category math reads them).
//
// With deep=true it additionally proves full CSR ↔ edge-list
// cross-consistency in one fused pass — every check graph.Validate
// performs, rewritten flat over the raw view so the base graph is
// walked once instead of twice (FuzzReadOracle asserts loaded graphs
// pass Validate; this is what guarantees it). With deep=false
// (contracted instance graphs) only range/domain checks run: the
// query path indexes nothing else of them.
func checkGraphView(v *graph.CSRView, maxOrig int64, deep bool) error {
	n, m := int64(v.N), int64(len(v.Edges))
	if v.Offs[0] != 0 || v.Offs[n] != 2*m {
		return corruptf("offs endpoints [%d,%d], want [0,%d]", v.Offs[0], v.Offs[n], 2*m)
	}
	for i := int64(0); i < n; i++ {
		if v.Offs[i] > v.Offs[i+1] {
			return corruptf("offs not monotone at %d", i)
		}
	}
	un := uint32(n) // n <= maxVertices < 2^31, so unsigned compares catch negatives too
	wCap := graph.WeightCap(v.N)
	if deep {
		// Each CSR direction must name an in-range neighbor and point at
		// the canonical edge it came from (endpoints and weight match),
		// and each edge must appear in exactly two directions. Self-loops
		// and endpoint ranges are then covered by the edge-list pass:
		// dirCount == 2 means no edge escapes it.
		dirCount := make([]int32, m)
		for u := int64(0); u < n; u++ {
			// Subslice per vertex: the offs are already proven monotone
			// with in-range endpoints, and ranging over the subslices
			// lets the compiler drop per-entry bounds checks.
			lo, hi := v.Offs[u], v.Offs[u+1]
			arcs, eids := v.Arcs[lo:hi], v.Eids[lo:hi]
			var wide []graph.W
			if v.Wide != nil {
				wide = v.Wide[lo:hi]
			}
			uv := graph.V(u)
			for i, a := range arcs {
				d := a.To
				if uint32(d) >= un {
					return corruptf("adjacency target %d out of range n=%d at vertex %d", d, n, u)
				}
				e := eids[i]
				if uint64(int64(e)) >= uint64(m) {
					return corruptf("adjacency edge id %d out of range m=%d at vertex %d", e, m, u)
				}
				ed := &v.Edges[e]
				if !((ed.U == uv && ed.V == d) || (ed.U == d && ed.V == uv)) {
					return corruptf("adjacency edge id %d at vertex %d does not match edge (%d,%d)", e, u, ed.U, ed.V)
				}
				if a.W != graph.ArcWeight(ed.W) || (wide != nil && wide[i] != ed.W) {
					return corruptf("adjacency weight %d != edge %d weight %d", a.W, e, ed.W)
				}
				dirCount[e]++
			}
		}
		for e, c := range dirCount {
			if c != 2 {
				return corruptf("edge %d appears in %d directions, want 2", e, c)
			}
		}
	} else {
		for i, a := range v.Arcs {
			if uint32(a.To) >= un {
				return corruptf("adjacency target %d out of range n=%d at %d", a.To, n, i)
			}
			if a.W < 1 {
				return corruptf("adjacency weight %d invalid at %d", a.W, i)
			}
		}
		for i, e := range v.Eids {
			if uint64(int64(e)) >= uint64(m) {
				return corruptf("adjacency edge id %d out of range m=%d at %d", e, m, i)
			}
		}
		for i, w := range v.Wide {
			if w <= 0 || w > wCap {
				return corruptf("adjacency wide weight %d invalid at %d", w, i)
			}
		}
	}
	minW, maxW := graph.W(1), graph.W(1)
	for i := range v.Edges {
		e := &v.Edges[i]
		if !deep && (uint32(e.U) >= un || uint32(e.V) >= un) {
			return corruptf("edge endpoint (%d,%d) out of range n=%d", e.U, e.V, n)
		}
		if e.U == e.V {
			return corruptf("self-loop at vertex %d", e.U)
		}
		if e.W <= 0 || e.W > wCap || (!v.Weighted && e.W != 1) {
			return corruptf("edge weight %d invalid (weighted=%v, cap %d)", e.W, v.Weighted, wCap)
		}
		if v.Weighted {
			if i == 0 {
				minW, maxW = e.W, e.W
			} else {
				if e.W < minW {
					minW = e.W
				}
				if e.W > maxW {
					maxW = e.W
				}
			}
		}
	}
	if v.MinW != minW || v.MaxW != maxW {
		return corruptf("cached weight extrema [%d,%d], edges say [%d,%d]", v.MinW, v.MaxW, minW, maxW)
	}
	for i, oe := range v.OrigEID {
		if int64(oe) < 0 || int64(oe) >= maxOrig {
			return corruptf("orig edge id %d out of range %d at %d", oe, maxOrig, i)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Hopset references.

func (o *opener) readScaled(r *ixReader, base *graph.Graph) *hopset.Scaled {
	var wp hopset.WeightedParams
	wp.Epsilon = r.f64()
	wp.Delta = r.f64()
	wp.Gamma1 = r.f64()
	wp.Gamma2 = r.f64()
	wp.K = r.f64()
	mf := r.i64()
	wp.Seed = r.u64()
	wp.Eta = r.f64()
	wp.Zeta = r.f64()
	wp.Escalation = r.f64()
	wp.InitialHopBudget = r.f64()
	if r.err != nil {
		return nil
	}
	if err := checkParams(&wp.Params, mf); err != nil {
		r.fail(err)
		return nil
	}
	switch {
	case !finite(wp.Eta) || wp.Eta <= 0 || wp.Eta > 1:
		r.fail(corruptf("params Eta = %v out of (0,1]", wp.Eta))
	case !finite(wp.Zeta) || wp.Zeta <= 0 || wp.Zeta >= 1:
		r.fail(corruptf("params Zeta = %v out of (0,1)", wp.Zeta))
	case !finite(wp.Escalation) || wp.Escalation < 2:
		r.fail(corruptf("params Escalation = %v, want >= 2", wp.Escalation))
	case !finite(wp.InitialHopBudget) || wp.InitialHopBudget < 1:
		r.fail(corruptf("params InitialHopBudget = %v, want >= 1", wp.InitialHopBudget))
	}
	if r.err != nil {
		return nil
	}

	n := base.NumVertices()
	numResults := r.u32()
	if numResults > maxSections {
		r.fail(corruptf("hopset declares %d result tables", numResults))
		return nil
	}
	results := make([]*hopset.Result, 0, r.room(numResults, resultIndexSize))
	for ri := uint32(0); ri < numResults && r.err == nil; ri++ {
		res := &hopset.Result{}
		res.Params.Epsilon = r.f64()
		res.Params.Delta = r.f64()
		res.Params.Gamma1 = r.f64()
		res.Params.Gamma2 = r.f64()
		res.Params.K = r.f64()
		rmf := r.i64()
		res.Params.Seed = r.u64()
		res.Stars = int(r.i64())
		res.Cliques = int(r.i64())
		res.Levels = int(r.i64())
		res.Edges = arrayOf[graph.Edge](o, r, kindEdge, -1)
		if r.err != nil {
			break
		}
		if err := checkParams(&res.Params, rmf); err != nil {
			r.fail(err)
			break
		}
		un := uint32(n) // unsigned compares catch negative endpoints too
		for i := range res.Edges {
			e := &res.Edges[i]
			// Hopset weights are base distances, so below InfDist.
			if uint32(e.U) >= un || uint32(e.V) >= un || e.U == e.V || e.W <= 0 || e.W >= graph.InfDist {
				r.fail(corruptf("hopset edge (%d,%d,w=%d) invalid for n=%d", e.U, e.V, e.W, n))
				break
			}
		}
		results = append(results, res)
	}
	numScales := r.u32()
	if numScales > maxSections {
		r.fail(corruptf("hopset declares %d scales", numScales))
		return nil
	}
	scales := make([]hopset.Scale, 0, r.room(numScales, scaleIndexSize))
	for i := uint32(0); i < numScales && r.err == nil; i++ {
		var sc hopset.Scale
		sc.D = r.f64()
		sc.WHat = r.i64()
		idx := r.u32()
		if r.err != nil {
			break
		}
		if !finite(sc.D) || sc.D <= 0 {
			r.fail(corruptf("scale D = %v invalid", sc.D))
			break
		}
		if sc.WHat < 1 {
			r.fail(corruptf("scale WHat = %d, want >= 1", sc.WHat))
			break
		}
		if uint64(idx) >= uint64(len(results)) {
			r.fail(corruptf("scale result index %d out of range %d", idx, len(results)))
			break
		}
		sc.Res = results[idx]
		scales = append(scales, sc)
	}
	if r.err != nil {
		return nil
	}
	// The augmented query graph is not stored: Augmented() rebuilds it
	// deterministically from the base graph and band edges on first use.
	return hopset.NewScaled(base, scales, wp)
}

// Index bytes per hopset result (ten 8-byte scalars and a section
// reference) and per scale (D, ŵ and a result index).
const (
	resultIndexSize = 10*8 + 4
	scaleIndexSize  = 2*8 + 4
)

func checkParams(p *hopset.Params, mf int64) error {
	switch {
	case !finite(p.Epsilon) || p.Epsilon <= 0 || p.Epsilon >= 1:
		return corruptf("params Epsilon = %v out of (0,1)", p.Epsilon)
	case !finite(p.Delta) || p.Delta <= 1:
		return corruptf("params Delta = %v, want > 1", p.Delta)
	case !finite(p.Gamma1) || !finite(p.Gamma2) || p.Gamma1 <= 0 || p.Gamma2 <= p.Gamma1 || p.Gamma2 >= 1:
		return corruptf("params gammas (%v,%v) out of order", p.Gamma1, p.Gamma2)
	case !finite(p.K) || p.K < 1:
		return corruptf("params K = %v, want >= 1", p.K)
	case mf < 2 || mf > maxVertices:
		return corruptf("params MinFinal = %d out of range", mf)
	}
	p.MinFinal = int(mf)
	return nil
}

// ---------------------------------------------------------------------------
// Decomposition references.

func (o *opener) readWScale(r *ixReader, base *graph.Graph) (*wscale.Decomposition, []*hopset.Scaled) {
	dec := &wscale.Decomposition{Base: base}
	dec.Eps = r.f64()
	dec.B = r.f64()
	L := r.u32()
	if r.err != nil {
		return nil, nil
	}
	if !finite(dec.Eps) || dec.Eps <= 0 || dec.Eps >= 1 {
		r.fail(corruptf("decomposition eps = %v out of (0,1)", dec.Eps))
		return nil, nil
	}
	if !finite(dec.B) || dec.B < 2 {
		r.fail(corruptf("decomposition base B = %v, want >= 2", dec.B))
		return nil, nil
	}
	if L > maxSections {
		r.fail(corruptf("decomposition declares %d levels", L))
		return nil, nil
	}
	n := base.NumVertices()
	for j := uint32(0); j < L && r.err == nil; j++ {
		c := r.i64()
		count := r.i32()
		labels := arrayOf[graph.V](o, r, kindI32, int(n))
		if r.err != nil {
			break
		}
		if c < 0 || c > 1<<40 {
			r.fail(corruptf("category index %d out of range", c))
			break
		}
		if len(dec.Cats) > 0 && dec.Cats[len(dec.Cats)-1] >= int(c) {
			r.fail(corruptf("category levels not strictly ascending at %d", j))
			break
		}
		if count < 1 || count > n {
			r.fail(corruptf("level %d component count %d out of range n=%d", j, count, n))
			break
		}
		for _, lbl := range labels {
			if lbl < 0 || lbl >= count {
				r.fail(corruptf("level %d component label %d out of range %d", j, lbl, count))
				break
			}
		}
		dec.Cats = append(dec.Cats, int(c))
		dec.LevelCounts = append(dec.LevelCounts, count)
		dec.Levels = append(dec.Levels, labels)
	}
	if r.err != nil {
		return nil, nil
	}
	var instances []*hopset.Scaled
	for j := uint32(0); j < L && r.err == nil; j++ {
		inst := &wscale.Instance{Level: int(j)}
		kind := r.u8()
		var labelSec []graph.V
		var sharedRef int64 = -1
		switch kind {
		case labelIdentity:
		case labelShared:
			sharedRef = r.i64()
			if r.err == nil && (sharedRef < 0 || sharedRef >= int64(len(dec.Levels))) {
				r.fail(corruptf("instance %d label reference %d out of range %d", j, sharedRef, len(dec.Levels)))
			}
		case labelExplicit:
			labelSec = arrayOf[graph.V](o, r, kindI32, int(n))
		default:
			r.fail(corruptf("instance %d unknown label encoding %d", j, kind))
		}
		if r.err != nil {
			break
		}
		inst.G = o.readGraph(r, base.NumEdges(), false, nil)
		if r.err != nil {
			break
		}
		instN := inst.G.NumVertices()
		switch kind {
		case labelIdentity:
			if instN != n {
				r.fail(corruptf("instance %d identity labeling over %d vertices, graph has %d", j, n, instN))
			} else {
				inst.Label = make([]graph.V, n)
				for v := range inst.Label {
					inst.Label[v] = graph.V(v)
				}
			}
		case labelShared:
			if dec.LevelCounts[sharedRef] != instN {
				r.fail(corruptf("instance %d labels via level %d with %d components, graph has %d vertices",
					j, sharedRef, dec.LevelCounts[sharedRef], instN))
			} else {
				inst.Label = dec.Levels[sharedRef]
			}
		case labelExplicit:
			for _, lbl := range labelSec {
				if lbl < 0 || lbl >= instN {
					r.fail(corruptf("instance %d label %d out of range n=%d", j, lbl, instN))
					break
				}
			}
			inst.Label = labelSec
		}
		if r.err != nil {
			break
		}
		dec.Instances = append(dec.Instances, inst)
		instances = append(instances, o.readScaled(r, inst.G))
	}
	if r.err != nil {
		return nil, nil
	}
	return dec, instances
}

// ---------------------------------------------------------------------------
// Journal.

// unpackJournal decodes and validates the journal blob against the
// base graph: a known op, strictly ascending generations above the
// floor, in-range endpoints, no self-loop, and a positive weight (1
// in an unweighted graph) on every insert and reweight.
func unpackJournal(raw []byte, g *graph.Graph, floorGen uint64) ([]dynamic.Entry, error) {
	r := &ixReader{b: raw}
	count := r.u64()
	if r.err == nil && count > maxJournalEntries {
		return nil, corruptf("journal declares %d entries, limit %d", count, maxJournalEntries)
	}
	n := g.NumVertices()
	var entries []dynamic.Entry
	prev := floorGen
	for i := uint64(0); i < count && r.err == nil; i++ {
		var ent dynamic.Entry
		ent.Gen = r.u64()
		op := r.u8()
		ent.U = r.i32()
		ent.V = r.i32()
		ent.W = r.i64()
		if r.err != nil {
			break
		}
		if op > uint8(dynamic.OpReweight) {
			return nil, corruptf("journal entry %d has unknown op %d", i, op)
		}
		ent.Op = dynamic.Op(op)
		if ent.Gen <= prev {
			return nil, corruptf("journal generations not ascending at entry %d (%d after %d)", i, ent.Gen, prev)
		}
		prev = ent.Gen
		if ent.U < 0 || ent.U >= n || ent.V < 0 || ent.V >= n {
			return nil, corruptf("journal entry %d endpoint (%d,%d) out of range n=%d", i, ent.U, ent.V, n)
		}
		if ent.U == ent.V {
			return nil, corruptf("journal entry %d is a self-loop at %d", i, ent.U)
		}
		if ent.Op != dynamic.OpDelete {
			if ent.W <= 0 || ent.W > graph.WeightCap(n) {
				return nil, corruptf("journal entry %d weight %d outside [1, %d]", i, ent.W, graph.WeightCap(n))
			}
			if !g.Weighted() && ent.W != 1 {
				return nil, corruptf("journal entry %d carries weight %d into an unweighted graph", i, ent.W)
			}
		}
		entries = append(entries, ent)
	}
	if r.err != nil {
		return nil, r.err
	}
	if !r.done() {
		return nil, corruptf("journal blob holds %d trailing bytes", len(raw)-r.off)
	}
	return entries, nil
}
