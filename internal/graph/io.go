package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"strings"
)

// This file implements two interchange formats for the cmd/ tools:
//
//   - a human-readable text edge-list ("%d %d %d\n" per edge with a
//     one-line header), and
//   - a compact little-endian binary format for large graphs.
//
// Both round-trip exactly (including weightedness), which the tests
// verify property-style.

const (
	textMagic   = "spanhop-graph/v1"
	binaryMagic = uint32(0x53504831) // "SPH1"
)

// WriteText writes g as a text edge list:
//
//	spanhop-graph/v1 <n> <m> <weighted:0|1>
//	u v w        (one line per edge)
func WriteText(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	weighted := 0
	if g.weighted {
		weighted = 1
	}
	if _, err := fmt.Fprintf(bw, "%s %d %d %d\n", textMagic, g.n, len(g.edges), weighted); err != nil {
		return err
	}
	for i := range g.edges {
		e := g.edges[i]
		if _, err := fmt.Fprintf(bw, "%d %d %d\n", e.U, e.V, e.W); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the WriteText format.
func ReadText(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("graph: empty input")
	}
	header := strings.Fields(sc.Text())
	if len(header) != 4 || header[0] != textMagic {
		return nil, fmt.Errorf("graph: bad header %q", sc.Text())
	}
	n64, err := strconv.ParseInt(header[1], 10, 32)
	if err != nil {
		return nil, fmt.Errorf("graph: bad n: %v", err)
	}
	m, err := strconv.ParseInt(header[2], 10, 64)
	if err != nil || m < 0 {
		return nil, fmt.Errorf("graph: bad m %q", header[2])
	}
	weighted := header[3] == "1"
	// Grow the edge list with the lines actually read: a forged m
	// must not size an allocation the input does not back.
	edges := make([]Edge, 0, min(m, maxPrealloc))
	for int64(len(edges)) < m {
		if !sc.Scan() {
			return nil, fmt.Errorf("graph: truncated input: %d of %d edges", len(edges), m)
		}
		line := strings.Fields(sc.Text())
		if len(line) != 3 {
			return nil, fmt.Errorf("graph: bad edge line %q", sc.Text())
		}
		u, err1 := strconv.ParseInt(line[0], 10, 32)
		v, err2 := strconv.ParseInt(line[1], 10, 32)
		wt, err3 := strconv.ParseInt(line[2], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("graph: bad edge line %q", sc.Text())
		}
		edges = append(edges, Edge{U: V(u), V: V(v), W: wt})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := validateEdgeList(V(n64), edges, weighted); err != nil {
		return nil, err
	}
	return FromEdges(V(n64), edges, weighted), nil
}

// maxFileVertices bounds the vertex count a parsed file may declare:
// beyond it the CSR arrays alone exceed laptop memory, so a larger
// header is treated as corrupt rather than honored with a giant
// allocation.
const maxFileVertices = 1 << 26

// maxPrealloc caps the edges a reader preallocates from a header's
// edge count; longer lists grow as their lines are read.
const maxPrealloc = 1 << 16

// validateEdgeList turns the malformed-input panics of FromEdges into
// parser errors: a file is data, not a programming mistake.
func validateEdgeList(n V, edges []Edge, weighted bool) error {
	if n < 0 {
		return fmt.Errorf("graph: negative vertex count %d", n)
	}
	if n > maxFileVertices {
		return fmt.Errorf("graph: vertex count %d exceeds the file-format limit %d", n, maxFileVertices)
	}
	for i, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return fmt.Errorf("graph: edge %d endpoint out of range (%d,%d), n=%d", i, e.U, e.V, n)
		}
		if e.U == e.V {
			return fmt.Errorf("graph: edge %d is a self-loop at %d", i, e.U)
		}
		if weighted && e.W <= 0 {
			return fmt.Errorf("graph: edge %d has non-positive weight %d", i, e.W)
		}
		if weighted && e.W > WeightCap(n) {
			return fmt.Errorf("graph: edge %d weight %d exceeds the cap %d for n=%d", i, e.W, WeightCap(n), n)
		}
	}
	return nil
}

// WriteBinary writes g in the compact binary format:
// magic, n, m, weighted flag, then m (u, v) int32 pairs, then (if
// weighted) m int64 weights. All little-endian.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	hdr := []any{
		binaryMagic,
		int32(g.n),
		int64(len(g.edges)),
	}
	var flag uint32
	if g.weighted {
		flag = 1
	}
	hdr = append(hdr, flag)
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	for i := range g.edges {
		if err := binary.Write(bw, binary.LittleEndian, [2]int32{g.edges[i].U, g.edges[i].V}); err != nil {
			return err
		}
	}
	if g.weighted {
		for i := range g.edges {
			if err := binary.Write(bw, binary.LittleEndian, g.edges[i].W); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadAuto sniffs the format (binary magic, text header, or DIMACS
// line types) and dispatches to ReadBinary, ReadText, or ReadDIMACS,
// so every tool accepts any interchange format from one flag.
func ReadAuto(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(4)
	if err != nil && len(head) < 4 {
		// Too short for either magic; let the text parser report the
		// canonical error for empty/garbage input.
		return ReadText(br)
	}
	if binary.LittleEndian.Uint32(head) == binaryMagic {
		return ReadBinary(br)
	}
	// DIMACS .gr files open with a comment ("c ...") or the problem
	// line ("p sp ..."); the text format's first byte is the 's' of
	// its magic and the binary magic was ruled out above.
	if len(head) >= 2 && (head[0] == 'c' || head[0] == 'p') && (head[1] == ' ' || head[1] == '\n' || head[1] == '\r' || head[1] == '\t') {
		return ReadDIMACS(br)
	}
	return ReadText(br)
}

// Fingerprint returns a stable 64-bit digest of the graph's logical
// content: vertex count, weightedness, and the canonical edge list
// (endpoints and weights) in order. Two graphs with equal fingerprints
// are CSR-identical for every deterministic algorithm in this
// repository, which is what snapshot loading validates before binding
// a restored oracle to a caller-supplied graph. The digest is cached
// on first use (the graph is immutable).
func (g *Graph) Fingerprint() uint64 {
	if g.fpOK.Load() {
		return g.fpVal.Load()
	}
	h := fnv.New64a()
	var buf [8]byte
	put32 := func(v int32) {
		binary.LittleEndian.PutUint32(buf[:4], uint32(v))
		_, _ = h.Write(buf[:4])
	}
	put64 := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		_, _ = h.Write(buf[:])
	}
	put32(g.n)
	put64(int64(len(g.edges)))
	if g.weighted {
		put32(1)
	} else {
		put32(0)
	}
	for i := range g.edges {
		e := &g.edges[i]
		put32(e.U)
		put32(e.V)
		put64(e.W)
	}
	fp := h.Sum64()
	g.fpVal.Store(fp)
	g.fpOK.Store(true)
	return fp
}

// ReadBinary parses the WriteBinary format.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var magic uint32
	var n int32
	var m int64
	var flag uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, err
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("graph: bad binary magic %#x", magic)
	}
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &m); err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &flag); err != nil {
		return nil, err
	}
	if m < 0 || n < 0 {
		return nil, fmt.Errorf("graph: negative sizes in header (n=%d, m=%d)", n, m)
	}
	if flag > 1 {
		// Only 0 and 1 are defined; anything else is a corrupt or
		// foreign file, not an unweighted graph to guess at.
		return nil, fmt.Errorf("graph: bad weighted flag %d in header", flag)
	}
	// Grow the edge list incrementally so a forged header cannot
	// force a giant allocation before the (truncated) stream errors.
	edges := make([]Edge, 0, min(m, maxPrealloc))
	for i := int64(0); i < m; i++ {
		var pair [2]int32
		if err := binary.Read(br, binary.LittleEndian, &pair); err != nil {
			return nil, fmt.Errorf("graph: truncated edges: %v", err)
		}
		edges = append(edges, Edge{U: pair[0], V: pair[1], W: 1})
	}
	if flag == 1 {
		for i := range edges {
			if err := binary.Read(br, binary.LittleEndian, &edges[i].W); err != nil {
				return nil, fmt.Errorf("graph: truncated weights: %v", err)
			}
		}
	}
	if err := validateEdgeList(n, edges, flag == 1); err != nil {
		return nil, err
	}
	return FromEdges(n, edges, flag == 1), nil
}
