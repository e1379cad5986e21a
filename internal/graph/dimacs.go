package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file implements the 9th DIMACS Implementation Challenge
// shortest-path formats, the lingua franca of road-network
// benchmarks (USA-road-d.*.gr and friends):
//
//	.gr  —  "c ..." comments, one "p sp <n> <m>" problem line,
//	        then m arc lines "a <u> <v> <w>" with 1-indexed
//	        endpoints.
//	.co  —  "c ..." comments, one "p aux sp co <n>" problem line,
//	        then n vertex lines "v <id> <x> <y>".
//
// DIMACS graphs are directed multigraphs; this repository's Graph is
// a simple undirected graph. ReadDIMACS therefore canonicalizes: the
// two arcs of a symmetric pair (u→v, v→u) collapse into one
// undirected edge, and duplicate arcs between the same endpoints keep
// the minimum weight (the shortest-path-relevant one). Self-loop arcs
// are rejected — road files do not contain them, so one is evidence
// of corruption rather than intent.

// ReadDIMACS parses a DIMACS .gr shortest-path file into an
// undirected Graph. Endpoint ids are converted from the format's
// 1-indexed convention to this repository's 0-indexed one. The
// returned graph is always weighted; arcs must carry a positive
// weight. The arc count in the problem line must match the number of
// arc lines exactly (before deduplication).
func ReadDIMACS(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	var n V
	var m int64
	sawProblem := false
	arcs := int64(0)
	// Dedup map: canonical (min,max) endpoint pair → index into edges.
	seen := make(map[uint64]int)
	var edges []Edge

	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "c":
			// comment

		case "p":
			if sawProblem {
				return nil, fmt.Errorf("graph: dimacs line %d: second problem line", line)
			}
			if len(fields) != 4 || fields[1] != "sp" {
				return nil, fmt.Errorf("graph: dimacs line %d: bad problem line %q (want \"p sp <n> <m>\")", line, text)
			}
			n64, err1 := strconv.ParseInt(fields[2], 10, 32)
			m64, err2 := strconv.ParseInt(fields[3], 10, 64)
			if err1 != nil || err2 != nil || n64 < 0 || m64 < 0 {
				return nil, fmt.Errorf("graph: dimacs line %d: bad sizes in %q", line, text)
			}
			if n64 > maxFileVertices {
				return nil, fmt.Errorf("graph: dimacs vertex count %d exceeds the file-format limit %d", n64, maxFileVertices)
			}
			n, m = V(n64), m64
			sawProblem = true

		case "a":
			if !sawProblem {
				return nil, fmt.Errorf("graph: dimacs line %d: arc before problem line", line)
			}
			if arcs++; arcs > m {
				return nil, fmt.Errorf("graph: dimacs line %d: more than the declared %d arcs", line, m)
			}
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: dimacs line %d: bad arc line %q (want \"a <u> <v> <w>\")", line, text)
			}
			u64, err1 := strconv.ParseInt(fields[1], 10, 32)
			v64, err2 := strconv.ParseInt(fields[2], 10, 32)
			w64, err3 := strconv.ParseInt(fields[3], 10, 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("graph: dimacs line %d: bad arc line %q", line, text)
			}
			// 1-indexed endpoints.
			if u64 < 1 || u64 > int64(n) || v64 < 1 || v64 > int64(n) {
				return nil, fmt.Errorf("graph: dimacs line %d: arc endpoint out of range (%d,%d), n=%d", line, u64, v64, n)
			}
			if u64 == v64 {
				return nil, fmt.Errorf("graph: dimacs line %d: self-loop arc at %d", line, u64)
			}
			if w64 <= 0 {
				return nil, fmt.Errorf("graph: dimacs line %d: non-positive arc weight %d", line, w64)
			}
			if w64 > WeightCap(n) {
				return nil, fmt.Errorf("graph: dimacs line %d: arc weight %d exceeds the cap %d for n=%d", line, w64, WeightCap(n), n)
			}
			u, v := V(u64-1), V(v64-1)
			if u > v {
				u, v = v, u
			}
			key := uint64(u)<<32 | uint64(uint32(v))
			if i, dup := seen[key]; dup {
				// Reverse arc of a symmetric pair, or a true duplicate:
				// keep the shortest-path-relevant weight.
				if w64 < edges[i].W {
					edges[i].W = w64
				}
				continue
			}
			seen[key] = len(edges)
			edges = append(edges, Edge{U: u, V: v, W: w64})

		default:
			return nil, fmt.Errorf("graph: dimacs line %d: unknown line type %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawProblem {
		return nil, fmt.Errorf("graph: dimacs input has no problem line")
	}
	if arcs != m {
		return nil, fmt.Errorf("graph: dimacs truncated input: %d of %d arcs", arcs, m)
	}
	if err := validateEdgeList(n, edges, true); err != nil {
		return nil, err
	}
	return FromEdges(n, edges, true), nil
}

// WriteDIMACS writes g as a DIMACS .gr file: each undirected edge
// becomes the symmetric arc pair (u→v, v→u), matching how the road
// challenge distributes its (bidirectional) networks. Unweighted
// graphs are written with unit arc weights.
func WriteDIMACS(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "c spanhop export\np sp %d %d\n", g.n, 2*int64(len(g.edges))); err != nil {
		return err
	}
	for i := range g.edges {
		e := g.edges[i]
		if _, err := fmt.Fprintf(bw, "a %d %d %d\na %d %d %d\n", e.U+1, e.V+1, e.W, e.V+1, e.U+1, e.W); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Coord is one vertex position from a DIMACS .co file. DIMACS road
// files store longitude/latitude in micro-degrees.
type Coord struct {
	X, Y int64
}

// ReadDIMACSCoords parses a DIMACS .co coordinate file and returns
// one Coord per vertex, 0-indexed. Every vertex declared in the
// problem line must receive exactly one coordinate line. Memory grows
// with the vertex lines read, never with the declared count alone:
// lines in id order are appended in place, the rest wait in a side
// list that is placed once the input is known to cover every vertex.
func ReadDIMACSCoords(r io.Reader) ([]Coord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	type lateCoord struct {
		id int32
		c  Coord
	}
	var coords []Coord // coords[i] is vertex i+1's, read in order
	var late []lateCoord
	n := -1 // declared vertex count; -1 before the problem line
	lines := 0
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "c":

		case "p":
			if n >= 0 {
				return nil, fmt.Errorf("graph: dimacs co line %d: second problem line", line)
			}
			if len(fields) != 5 || fields[1] != "aux" || fields[2] != "sp" || fields[3] != "co" {
				return nil, fmt.Errorf("graph: dimacs co line %d: bad problem line %q (want \"p aux sp co <n>\")", line, text)
			}
			n64, err := strconv.ParseInt(fields[4], 10, 32)
			if err != nil || n64 < 0 {
				return nil, fmt.Errorf("graph: dimacs co line %d: bad vertex count in %q", line, text)
			}
			if n64 > maxFileVertices {
				return nil, fmt.Errorf("graph: dimacs co vertex count %d exceeds the file-format limit %d", n64, maxFileVertices)
			}
			n = int(n64)

		case "v":
			if n < 0 {
				return nil, fmt.Errorf("graph: dimacs co line %d: vertex before problem line", line)
			}
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: dimacs co line %d: bad vertex line %q (want \"v <id> <x> <y>\")", line, text)
			}
			id64, err1 := strconv.ParseInt(fields[1], 10, 32)
			x, err2 := strconv.ParseInt(fields[2], 10, 64)
			y, err3 := strconv.ParseInt(fields[3], 10, 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("graph: dimacs co line %d: bad vertex line %q", line, text)
			}
			if id64 < 1 || id64 > int64(n) {
				return nil, fmt.Errorf("graph: dimacs co line %d: vertex id %d out of range, n=%d", line, id64, n)
			}
			if c := (Coord{X: x, Y: y}); int(id64) == len(coords)+1 {
				coords = append(coords, c)
			} else {
				late = append(late, lateCoord{int32(id64), c})
			}
			lines++

		default:
			return nil, fmt.Errorf("graph: dimacs co line %d: unknown line type %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("graph: dimacs co input has no problem line")
	}
	if lines < n {
		return nil, fmt.Errorf("graph: dimacs co truncated input: %d of %d vertices", lines, n)
	}
	if len(late) == 0 {
		return coords, nil // n lines, all in id order
	}
	// n <= lines now, so sizing by n is backed by the input. With
	// exactly n in-range lines, no duplicate means every vertex is set.
	filled := make([]bool, n)
	for i := range coords {
		filled[i] = true
	}
	coords = append(coords, make([]Coord, n-len(coords))...)
	for _, lc := range late {
		if filled[lc.id-1] {
			return nil, fmt.Errorf("graph: dimacs co: duplicate coordinate for vertex %d", lc.id)
		}
		filled[lc.id-1] = true
		coords[lc.id-1] = lc.c
	}
	return coords, nil
}
