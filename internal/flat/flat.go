// Package flat is the contiguous, mmap-able layout of a built
// distance oracle: every array the query path walks — hopset band
// edges, per-level component labelings, contracted instance graphs
// with their OrigEdgeID back-maps, and the weight-class decomposition
// index — lives in one arena of typed, 8-byte-aligned sections behind
// a fixed header and a checksummed section table. Derived caches
// (augmented query graphs) are not stored; they rebuild
// deterministically on first query.
//
// Freeze converts a built oracle into the arena; Open does the
// reverse by pointing Go slices directly at the arena bytes (zero
// copy, no CSR reconstruction), so loading a frozen oracle from disk
// is mmap + header/CRC validation instead of a decode. The arena is
// the repository's only snapshot format.
// The restored oracle's graphs, hopsets, and decomposition alias the
// arena, which is what makes a multi-GB warm start near-free: pages
// fault in as queries touch them. A shard of the vertex space is just
// a slice of the same arrays — this layout is the enabler for
// multi-node serving.
//
// # Arena format (version 4)
//
//	header (72 bytes):
//	  magic       "SPF3" (the arena family, every version)
//	  version     u32 (4)
//	  endian      u32 marker (the arena is host-endianness; see below)
//	  sections    u32 count
//	  totalSize   u64 (whole arena, bytes)
//	  fingerprint u64 (base graph digest, graph.Graph.Fingerprint)
//	  eps         f64
//	  seed        u64
//	  floorGen    u64 (dynamic journal floor generation)
//	  mode        u8  (degenerate / direct / decomposed / exact) + 3 pad
//	  tableCRC    u32 (CRC-32C, over the section table)
//	  headerCRC   u32 (CRC-32C, over header bytes [0,64))
//	  pad         u32
//	table: sections × 24 bytes {kind u32, crc u32, off u64, size u64}
//	payloads: 8-byte aligned, ascending, zero-filled gaps
//
// Section kinds are typed arrays (i32, i64, 16-byte edge records,
// 8-byte graph.Arc records) or byte blobs (the index, the note, the
// journal). The INDEX section — always section 0 — is a compact walk
// of the object tree that names which array sections belong to which
// graph/hopset/level; it is the only part of the arena that is decoded
// rather than aliased. A graph is its edge list, offsets, arcs
// ({To, W} per CSR direction), edge ids and optional back-map, plus a
// wide i64 weight section exactly when its maximum weight exceeds
// math.MaxUint32 (graph.Graph.Wide).
//
// Version 4 replaced version 3's split neighbor (i32) and weight (i64)
// sections with the arc section. Open refuses any other version with
// ErrVersion, so a server's warm start reports an older arena as
// skipped instead of failing.
//
// # Integrity and trust
//
// Every payload carries a CRC32 in the table and Open verifies all of
// them plus the header and table CRCs — a hardware-accelerated linear
// scan. Open then validates the structural invariants the query path
// relies on (vertex ranges, CSR shape, label ranges, parameter
// domains, journal ordering) so that nothing restored from an arena
// can panic later, and runs the full graph.Validate on the embedded
// base graph. Any violation returns an error wrapping ErrCorrupt;
// Open never panics on corrupt input. Every count that sizes memory is
// bounded by the arena's own bytes: a graph's offsets are a section of
// exactly n+1 entries, so a forged vertex count cannot allocate what
// the file does not hold, and a table read from the index is
// preallocated only up to the index bytes that could hold it.
//
// # Portability
//
// The arena is a same-machine format, not an interchange format:
// arrays are host-endianness, and Freeze and Open refuse to run on a
// big-endian host. On platforms without mmap — or under the purego
// build tag — MapFile falls back to reading the file into an aligned
// heap buffer and opening the identical arena from memory.
package flat

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"

	"repro/internal/graph"
)

// Arena version and magic. The magic is shared by every arena version;
// the version word tells them apart.
const (
	Magic   = "SPF3"
	Version = 4

	// endianMarker is written through encoding/binary little-endian;
	// it doubles as a guard against a (hypothetical) arena produced by
	// a big-endian writer.
	endianMarker uint32 = 0x1A2B3C4D

	headerSize   = 72
	tableEntSize = 24
)

// Section kinds.
const (
	kindIndex   uint32 = 1 // byte blob: the object-tree index
	kindNote    uint32 = 2 // byte blob: opaque caller annotation
	kindJournal uint32 = 3 // byte blob: packed dynamic-journal entries
	kindI32     uint32 = 4 // []int32 array
	kindI64     uint32 = 5 // []int64 array
	kindEdge    uint32 = 6 // []graph.Edge array (16-byte records)
	kindArc     uint32 = 7 // []graph.Arc array (8-byte records)
)

// Oracle shape tags (header mode byte).
const (
	modeDegenerate uint8 = 0
	modeDirect     uint8 = 1
	modeDecomposed uint8 = 2
	// modeExact is an oracle that answers with exact search on its
	// base graph: the arena holds the graph and nothing after it.
	modeExact uint8 = 3
)

// Format limits.
const (
	maxVertices       = 1 << 26
	maxNote           = 1 << 20
	maxJournalEntries = 1 << 24
	maxSections       = 1 << 20
)

// ErrCorrupt wraps every open-side failure: data from disk is not
// trusted and a bad arena is an error, never a panic.
var ErrCorrupt = errors.New("flat: corrupt arena")

// ErrVersion is returned for an intact arena header of another format
// version (an arena written before the current layout): the file is
// not corrupt, it is not readable by this build, and it is rebuilt
// rather than opened.
var ErrVersion = errors.New("flat: unsupported arena version")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// edgeSize is the wire size of one graph.Edge record. The compile-time
// assertion below pins the struct layout the arena format relies on
// (U i32 at 0, V i32 at 4, W i64 at 8).
const edgeSize = 16

var _ [edgeSize]byte = [unsafe.Sizeof(graph.Edge{})]byte{}
var _ [0]byte = [unsafe.Offsetof(graph.Edge{}.W) - 8]byte{}

// arcSize is the wire size of one graph.Arc record (To i32 at 0, W u32
// at 4), pinned the same way.
const arcSize = 8

var _ [arcSize]byte = [unsafe.Sizeof(graph.Arc{})]byte{}
var _ [0]byte = [unsafe.Offsetof(graph.Arc{}.W) - 4]byte{}

// hostLittleEndian reports the byte order arrays are laid out in.
func hostLittleEndian() bool {
	x := uint16(0x0102)
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}

// view reinterprets a section payload as a typed slice without
// copying. The payload must be exactly count elements long and
// aligned for T; both hold for builder-produced arenas (sections are
// 8-byte aligned) and are re-checked here because Open feeds it
// untrusted offsets.
func view[T any](b []byte, count int) ([]T, error) {
	var zero T
	sz := int(unsafe.Sizeof(zero))
	if count < 0 || len(b) != count*sz {
		return nil, corruptf("section holds %d bytes, want %d×%d", len(b), count, sz)
	}
	if count == 0 {
		return nil, nil
	}
	p := unsafe.Pointer(&b[0])
	if uintptr(p)%uintptr(unsafe.Alignof(zero)) != 0 {
		return nil, corruptf("section payload misaligned for %d-byte elements", sz)
	}
	return unsafe.Slice((*T)(p), count), nil
}

// bytesOf reinterprets a typed slice as its raw bytes (the zero-copy
// encode side of view).
func bytesOf[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	var zero T
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(zero)))
}

// alignedBuf allocates an n-byte buffer with 8-byte base alignment
// (backed by a []uint64), so arenas assembled or read into the heap
// satisfy view's alignment requirement just like mmap'd ones.
func alignedBuf(n int) []byte {
	if n == 0 {
		return nil
	}
	words := make([]uint64, (n+7)/8)
	return bytesOf(words)[:n]
}

// AlignBytes returns data if its base address is already 8-byte
// aligned, or an aligned copy otherwise — for callers that obtained
// arena bytes from a source with no alignment guarantee (io.ReadAll,
// a network buffer) and want to Open them in place.
func AlignBytes(data []byte) []byte {
	if len(data) == 0 || uintptr(unsafe.Pointer(&data[0]))%8 == 0 {
		return data
	}
	buf := alignedBuf(len(data))
	copy(buf, data)
	return buf
}

// ---------------------------------------------------------------------------
// Little-endian scalar helpers for the header, table, index, and
// journal blobs (the decoded — not aliased — parts of the arena).

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func le64(b []byte) uint64 {
	return uint64(le32(b)) | uint64(le32(b[4:]))<<32
}

func put32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func put64(b []byte, v uint64) {
	put32(b, uint32(v))
	put32(b[4:], uint32(v>>32))
}

// ---------------------------------------------------------------------------
// Index blob writer/reader: a bounds-checked sequential scalar codec
// for the object-tree index and the journal, sticky-error on the read
// side.

type ixWriter struct{ buf []byte }

func (w *ixWriter) u8(v uint8) { w.buf = append(w.buf, v) }

func (w *ixWriter) u32(v uint32) {
	var b [4]byte
	put32(b[:], v)
	w.buf = append(w.buf, b[:]...)
}

func (w *ixWriter) u64(v uint64) {
	var b [8]byte
	put64(b[:], v)
	w.buf = append(w.buf, b[:]...)
}

func (w *ixWriter) i32(v int32)   { w.u32(uint32(v)) }
func (w *ixWriter) i64(v int64)   { w.u64(uint64(v)) }
func (w *ixWriter) f64(v float64) { w.u64(mathFloat64bits(v)) }

type ixReader struct {
	b   []byte
	off int
	err error
}

func (r *ixReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *ixReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) || r.off+n < r.off {
		r.fail(corruptf("index overrun: need %d bytes at %d of %d", n, r.off, len(r.b)))
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *ixReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *ixReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return le32(b)
}

func (r *ixReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return le64(b)
}

func (r *ixReader) i32() int32   { return int32(r.u32()) }
func (r *ixReader) i64() int64   { return int64(r.u64()) }
func (r *ixReader) f64() float64 { return mathFloat64frombits(r.u64()) }

// room bounds a declared count of index entries of entSize bytes
// each by the index bytes left, so a forged count cannot size an
// allocation the arena does not hold.
func (r *ixReader) room(count uint32, entSize int) int {
	return min(int(count), (len(r.b)-r.off)/entSize)
}

// done reports whether the reader consumed the blob exactly.
func (r *ixReader) done() bool { return r.err == nil && r.off == len(r.b) }

// ---------------------------------------------------------------------------
// Section table.

type section struct {
	kind uint32
	crc  uint32
	off  uint64
	size uint64
}

// crcTable is the Castagnoli polynomial: it has a dedicated CRC
// instruction on amd64 (SSE4.2) and arm64, which is what keeps
// full-arena verification off the open path's critical cost.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// checksum is the table/payload checksum.
func checksum(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

// crc32Update folds more bytes into a running checksum.
func crc32Update(crc uint32, b []byte) uint32 {
	return crc32.Update(crc, crcTable, b)
}

func align8(v uint64) uint64 { return (v + 7) &^ 7 }

func intSizeof[T any](zero T) int { return int(unsafe.Sizeof(zero)) }

func mathFloat64bits(v float64) uint64     { return math.Float64bits(v) }
func mathFloat64frombits(b uint64) float64 { return math.Float64frombits(b) }

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
