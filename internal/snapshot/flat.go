package snapshot

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/flat"
	"repro/internal/graph"
)

// The flat snapshot format is not a new section layout for the
// streaming codec — it is the flat oracle arena (internal/flat, with
// its own format version) written to disk verbatim. This file is the negotiation shim: the
// two formats are distinguished by their 4-byte magic ("SPF3" vs the
// codec's "SPS1"), writers pick a format explicitly, and ReadOracle
// accepts either. The codec remains the portable interchange format
// (any endianness, streaming decode); the arena is the fast
// same-machine warm-start format (mmap + checksum validation).

// FreezeOracle flattens an oracle into a flat arena ready to be written
// to disk verbatim.
func FreezeOracle(g *graph.Graph, o *Oracle, note []byte) (*flat.Arena, error) {
	return flat.Freeze(&flat.Parts{
		Graph:      g,
		Eps:        o.Eps,
		Seed:       o.Seed,
		Degenerate: o.Degenerate,
		Direct:     o.Direct,
		Dec:        o.Dec,
		Instances:  o.Instances,
		FloorGen:   o.FloorGen,
		Journal:    o.Journal,
		Note:       note,
	})
}

// WriteOracleFlat is WriteOracle in the flat arena format.
func WriteOracleFlat(w io.Writer, g *graph.Graph, o *Oracle, note []byte) error {
	a, err := FreezeOracle(g, o, note)
	if err != nil {
		return err
	}
	_, err = w.Write(a.Bytes())
	return err
}

// OpenOracleArena restores an oracle from an in-memory flat arena. The
// returned structures alias data — the caller keeps data alive for
// the oracle's lifetime (automatic when data is an ordinary heap
// buffer; for a Mapping the caller must hold it, see MapOracleFile).
// A non-nil g whose fingerprint matches the arena header becomes the
// oracle's base graph directly, skipping validation of the embedded
// copy the oracle will never read (flat.Open documents the contract).
func OpenOracleArena(data []byte, g *graph.Graph) (*Oracle, *graph.Graph, []byte, error) {
	p, err := flat.Open(data, g)
	if err != nil {
		return nil, nil, nil, wrapFlatErr(err)
	}
	o := &Oracle{
		Eps:         p.Eps,
		Seed:        p.Seed,
		Fingerprint: p.Fingerprint,
		Degenerate:  p.Degenerate,
		Direct:      p.Direct,
		Dec:         p.Dec,
		Instances:   p.Instances,
		FloorGen:    p.FloorGen,
		Journal:     p.Journal,
	}
	return o, p.Graph, p.Note, nil
}

// MapOracleFile memory-maps a flat arena file and opens it in place:
// the restored oracle's arrays alias the mapping, so startup is
// header + checksum validation instead of a decode. The caller MUST
// keep the returned Mapping reachable for as long as the oracle
// serves (the facade stores it inside the DistanceOracle); it may
// Close it only on error paths before the oracle escapes.
func MapOracleFile(path string, g *graph.Graph) (*Oracle, *graph.Graph, []byte, *flat.Mapping, error) {
	m, err := flat.MapFile(path)
	if err != nil {
		return nil, nil, nil, nil, wrapFlatErr(err)
	}
	if b := m.Bytes(); len(b) >= 4 && !flat.IsArena(b) && le32(b) == magicV1 {
		m.Close()
		return nil, nil, nil, nil, fmt.Errorf("snapshot: %s is a codec (v1/v2) stream, not a flat arena — load it with ReadOracle/LoadOracle", path)
	}
	o, g, note, err := OpenOracleArena(m.Bytes(), g)
	if err != nil {
		m.Close()
		return nil, nil, nil, nil, err
	}
	return o, g, note, m, nil
}

// IsFlatFile sniffs whether the file at path holds a flat arena (as
// opposed to a codec stream or anything else).
func IsFlatFile(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var prefix [4]byte
	if _, err := io.ReadFull(f, prefix[:]); err != nil {
		return false
	}
	return flat.IsArena(prefix[:])
}

// wrapFlatErr re-parents flat's corruption sentinel under the
// package's own, so callers keep testing errors.Is(err, ErrCorrupt)
// regardless of which format rejected the file.
func wrapFlatErr(err error) error {
	if errors.Is(err, flat.ErrCorrupt) {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return err
}
