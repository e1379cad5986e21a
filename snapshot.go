package spanhop

import (
	"fmt"
	"io"

	"repro/internal/dynamic"
	"repro/internal/snapshot"
)

// This file is the facade over internal/snapshot: preprocess-once /
// query-many only pays off if "once" survives the process, so a built
// DistanceOracle can be saved to a self-contained, versioned,
// checksummed snapshot and restored in milliseconds — the wscale
// decomposition, every per-band hopset, and the degenerate/direct
// fast paths round-trip bit-identically (restored oracles answer
// exactly what the in-memory oracle would, QueryStats included).

// SaveOracle writes a self-contained snapshot of o (including its
// base graph) to w. The oracle must be fully built: saving an oracle
// whose build was canceled returns an error.
func SaveOracle(w io.Writer, o *DistanceOracle) error {
	return SaveOracleNote(w, o, nil)
}

// SaveOracleNote is SaveOracle with an opaque caller annotation
// stored alongside the oracle (the serving layer keeps the graph's
// registration spec there). len(note) is capped at 1 MiB.
func SaveOracleNote(w io.Writer, o *DistanceOracle, note []byte) error {
	return saveOracleJournal(w, o, note, 0, nil)
}

func saveOracleJournal(w io.Writer, o *DistanceOracle, note []byte, floor uint64, journal []dynamic.Entry) error {
	return snapshot.WriteOracle(w, o.g, o.exchange(floor, journal), note)
}

// exchange converts the oracle to the codec/arena exchange shape.
func (o *DistanceOracle) exchange(floor uint64, journal []dynamic.Entry) *snapshot.Oracle {
	return &snapshot.Oracle{
		Eps:        o.eps,
		Seed:       o.seed,
		Degenerate: o.degenerate,
		Direct:     o.direct,
		Dec:        o.dec,
		Instances:  o.instances,
		FloorGen:   floor,
		Journal:    journal,
	}
}

// SaveOracleFlat writes o in the flat-arena format: the
// oracle's arrays laid out contiguously with per-section checksums,
// so a later OpenOracleFile (or LoadOracle) restores it by mapping —
// not decoding — the file. The arena is a same-machine cache format
// (host endianness); use SaveOracle for portable interchange.
func SaveOracleFlat(w io.Writer, o *DistanceOracle) error {
	return SaveOracleFlatNote(w, o, nil)
}

// SaveOracleFlatNote is SaveOracleFlat with an opaque annotation, as
// SaveOracleNote.
func SaveOracleFlatNote(w io.Writer, o *DistanceOracle, note []byte) error {
	return snapshot.WriteOracleFlat(w, o.g, o.exchange(0, nil), note)
}

// SaveDynamicOracleFlat is SaveDynamicOracle in the flat-arena
// format: base oracle plus pending journal, mappable on restart.
func SaveDynamicOracleFlat(w io.Writer, d *DynamicOracle, note []byte) error {
	base, _, floor, journal := d.ov.PersistState()
	o := base.(baseAdapter).o
	return snapshot.WriteOracleFlat(w, o.g, o.exchange(floor, journal), note)
}

// SaveDynamicOracle persists a dynamic oracle: the current static
// base oracle plus the pending mutation journal (and its generation
// window), captured atomically with respect to rebuild swaps. A
// restore via LoadDynamicOracle replays the journal, so the restored
// oracle reports the same Generation and answers the same queries.
func SaveDynamicOracle(w io.Writer, d *DynamicOracle, note []byte) error {
	base, _, floor, journal := d.ov.PersistState()
	return saveOracleJournal(w, base.(baseAdapter).o, note, floor, journal)
}

// LoadOracle restores a SaveOracle snapshot. If g is non-nil it must
// fingerprint-match the snapshot's embedded graph and becomes the
// oracle's base (sharing the caller's already-resident graph); nil
// uses the embedded copy. opt supplies the execution contexts queries
// run on, resolved exactly as NewDistanceOracleOpts resolves them
// (QueryExec wins, then Exec.Detached()); build-only fields (Cost)
// are ignored — nothing is built.
//
// The restored oracle is bit-identical to the one saved: every Query/
// QueryBatch answer, including Levels and Fallback diagnostics,
// matches the in-memory original.
func LoadOracle(r io.Reader, g *Graph, opt OracleOptions) (*DistanceOracle, error) {
	o, _, err := LoadOracleNote(r, g, opt)
	return o, err
}

// LoadOracleNote is LoadOracle returning the annotation stored by
// SaveOracleNote (nil when none). A snapshot carrying a pending
// mutation journal (SaveDynamicOracle) is refused: silently dropping
// un-rebuilt mutations would serve a stale graph — restore those with
// LoadDynamicOracle.
func LoadOracleNote(r io.Reader, g *Graph, opt OracleOptions) (*DistanceOracle, []byte, error) {
	o, note, _, journal, err := loadOracle(r, g, opt)
	if err != nil {
		return nil, nil, err
	}
	if len(journal) > 0 {
		return nil, nil, fmt.Errorf("spanhop: snapshot carries %d pending mutations; load it with LoadDynamicOracle", len(journal))
	}
	return o, note, nil
}

// LoadDynamicOracle restores a SaveDynamicOracle (or SaveOracle)
// snapshot as a DynamicOracle: the base oracle is rebuilt from the
// stream exactly as LoadOracle would, then the persisted journal is
// replayed into the overlay, so the restored oracle reports the saved
// Generation and answers queries with every pending mutation applied.
// g and opt behave as in LoadOracle; pol configures the restored
// oracle's rebuild scheduler.
func LoadDynamicOracle(r io.Reader, g *Graph, opt OracleOptions, pol RebuildPolicy) (*DynamicOracle, []byte, error) {
	o, note, floor, journal, err := loadOracle(r, g, opt)
	if err != nil {
		return nil, nil, err
	}
	d := newDynamicOracleAt(o, pol, floor)
	if err := d.ov.Replay(journal); err != nil {
		d.Close()
		return nil, nil, fmt.Errorf("%w: journal replay: %v", snapshot.ErrCorrupt, err)
	}
	// A restored journal may already be past the rebuild policy; let
	// the scheduler decide instead of waiting for the next mutation.
	if !d.disabled && len(journal) > 0 {
		d.sch.Notify()
	}
	return d, note, nil
}

func loadOracle(r io.Reader, g *Graph, opt OracleOptions) (*DistanceOracle, []byte, uint64, []dynamic.Entry, error) {
	so, embedded, note, err := snapshot.ReadOracle(r)
	if err != nil {
		return nil, nil, 0, nil, err
	}
	o, err := assembleOracle(so, embedded, g, opt)
	if err != nil {
		return nil, nil, 0, nil, err
	}
	return o, note, so.FloorGen, so.Journal, nil
}

// assembleOracle binds a restored snapshot exchange to a base graph
// and execution contexts — the shared tail of every load path (codec
// stream, in-memory arena, mapped arena).
func assembleOracle(so *snapshot.Oracle, embedded *Graph, g *Graph, opt OracleOptions) (*DistanceOracle, error) {
	base := embedded
	if g != nil {
		// so.Fingerprint is the digest the snapshot layer already
		// verified (META hash for the codec, checksummed header for the
		// arena) — no need to rehash the embedded copy here.
		if g.Fingerprint() != so.Fingerprint {
			return nil, fmt.Errorf("spanhop: snapshot was built for a different graph (fingerprint %#x, got %#x)",
				so.Fingerprint, g.Fingerprint())
		}
		base = g
		// Rebind the restored structures to the caller's graph so the
		// snapshot's embedded copy can be collected (for a mapped arena
		// the copy costs no heap — rebinding just keeps the two loads
		// consistent).
		if so.Direct != nil {
			so.Direct.Rebind(base)
		}
		if so.Dec != nil {
			so.Dec.Base = base
		}
	}
	ec := opt.Exec
	queryEc := opt.QueryExec
	if queryEc == nil {
		queryEc = ec.Detached()
	}
	return &DistanceOracle{
		g:          base,
		eps:        so.Eps,
		seed:       so.Seed,
		degenerate: so.Degenerate,
		direct:     so.Direct,
		dec:        so.Dec,
		instances:  so.Instances,
		queryEc:    queryEc,
	}, nil
}

// OpenOracleFile restores a flat-arena snapshot file by memory
// mapping: startup is page-table setup plus checksum and structural
// validation — the oracle's arrays are served straight from the page
// cache and fault in as queries touch them. The mapping lives exactly
// as long as the returned oracle (an internal reference pins it for
// the garbage collector; there is nothing to close). g and opt behave
// as in LoadOracle. Only flat-arena files open this way — a codec (v1/v2)
// file returns an error directing the caller to LoadOracle.
func OpenOracleFile(path string, g *Graph, opt OracleOptions) (*DistanceOracle, []byte, error) {
	o, note, _, journal, err := openOracleFile(path, g, opt)
	if err != nil {
		return nil, nil, err
	}
	if len(journal) > 0 {
		return nil, nil, fmt.Errorf("spanhop: snapshot carries %d pending mutations; open it with OpenDynamicOracleFile", len(journal))
	}
	return o, note, nil
}

// OpenDynamicOracleFile is OpenOracleFile for dynamic oracles: the
// mapped base oracle plus the persisted journal replayed into the
// overlay, as LoadDynamicOracle.
func OpenDynamicOracleFile(path string, g *Graph, opt OracleOptions, pol RebuildPolicy) (*DynamicOracle, []byte, error) {
	o, note, floor, journal, err := openOracleFile(path, g, opt)
	if err != nil {
		return nil, nil, err
	}
	d := newDynamicOracleAt(o, pol, floor)
	if err := d.ov.Replay(journal); err != nil {
		d.Close()
		return nil, nil, fmt.Errorf("%w: journal replay: %v", snapshot.ErrCorrupt, err)
	}
	if !d.disabled && len(journal) > 0 {
		d.sch.Notify()
	}
	return d, note, nil
}

func openOracleFile(path string, g *Graph, opt OracleOptions) (*DistanceOracle, []byte, uint64, []dynamic.Entry, error) {
	so, embedded, note, m, err := snapshot.MapOracleFile(path, g)
	if err != nil {
		return nil, nil, 0, nil, err
	}
	o, err := assembleOracle(so, embedded, g, opt)
	if err != nil {
		m.Close()
		return nil, nil, 0, nil, err
	}
	// The oracle's arrays alias the mapping; pin it to the oracle so
	// the GC cannot unmap pages a query is still walking.
	o.arena = m
	return o, note, so.FloorGen, so.Journal, nil
}

// FlatInfo reports whether the oracle was restored from a flat arena
// file (OpenOracleFile / OpenDynamicOracleFile) and, if so, how many
// bytes of arena back it — mmap'd on unix, read into an aligned
// buffer on platforms without mmap. Built or codec-loaded oracles
// report (false, 0).
func (o *DistanceOracle) FlatInfo() (flatBacked bool, arenaBytes int64) {
	if o.arena == nil {
		return false, 0
	}
	return true, o.arena.Size()
}
