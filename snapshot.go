package spanhop

import (
	"fmt"
	"io"

	"repro/internal/dynamic"
	"repro/internal/flat"
)

// This file is the facade over internal/flat: preprocess-once /
// query-many only pays off if "once" survives the process, so a built
// DistanceOracle can be saved as a flat arena — the oracle's arrays
// laid out contiguously behind a checksummed section table — and
// restored by pointing slices at the bytes instead of decoding them.
// The engine, the wscale decomposition, every per-band hopset, and
// the degenerate/direct fast paths round-trip bit-identically (restored
// oracles answer exactly what the in-memory oracle would, QueryStats
// included). The arena is host-endianness: saving and loading refuse
// to run on a big-endian host.

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
	return writeArena(w, o.exchange(note, 0, nil))
}

// SaveDynamicOracle persists a dynamic oracle: the current static
// base oracle plus the pending mutation journal (and its generation
// window), captured atomically with respect to rebuild swaps. A
// restore via LoadDynamicOracle or OpenDynamicOracleFile replays the
// journal, so the restored oracle reports the same Generation and
// answers the same queries.
func SaveDynamicOracle(w io.Writer, d *DynamicOracle, note []byte) error {
	base, _, floor, journal := d.ov.PersistState()
	return writeArena(w, base.(baseAdapter).o.exchange(note, floor, journal))
}

func writeArena(w io.Writer, p *flat.Parts) error {
	a, err := flat.Freeze(p)
	if err != nil {
		return err
	}
	_, err = w.Write(a.Bytes())
	return err
}

// exchange converts the oracle to the arena's exchange shape.
func (o *DistanceOracle) exchange(note []byte, floor uint64, journal []dynamic.Entry) *flat.Parts {
	return &flat.Parts{
		Graph:      o.g,
		Eps:        o.eps,
		Seed:       o.seed,
		Exact:      !o.hopset,
		Degenerate: o.hopset && o.degenerate,
		Direct:     o.direct,
		Dec:        o.dec,
		Instances:  o.instances,
		FloorGen:   floor,
		Journal:    journal,
		Note:       note,
	}
}

// LoadOracle restores a SaveOracle snapshot. If g is non-nil it must
// fingerprint-match the snapshot's embedded graph and becomes the
// oracle's base (sharing the caller's already-resident graph); nil
// uses the embedded copy. opt supplies the execution contexts queries
// run on, resolved exactly as NewDistanceOracleOpts resolves them
// (QueryExec wins, then Exec.Detached()); build-only fields (Cost)
// are ignored — nothing is built.
//
// The stream is read whole into an aligned buffer, which the restored
// oracle's arrays then alias; OpenOracleFile maps a file instead of
// reading it. The restored oracle is bit-identical to the one saved:
// every Query/QueryBatch answer, including Levels and Fallback
// diagnostics, matches the in-memory original. A damaged snapshot
// returns an error wrapping flat.ErrCorrupt.
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
	o, p, err := loadOracle(r, g, opt)
	return staticOracle(o, p, err, "load it with LoadDynamicOracle")
}

// LoadDynamicOracle restores a SaveDynamicOracle (or SaveOracle)
// snapshot as a DynamicOracle: the base oracle is restored exactly as
// LoadOracle would, then the persisted journal is replayed into the
// overlay, so the restored oracle reports the saved Generation and
// answers queries with every pending mutation applied. g and opt
// behave as in LoadOracle; pol configures the restored oracle's
// rebuild scheduler.
func LoadDynamicOracle(r io.Reader, g *Graph, opt OracleOptions, pol RebuildPolicy) (*DynamicOracle, []byte, error) {
	o, p, err := loadOracle(r, g, opt)
	return dynamicOracle(o, p, err, pol)
}

// OpenOracleFile restores a snapshot file by memory mapping: startup
// is page-table setup plus checksum and structural validation — the
// oracle's arrays are served straight from the page cache and fault
// in as queries touch them. The mapping lives exactly as long as the
// returned oracle (an internal reference pins it for the garbage
// collector; there is nothing to close). g and opt behave as in
// LoadOracle. On platforms without mmap the file is read into an
// aligned buffer instead.
func OpenOracleFile(path string, g *Graph, opt OracleOptions) (*DistanceOracle, []byte, error) {
	o, p, err := openOracleFile(path, g, opt)
	return staticOracle(o, p, err, "open it with OpenDynamicOracleFile")
}

// OpenDynamicOracleFile is OpenOracleFile for dynamic oracles: the
// mapped base oracle plus the persisted journal replayed into the
// overlay, as LoadDynamicOracle.
func OpenDynamicOracleFile(path string, g *Graph, opt OracleOptions, pol RebuildPolicy) (*DynamicOracle, []byte, error) {
	o, p, err := openOracleFile(path, g, opt)
	return dynamicOracle(o, p, err, pol)
}

func loadOracle(r io.Reader, g *Graph, opt OracleOptions) (*DistanceOracle, *flat.Parts, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("spanhop: reading snapshot: %w", err)
	}
	return openArena(flat.AlignBytes(data), g, opt)
}

func openOracleFile(path string, g *Graph, opt OracleOptions) (*DistanceOracle, *flat.Parts, error) {
	m, err := flat.MapFile(path)
	if err != nil {
		return nil, nil, err
	}
	o, p, err := openArena(m.Bytes(), g, opt)
	if err != nil {
		m.Close()
		return nil, nil, err
	}
	// The oracle's arrays alias the mapping; pin it to the oracle so
	// the GC cannot unmap pages a query is still walking.
	o.arena = m
	return o, p, nil
}

// openArena binds an opened arena to a base graph and execution
// contexts — the shared tail of the stream and file load paths.
func openArena(data []byte, g *Graph, opt OracleOptions) (*DistanceOracle, *flat.Parts, error) {
	p, err := flat.Open(data, g)
	if err != nil {
		return nil, nil, err
	}
	// flat.Open adopts g exactly when its fingerprint matches the
	// arena header, binding every restored structure to it; otherwise
	// it returns the validated embedded copy.
	if g != nil && p.Graph != g {
		return nil, nil, fmt.Errorf("spanhop: snapshot was built for a different graph (fingerprint %#x, got %#x)",
			p.Fingerprint, g.Fingerprint())
	}
	queryEc := opt.QueryExec
	if queryEc == nil {
		queryEc = opt.Exec.Detached()
	}
	return &DistanceOracle{
		g:          p.Graph,
		eps:        p.Eps,
		seed:       p.Seed,
		hopset:     !p.Exact,
		degenerate: p.Degenerate || (p.Exact && degenerateGraph(p.Graph)),
		direct:     p.Direct,
		dec:        p.Dec,
		instances:  p.Instances,
		queryEc:    queryEc,
	}, p, nil
}

// staticOracle finishes a static load: a snapshot carrying a pending
// journal is refused, with hint naming the dynamic loader.
func staticOracle(o *DistanceOracle, p *flat.Parts, err error, hint string) (*DistanceOracle, []byte, error) {
	if err != nil {
		return nil, nil, err
	}
	if len(p.Journal) > 0 {
		return nil, nil, fmt.Errorf("spanhop: snapshot carries %d pending mutations; %s", len(p.Journal), hint)
	}
	return o, p.Note, nil
}

// dynamicOracle finishes a dynamic load: the restored journal is
// replayed into a fresh overlay over o.
func dynamicOracle(o *DistanceOracle, p *flat.Parts, err error, pol RebuildPolicy) (*DynamicOracle, []byte, error) {
	if err != nil {
		return nil, nil, err
	}
	d := newDynamicOracleAt(o, pol, p.FloorGen)
	if err := d.ov.Replay(p.Journal); err != nil {
		d.Close()
		return nil, nil, fmt.Errorf("%w: journal replay: %v", flat.ErrCorrupt, err)
	}
	// A restored journal may already be past the rebuild policy; let
	// the scheduler decide instead of waiting for the next mutation.
	if !d.disabled && len(p.Journal) > 0 {
		d.sch.Notify()
	}
	return d, p.Note, nil
}

// FlatInfo reports whether the oracle was restored from a snapshot
// file (OpenOracleFile / OpenDynamicOracleFile) and, if so, how many
// bytes of arena back it — mmap'd on unix, read into an aligned
// buffer on platforms without mmap. Built or stream-loaded
// (LoadOracle) oracles report (false, 0).
func (o *DistanceOracle) FlatInfo() (flatBacked bool, arenaBytes int64) {
	if o.arena == nil {
		return false, 0
	}
	return true, o.arena.Size()
}
