package server

// Snapshot persistence for the registry: every oracle that reaches
// StateReady is written to Config.SnapshotDir as a self-contained
// spanhop snapshot (graph + oracle + the registration spec as the
// annotation), and WarmStart scans that directory on boot to register
// ready graphs without queuing a single build — the
// preprocess-once/query-many contract extended across process
// restarts. Writes go through a temp file and an atomic rename, so a
// crash mid-write can never leave a half-snapshot where the next boot
// would find it; a leftover *.snap.tmp is swept on WarmStart.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	spanhop "repro"
	"repro/internal/exec"
	"repro/internal/obs"
)

// ErrNoSnapshots reports a snapshot operation against a server that
// was started without -snapshot-dir.
var ErrNoSnapshots = errors.New("server: snapshot persistence not configured (no snapshot dir)")

// SnapshotInfo is the JSON shape of one graph's persistence state.
type SnapshotInfo struct {
	// SizeBytes is the snapshot file size; AgeMS how long ago it was
	// written (or, for a warm-started graph, the file's age at load).
	SizeBytes int64 `json:"size_bytes,omitempty"`
	AgeMS     int64 `json:"age_ms,omitempty"`
	// Error is the last snapshot-write failure, cleared by the next
	// successful write.
	Error string `json:"error,omitempty"`
}

// snapshotPath returns the final snapshot file for a graph id.
func (r *Registry) snapshotPath(id string) string {
	return filepath.Join(r.cfg.SnapshotDir, id+".snap")
}

// snapLock returns the mutex serializing all file operations on id's
// snapshot paths.
func (r *Registry) snapLock(id string) *sync.Mutex {
	m, _ := r.snapLocks.LoadOrStore(id, &sync.Mutex{})
	return m.(*sync.Mutex)
}

// current reports whether e is still the registered entry for its id
// (false once deleted, or once the id was re-registered by a new
// graph). Stale snapshot writers use it to stand down.
func (r *Registry) current(e *Entry) bool {
	cur, ok := r.Get(e.id)
	return ok && cur == e
}

// Snapshot forces a synchronous snapshot write for a ready graph (the
// POST /graphs/{id}/snapshot path). The background writer uses the
// same code, so a forced write and an on-ready write never duplicate
// or interleave work on one entry.
func (r *Registry) Snapshot(id string) (SnapshotInfo, error) {
	if r.cfg.SnapshotDir == "" {
		return SnapshotInfo{}, ErrNoSnapshots
	}
	e, ok := r.Get(id)
	if !ok {
		return SnapshotInfo{}, fmt.Errorf("%w: %q", ErrUnknownGraph, id)
	}
	return r.snapshotEntry(e)
}

// snapshotEntry writes one entry's snapshot: temp file, fsync, atomic
// rename, all under the id's snapshot lock. Failures are recorded on
// the entry (surfaced via /stats and GET /graphs/{id}) as well as
// returned. A writer whose entry was deleted — or whose id now
// belongs to a different graph — stands down without touching the
// files.
func (r *Registry) snapshotEntry(e *Entry) (SnapshotInfo, error) {
	lock := r.snapLock(e.id)
	lock.Lock()
	defer lock.Unlock()

	e.mu.Lock()
	dyn, state := e.dyn, e.state
	spec := e.spec
	e.mu.Unlock()
	if state != StateReady || dyn == nil {
		return SnapshotInfo{}, fmt.Errorf("%w: %s is %s", ErrNotReady, e.id, state)
	}
	if !r.current(e) {
		return SnapshotInfo{}, fmt.Errorf("%w: %q", ErrUnknownGraph, e.id)
	}

	record := func(err error) (SnapshotInfo, error) {
		e.mu.Lock()
		e.snapErr = err.Error()
		info := e.snapshotInfoLocked()
		e.mu.Unlock()
		r.cfg.Obs.EventError("snapshot_failed", err, "graph", e.id)
		return info, err
	}
	note, err := json.Marshal(spec)
	if err != nil {
		return record(fmt.Errorf("server: marshal spec: %w", err))
	}
	path := r.snapshotPath(e.id)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return record(err)
	}
	// The arena holds the current base oracle plus any pending
	// mutation journal, so a warm start maps it and replays updates the
	// scheduler had not yet folded in.
	werr := spanhop.SaveDynamicOracle(f, dyn, note)
	if werr == nil {
		werr = f.Sync() // the rename must publish fully durable bytes
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		_ = os.Remove(tmp)
		return record(werr)
	}
	st, serr := os.Stat(path)
	var size int64
	if serr == nil {
		size = st.Size()
	}
	e.mu.Lock()
	e.snapSize = size
	e.snapTime = time.Now()
	e.snapErr = ""
	info := e.snapshotInfoLocked()
	e.mu.Unlock()
	// A DELETE that set the flag before we took the lock already ran
	// its removal; re-check under the lock and take the file back out
	// so no deleted oracle survives on disk. (A re-registered id can't
	// reach here: the identity check above stood the writer down.)
	if !r.current(e) {
		_ = os.Remove(path)
		return SnapshotInfo{}, fmt.Errorf("%w: %q", ErrUnknownGraph, e.id)
	}
	r.cfg.Obs.Event("snapshot_written", "graph", e.id, "file", filepath.Base(path), "bytes", size)
	return info, nil
}

// snapshotInfoLocked snapshots the persistence fields; e.mu held.
func (e *Entry) snapshotInfoLocked() SnapshotInfo {
	info := SnapshotInfo{SizeBytes: e.snapSize, Error: e.snapErr}
	if !e.snapTime.IsZero() {
		info.AgeMS = time.Since(e.snapTime).Milliseconds()
	}
	return info
}

// removeSnapshot deletes a graph's snapshot files (DELETE path).
func (r *Registry) removeSnapshot(id string) {
	if r.cfg.SnapshotDir == "" {
		return
	}
	_ = os.Remove(r.snapshotPath(id))
	_ = os.Remove(r.snapshotPath(id) + ".tmp")
}

// WarmStartError describes one snapshot the boot scan skipped:
// which file, which graph id it would have restored (when derivable),
// and why — so an operator can tell WHICH snapshot is bad from the
// log line alone.
type WarmStartError struct {
	// File is the offending filename within the snapshot directory
	// (or the directory itself when the scan failed outright).
	File string
	// ID is the graph id the snapshot would have registered; empty
	// when the filename does not map to a valid id.
	ID  string
	Err error
}

func (e WarmStartError) Error() string {
	if e.ID != "" {
		return fmt.Sprintf("%s (graph %s): %v", e.File, e.ID, e.Err)
	}
	return fmt.Sprintf("%s: %v", e.File, e.Err)
}

func (e WarmStartError) Unwrap() error { return e.Err }

// WarmStart scans the snapshot directory and registers every readable
// snapshot as a ready graph — no build is queued, no build-stage
// telemetry is recorded, and queries are served the moment WarmStart
// returns. Corrupt or foreign files are skipped and reported (a bad
// snapshot must never take the daemon down); leftover temp files from
// a crashed writer are swept. Returns how many graphs were restored.
func (r *Registry) WarmStart() (int, []WarmStartError) {
	if r.cfg.SnapshotDir == "" {
		return 0, nil
	}
	des, err := os.ReadDir(r.cfg.SnapshotDir)
	if err != nil {
		return 0, []WarmStartError{{File: r.cfg.SnapshotDir, Err: err}}
	}
	loaded := 0
	var errs []WarmStartError
	skip := func(we WarmStartError) {
		r.cfg.Obs.EventError("warm_start_skipped", we.Err, "file", we.File, "graph", we.ID)
		errs = append(errs, we)
	}
	for _, de := range des {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		if strings.HasSuffix(name, ".snap.tmp") {
			_ = os.Remove(filepath.Join(r.cfg.SnapshotDir, name))
			continue
		}
		if !strings.HasSuffix(name, ".snap") {
			continue
		}
		id := strings.TrimSuffix(name, ".snap")
		if id == "" || !validName(id) {
			skip(WarmStartError{File: name, Err: errors.New("id not a valid graph name")})
			continue
		}
		if err := r.warmStartFile(id, filepath.Join(r.cfg.SnapshotDir, name)); err != nil {
			skip(WarmStartError{File: name, ID: id, Err: err})
			continue
		}
		r.cfg.Obs.Event("warm_start_restored", "file", name, "graph", id)
		loaded++
	}
	return loaded, errs
}

// warmStartFile restores one snapshot into a ready entry. The arena is
// memory-mapped: startup is checksum validation, and pages fault in as
// queries touch them. A file that is not an arena fails flat.Open and
// is skipped like any other corrupt snapshot. An arena whose oracle is
// not exact (a hopset arena an earlier daemon wrote) is refused too:
// the registry holds exact graphs only. The error carries the file's
// spec, so the graph can be registered again; a -load/-gen preload of
// the same name rebuilds it exact and overwrites the file. A pending
// journal in a refused file is not replayed.
func (r *Registry) warmStartFile(id, path string) error {
	opt := spanhop.OracleOptions{
		QueryExec: exec.New(exec.Options{
			Workers: r.cfg.queryExecWorkers(),
			Labels:  graphLabels(id, ""),
		}),
	}
	dyn, note, err := spanhop.OpenDynamicOracleFile(path, nil, opt, r.graphRebuildPolicy(id))
	if err != nil {
		return err
	}
	var spec GraphSpec
	if err := json.Unmarshal(note, &spec); err != nil {
		// The oracle was restored (its scheduler may even be rebuilding
		// a policy-due journal already) but will never be registered:
		// tear it down or the goroutine outlives the registry.
		dyn.Close()
		return fmt.Errorf("snapshot annotation is not a graph spec: %w", err)
	}
	// Every hopset oracle, degenerate ones included, has lo = 1-eps.
	if lo, hi := dyn.StretchEnvelope(); lo != 1 || hi != 1 {
		dyn.Close()
		return fmt.Errorf("arena holds a hopset oracle (stretch envelope [%g, %g]), "+
			"and the daemon serves exact graphs only; register it again from its spec %s", lo, hi, note)
	}
	var size int64
	snapTime := time.Now()
	if st, err := os.Stat(path); err == nil {
		size = st.Size()
		snapTime = st.ModTime()
	}
	e := &Entry{
		id:       id,
		spec:     spec,
		stats:    &GraphStats{},
		state:    StateReady,
		created:  time.Now(),
		tel:      exec.NewTelemetry(),
		dyn:      dyn,
		warm:     true,
		snapSize: size,
		snapTime: snapTime,
	}
	e.exec = newExecutor(dyn, r.cfg, e.stats)
	e.workload = obs.NewWorkload(r.cfg.WorkloadTopK)
	r.registerAudit(id, dyn)
	e.exec.instrument(id, e.workload, r.cfg.Obs.Account(), r.aud)
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		e.exec.Close()
		dyn.Close()
		return ErrClosed
	}
	if _, dup := r.entries[id]; dup {
		r.mu.Unlock()
		e.exec.Close()
		dyn.Close()
		return fmt.Errorf("%w: %q", ErrDuplicateName, id)
	}
	r.entries[id] = e
	r.order = append(r.order, id)
	r.mu.Unlock()
	// Hook after registration: if the restored journal was already
	// policy-due and its rebuild finished in the window above, the
	// hook's missed-swap replay fires now — against a registered entry
	// the snapshot writer will accept.
	r.hookRebuild(e, dyn)
	return nil
}
