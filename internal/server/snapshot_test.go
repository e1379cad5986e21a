package server

// Snapshot persistence + warm-start coverage: a daemon restart with
// -snapshot-dir must serve the same answers without rebuilding, POST
// /graphs/{id}/snapshot forces a write, and DELETE removes the file.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	spanhop "repro"
	"repro/internal/flat"
	"repro/internal/workload"
)

func newSnapshotServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{SnapshotDir: dir})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// waitSnapshot polls until the entry's snapshot file exists (the
// on-ready writer runs in the background).
func waitSnapshot(t *testing.T, path string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := os.Stat(path); err == nil {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("snapshot %s never appeared", path)
}

// TestSnapshotWarmStart: a restored graph keeps its spec and its
// answers; a registry-built graph is exact, so neither life holds a
// hopset.
func TestSnapshotWarmStart(t *testing.T) {
	dir := t.TempDir()
	const gen = "er:n=180,d=5,w=uniform,maxw=25"
	spec := GraphSpec{Name: "wg", Gen: gen, Eps: 0.3, Seed: 7}

	// First life: build, auto-snapshot, capture answers.
	s1, ts := newSnapshotServer(t, dir)
	if code := httpJSON(t, ts, "POST", "/graphs", spec, nil); code != http.StatusAccepted {
		t.Fatalf("POST /graphs = %d", code)
	}
	info := waitReady(t, ts, "wg")
	if info.WarmStarted {
		t.Fatal("freshly built graph claims warm start")
	}
	if len(info.BuildStages) == 0 {
		t.Fatal("fresh build recorded no stage telemetry")
	}
	snapPath := filepath.Join(dir, "wg.snap")
	waitSnapshot(t, snapPath)

	pairs := [][2]int32{{0, 179}, {3, 99}, {17, 17}, {42, 150}}
	var first struct {
		Results []queryResult `json:"results"`
	}
	if code := httpJSON(t, ts, "POST", "/graphs/wg/query",
		map[string]any{"pairs": pairs}, &first); code != http.StatusOK {
		t.Fatalf("query = %d", code)
	}

	// Second life: a fresh server over the same dir warm-starts it.
	s2, ts2 := newSnapshotServer(t, dir)
	if loaded, errs := s2.Registry().WarmStart(); loaded != 1 || len(errs) != 0 {
		t.Fatalf("warm start loaded=%d errs=%v", loaded, errs)
	}
	var info2 Info
	if code := httpJSON(t, ts2, "GET", "/graphs/wg", nil, &info2); code != http.StatusOK {
		t.Fatalf("warm-started graph not visible: %d", code)
	}
	if info2.State != StateReady {
		t.Fatalf("warm-started graph state %s, want ready immediately", info2.State)
	}
	if !info2.WarmStarted {
		t.Fatal("restored graph not marked warm_started")
	}
	if len(info2.BuildStages) != 0 {
		t.Fatalf("warm start recorded build stages %v — a rebuild happened", info2.BuildStages)
	}
	if info2.Spec.Gen != gen || info2.Spec.Eps != 0.3 || info2.Spec.Seed != 7 {
		t.Fatalf("restored spec %+v does not match the registration", info2.Spec)
	}
	assertExact(t, s1.Registry(), "wg")
	assertExact(t, s2.Registry(), "wg")
	if info2.Snapshot == nil || info2.Snapshot.SizeBytes <= 0 {
		t.Fatalf("restored graph missing snapshot info: %+v", info2.Snapshot)
	}
	var second struct {
		Results []queryResult `json:"results"`
	}
	if code := httpJSON(t, ts2, "POST", "/graphs/wg/query",
		map[string]any{"pairs": pairs}, &second); code != http.StatusOK {
		t.Fatalf("warm query = %d", code)
	}
	if len(second.Results) != len(first.Results) {
		t.Fatalf("result count %d != %d", len(second.Results), len(first.Results))
	}
	for i := range first.Results {
		if first.Results[i] != second.Results[i] {
			t.Fatalf("pair %v: warm-started answer %+v != original %+v",
				pairs[i], second.Results[i], first.Results[i])
		}
	}
}

func TestSnapshotForcedWriteAndDelete(t *testing.T) {
	dir := t.TempDir()
	_, ts := newSnapshotServer(t, dir)
	spec := GraphSpec{Name: "fg", Gen: "grid:side=9,w=uniform,maxw=9", Eps: 0.4, Seed: 3}
	if code := httpJSON(t, ts, "POST", "/graphs", spec, nil); code != http.StatusAccepted {
		t.Fatal("POST /graphs failed")
	}
	waitReady(t, ts, "fg")
	snapPath := filepath.Join(dir, "fg.snap")
	waitSnapshot(t, snapPath)

	// Forced write refreshes the file.
	var forced struct {
		Snapshot SnapshotInfo `json:"snapshot"`
	}
	if code := httpJSON(t, ts, "POST", "/graphs/fg/snapshot", nil, &forced); code != http.StatusOK {
		t.Fatalf("POST snapshot = %d", code)
	}
	if forced.Snapshot.SizeBytes <= 0 || forced.Snapshot.Error != "" {
		t.Fatalf("forced snapshot info %+v", forced.Snapshot)
	}

	// Unknown graph → 404; building graph → 409 is covered by the
	// not-ready path (registry-level).
	if code := httpJSON(t, ts, "POST", "/graphs/nope/snapshot", nil, nil); code != http.StatusNotFound {
		t.Fatalf("snapshot of unknown graph = %d, want 404", code)
	}

	// DELETE evicts the snapshot file with the graph.
	if code := httpJSON(t, ts, "DELETE", "/graphs/fg", nil, nil); code != http.StatusOK {
		t.Fatal("DELETE failed")
	}
	if _, err := os.Stat(snapPath); !os.IsNotExist(err) {
		t.Fatalf("snapshot file survived DELETE (stat err = %v)", err)
	}
}

func TestSnapshotDisabled(t *testing.T) {
	_, ts := newTestServer(t) // no snapshot dir
	spec := GraphSpec{Name: "nd", Gen: "grid:side=5", Eps: 0.4, Seed: 1}
	if code := httpJSON(t, ts, "POST", "/graphs", spec, nil); code != http.StatusAccepted {
		t.Fatal("POST /graphs failed")
	}
	waitReady(t, ts, "nd")
	var body errorBody
	if code := httpJSON(t, ts, "POST", "/graphs/nd/snapshot", nil, &body); code != http.StatusBadRequest {
		t.Fatalf("snapshot without dir = %d, want 400", code)
	}
	if body.Error == "" {
		t.Fatal("snapshot without dir returned no error body")
	}
}

func TestWarmStartSkipsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	// A corrupt snapshot, a snapshot in the streaming codec an earlier
	// release wrote (its magic word, version 2), a foreign file, and a
	// leftover temp file.
	if err := os.WriteFile(filepath.Join(dir, "bad.snap"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	codec := make([]byte, 143)
	binary.LittleEndian.PutUint32(codec, 0x31535053)
	binary.LittleEndian.PutUint32(codec[4:], 2)
	if err := os.WriteFile(filepath.Join(dir, "codec.snap"), codec, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "old.snap.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Config{SnapshotDir: dir})
	t.Cleanup(s.Close)
	loaded, errs := s.Registry().WarmStart()
	if loaded != 0 {
		t.Fatalf("loaded %d graphs from garbage", loaded)
	}
	if len(errs) != 2 {
		t.Fatalf("errs = %v, want exactly the corrupt and the codec snapshot", errs)
	}
	for _, e := range errs {
		if !errors.Is(e, flat.ErrCorrupt) {
			t.Fatalf("warm start error %v does not wrap flat.ErrCorrupt", e)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "old.snap.tmp")); !os.IsNotExist(err) {
		t.Fatal("leftover temp file not swept")
	}
	// The daemon still works after skipping garbage.
	if _, err := s.Registry().Add(GraphSpec{Gen: "grid:side=4"}); err != nil {
		t.Fatalf("registry unusable after warm-start errors: %v", err)
	}
}

// TestWarmStartSkipsOldArenaVersion: a flat arena of an older format
// version (its header rewritten to version 3 with a valid checksum) is
// skipped with a WarmStartError naming the graph and wrapping
// flat.ErrVersion, and the graph can be registered again.
func TestWarmStartSkipsOldArenaVersion(t *testing.T) {
	dir := t.TempDir()
	spec := GraphSpec{Name: "old", Gen: "grid:side=6,w=uniform,maxw=9", Eps: 0.4, Seed: 3}
	_, ts := newSnapshotServer(t, dir)
	if code := httpJSON(t, ts, "POST", "/graphs", spec, nil); code != http.StatusAccepted {
		t.Fatalf("POST /graphs = %d", code)
	}
	waitReady(t, ts, "old")
	path := filepath.Join(dir, "old.snap")
	waitSnapshot(t, path)
	data, err := os.ReadFile(path)
	if err != nil || string(data[:4]) != flat.Magic {
		t.Fatalf("snapshot is not a flat arena (err %v)", err)
	}
	le := binary.LittleEndian
	le.PutUint32(data[4:], 3)
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	le.PutUint32(data[64:], crc32.Update(crc32.Checksum(data[0:64], castagnoli), castagnoli, data[68:72]))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, _ := newSnapshotServer(t, dir)
	loaded, errs := s2.Registry().WarmStart()
	if loaded != 0 || len(errs) != 1 {
		t.Fatalf("warm start loaded=%d errs=%v, want 0 and the old arena", loaded, errs)
	}
	if errs[0].ID != "old" || !errors.Is(errs[0], flat.ErrVersion) {
		t.Fatalf("warm start error = %+v, want graph old wrapping flat.ErrVersion", errs[0])
	}
	if _, err := s2.Registry().Add(spec); err != nil {
		t.Fatalf("registering the skipped graph again: %v", err)
	}
}

// TestWarmStartHopsetArena: the registry holds exact graphs only, so
// a snapshot whose arena holds a hopset oracle (every graph an earlier
// daemon built) is refused with a WarmStartError that names the graph
// and carries the spec from the file's note; registering that spec
// again serves exact answers, and its snapshot replaces the file.
func TestWarmStartHopsetArena(t *testing.T) {
	dir := t.TempDir()
	const gen = "grid:side=6,w=uniform,maxw=9"
	spec, err := workload.ParseSpec(gen, 3)
	if err != nil {
		t.Fatal(err)
	}
	o := spanhop.NewDistanceOracleOpts(spec.Gen(), 0.4, 3, spanhop.OracleOptions{Hopset: true})
	path := filepath.Join(dir, "legacy.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	note := `{"name":"legacy","gen":"` + gen + `","eps":0.4,"seed":3}`
	if err := spanhop.SaveOracleNote(f, o, []byte(note)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s, ts := newSnapshotServer(t, dir)
	loaded, errs := s.Registry().WarmStart()
	if loaded != 0 || len(errs) != 1 {
		t.Fatalf("warm start loaded=%d errs=%v, want 0 and the hopset arena", loaded, errs)
	}
	if errs[0].ID != "legacy" || errs[0].File != "legacy.snap" ||
		!strings.Contains(errs[0].Error(), "hopset") || !strings.Contains(errs[0].Error(), note) {
		t.Fatalf("warm start error = %v, want graph legacy refused as a hopset arena with its spec", errs[0])
	}
	if list := s.Registry().List(); len(list) != 0 {
		t.Fatalf("refused arena registered graphs: %+v", list)
	}

	// Registered again under the same name, the graph is exact.
	if code := httpJSON(t, ts, "POST", "/graphs",
		GraphSpec{Name: "legacy", Gen: gen, Eps: 0.4, Seed: 3}, nil); code != http.StatusAccepted {
		t.Fatalf("POST /graphs = %d", code)
	}
	waitReady(t, ts, "legacy")
	assertExact(t, s.Registry(), "legacy")
	for _, p := range [][2]int32{{0, 35}, {5, 30}, {12, 13}} {
		want := o.ExactDistance(p[0], p[1])
		var got queryResult
		if code := httpJSON(t, ts, "POST", "/graphs/legacy/query",
			map[string]any{"s": p[0], "t": p[1]}, &got); code != http.StatusOK {
			t.Fatalf("query %v = %d", p, code)
		}
		if got.Dist != want {
			t.Fatalf("query %v = %+v, want the exact %d", p, got, want)
		}
	}
	// Its snapshot replaces the refused file, so the next boot restores it.
	if _, err := s.Registry().Snapshot("legacy"); err != nil {
		t.Fatal(err)
	}
	s2, _ := newSnapshotServer(t, dir)
	if loaded, errs := s2.Registry().WarmStart(); loaded != 1 || len(errs) != 0 {
		t.Fatalf("warm start after re-registration loaded=%d errs=%v", loaded, errs)
	}
	assertExact(t, s2.Registry(), "legacy")
}

func TestWarmStartDuplicatePreload(t *testing.T) {
	// Registering a name that was warm-started must fail with
	// ErrDuplicateName (spanhopd skips those preloads).
	dir := t.TempDir()
	_, ts := newSnapshotServer(t, dir)
	spec := GraphSpec{Name: "dup", Gen: "grid:side=6", Eps: 0.4, Seed: 2}
	if code := httpJSON(t, ts, "POST", "/graphs", spec, nil); code != http.StatusAccepted {
		t.Fatal("POST /graphs failed")
	}
	waitReady(t, ts, "dup")
	waitSnapshot(t, filepath.Join(dir, "dup.snap"))

	s2 := New(Config{SnapshotDir: dir})
	t.Cleanup(s2.Close)
	if loaded, errs := s2.Registry().WarmStart(); loaded != 1 || len(errs) != 0 {
		t.Fatalf("warm start loaded=%d errs=%v", loaded, errs)
	}
	if _, err := s2.Registry().Add(spec); err == nil {
		t.Fatal("re-registering a warm-started name succeeded")
	} else if fmt.Sprintf("%v", err) == "" {
		t.Fatal("empty error")
	}
}
