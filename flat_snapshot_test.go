package spanhop

// Differential coverage for the flat-arena snapshot format: an
// oracle opened from an arena — mapped from disk or read from a
// generic reader — must answer bit-identically to the pointer oracle
// it was frozen from, and a damaged arena must come back as ErrCorrupt,
// never a panic.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/flat"
)

// saveFlatFile freezes o into a flat arena file and returns its path.
func saveFlatFile(t *testing.T, o *DistanceOracle) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "oracle.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveOracle(f, o); err != nil {
		t.Fatalf("SaveOracle: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFlatSnapshotDifferentialFamilies(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
	}{
		{"er-unweighted", RandomGraph(220, 900, 7)},
		{"er-weighted", WithUniformWeights(RandomGraph(220, 900, 8), 40, 9)},
		{"rmat-unweighted", RMATGraph(7, 600, 10)},
		{"rmat-weighted", WithUniformWeights(RMATGraph(7, 600, 11), 25, 12)},
		{"grid-unweighted", GridGraph(12, 13)},
		{"grid-weighted", WithUniformWeights(GridGraph(12, 13), 30, 13)},
		{"er-multiscale-decomposed", WithMultiScaleWeights(RandomGraph(120, 480, 21), 10, 30, 22)},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			o := hopsetOracle(tc.g, 0.3, 42)
			pairs := queryPairs(tc.g.NumVertices(), 30, 99)
			path := saveFlatFile(t, o)

			// Mapped open binding to the caller's resident graph (the
			// fingerprint fast path skips re-validating the embedded copy).
			mapped, _, err := OpenOracleFile(path, tc.g, OracleOptions{})
			if err != nil {
				t.Fatalf("OpenOracleFile: %v", err)
			}
			assertOracleEquivalent(t, tc.name+"/mapped", o, mapped, pairs)
			if flat, n := mapped.FlatInfo(); !flat || n <= 0 {
				t.Fatalf("FlatInfo = (%v, %d), want arena-backed", flat, n)
			}
			if flat, _ := o.FlatInfo(); flat {
				t.Fatal("built oracle claims to be arena-backed")
			}

			// Mapped open with no caller graph: the embedded copy is fully
			// validated and adopted.
			selfContained, _, err := OpenOracleFile(path, nil, OracleOptions{})
			if err != nil {
				t.Fatalf("OpenOracleFile(nil graph): %v", err)
			}
			assertOracleEquivalent(t, tc.name+"/embedded", o, selfContained, pairs)

			// The generic reader path: LoadOracle reads the arena into an
			// aligned buffer and opens it there.
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sniffed, err := LoadOracle(bytes.NewReader(data), tc.g, OracleOptions{})
			if err != nil {
				t.Fatalf("LoadOracle over arena bytes: %v", err)
			}
			assertOracleEquivalent(t, tc.name+"/sniffed", o, sniffed, pairs)
		})
	}
}

func TestFlatSnapshotDynamicRoundTrip(t *testing.T) {
	g := WithUniformWeights(RandomGraph(60, 150, 31), 20, 32)
	o := hopsetOracle(g, 0.25, 33)
	d := NewDynamicOracle(o, RebuildPolicy{Disabled: true})
	defer d.Close()
	if _, err := d.ApplyUpdates(mutationSequence(g, 8, 333)); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "dyn.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveDynamicOracle(f, d, []byte("note")); err != nil {
		t.Fatalf("SaveDynamicOracle: %v", err)
	}
	f.Close()

	// The static opener must refuse to drop the pending journal.
	if _, _, err := OpenOracleFile(path, nil, OracleOptions{}); err == nil {
		t.Fatal("OpenOracleFile accepted a journal-carrying arena")
	}
	d2, note, err := OpenDynamicOracleFile(path, g, OracleOptions{}, RebuildPolicy{Disabled: true})
	if err != nil {
		t.Fatalf("OpenDynamicOracleFile: %v", err)
	}
	defer d2.Close()
	if string(note) != "note" {
		t.Fatalf("note = %q", note)
	}
	if d2.Generation() != d.Generation() || d2.PendingUpdates() != d.PendingUpdates() {
		t.Fatalf("restored gen=%d pending=%d, want gen=%d pending=%d",
			d2.Generation(), d2.PendingUpdates(), d.Generation(), d.PendingUpdates())
	}
	for _, p := range queryPairs(g.NumVertices(), 30, 6) {
		a, err1 := d.Query(p[0], p[1])
		b, err2 := d2.Query(p[0], p[1])
		if err1 != nil || err2 != nil || a != b {
			t.Fatalf("(%d,%d): %d (%v) vs restored %d (%v)", p[0], p[1], a, err1, b, err2)
		}
	}
}

func TestFlatSnapshotCorruptArena(t *testing.T) {
	g := WithUniformWeights(GridGraph(8, 8), 9, 1)
	o := hopsetOracle(g, 0.3, 2)
	path := saveFlatFile(t, o)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	write := func(t *testing.T, b []byte) string {
		t.Helper()
		p := filepath.Join(t.TempDir(), "bad.snap")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 3, len(data) / 3, len(data) - 1} {
			if _, _, err := OpenOracleFile(write(t, data[:n]), nil, OracleOptions{}); !errors.Is(err, flat.ErrCorrupt) {
				t.Fatalf("truncation to %d bytes: err = %v, want ErrCorrupt", n, err)
			}
		}
	})
	t.Run("bit-flipped", func(t *testing.T) {
		for _, at := range []int{16, len(data) / 2, len(data) - 5} {
			mut := append([]byte(nil), data...)
			mut[at] ^= 0x10
			if _, _, err := OpenOracleFile(write(t, mut), nil, OracleOptions{}); !errors.Is(err, flat.ErrCorrupt) {
				t.Fatalf("flip at %d: err = %v, want ErrCorrupt", at, err)
			}
		}
	})
	t.Run("codec-stream", func(t *testing.T) {
		// The head of a snapshot in the streaming codec an earlier
		// release wrote: its magic word, then version 2.
		codec := make([]byte, len(data))
		binary.LittleEndian.PutUint32(codec, 0x31535053)
		binary.LittleEndian.PutUint32(codec[4:], 2)
		if _, _, err := OpenOracleFile(write(t, codec), nil, OracleOptions{}); !errors.Is(err, flat.ErrCorrupt) {
			t.Fatalf("OpenOracleFile over a codec stream: err = %v, want ErrCorrupt", err)
		}
		if _, err := LoadOracle(bytes.NewReader(codec), nil, OracleOptions{}); !errors.Is(err, flat.ErrCorrupt) {
			t.Fatalf("LoadOracle over a codec stream: err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("sniffed-reader", func(t *testing.T) {
		mut := append([]byte(nil), data...)
		mut[len(mut)/2] ^= 0x10
		if _, err := LoadOracle(bytes.NewReader(mut), nil, OracleOptions{}); !errors.Is(err, flat.ErrCorrupt) {
			t.Fatalf("LoadOracle over flipped arena: err = %v, want ErrCorrupt", err)
		}
	})
}
