package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestReadDIMACSBasic(t *testing.T) {
	in := `c USA-road-d style fixture
c
p sp 4 6
a 1 2 7
a 2 1 7
a 2 3 5
a 3 2 5
a 1 4 9
a 4 1 9
`
	g, err := ReadDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 {
		t.Fatalf("n = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("m = %d after symmetric-pair dedup, want 3", g.NumEdges())
	}
	if !g.Weighted() {
		t.Fatal("DIMACS graphs must parse as weighted")
	}
	want := map[[2]V]W{{0, 1}: 7, {1, 2}: 5, {0, 3}: 9}
	for _, e := range g.Edges() {
		w, ok := want[[2]V{e.U, e.V}]
		if !ok || w != e.W {
			t.Fatalf("unexpected edge %+v", e)
		}
	}
}

func TestReadDIMACSDuplicateArcsKeepMinWeight(t *testing.T) {
	in := "p sp 3 4\na 1 2 9\na 2 1 4\na 1 2 6\na 2 3 1\n"
	g, err := ReadDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("m = %d, want 2 (duplicates collapsed)", g.NumEdges())
	}
	for _, e := range g.Edges() {
		if e.U == 0 && e.V == 1 && e.W != 4 {
			t.Fatalf("duplicate arc kept weight %d, want the minimum 4", e.W)
		}
	}
}

func TestReadDIMACSErrors(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"empty", "", "no problem line"},
		{"comment only", "c hello\n", "no problem line"},
		{"bad problem kind", "p max 3 2\na 1 2 1\na 2 3 1\n", "bad problem line"},
		{"problem line too short", "p sp 3\n", "bad problem line"},
		{"problem line junk sizes", "p sp x y\n", "bad sizes"},
		{"negative n", "p sp -3 1\na 1 2 1\n", "bad sizes"},
		{"n over format limit", "p sp 999999999 0\n", "exceeds the file-format limit"},
		{"second problem line", "p sp 2 1\np sp 2 1\na 1 2 1\n", "second problem line"},
		{"arc before problem", "a 1 2 3\np sp 2 1\n", "arc before problem line"},
		{"arc line too short", "p sp 2 1\na 1 2\n", "bad arc line"},
		{"arc line junk", "p sp 2 1\na one two three\n", "bad arc line"},
		{"endpoint zero", "p sp 2 1\na 0 2 5\n", "out of range"},
		{"endpoint over n", "p sp 2 1\na 1 3 5\n", "out of range"},
		{"endpoint negative", "p sp 2 1\na -1 2 5\n", "out of range"},
		{"self loop", "p sp 2 1\na 1 1 5\n", "self-loop"},
		{"zero weight", "p sp 2 1\na 1 2 0\n", "non-positive arc weight"},
		{"negative weight", "p sp 2 1\na 1 2 -7\n", "non-positive arc weight"},
		{"weight over cap", "p sp 3 2\na 1 2 2305843009213693952\na 2 3 1\n", "exceeds the cap"},
		{"weight overflow", "p sp 2 1\na 1 2 99999999999999999999\n", "bad arc line"},
		{"too few arcs", "p sp 3 5\na 1 2 1\n", "truncated"},
		{"too many arcs", "p sp 3 1\na 1 2 1\na 2 3 1\n", "more than the declared"},
		{"unknown line type", "p sp 2 1\nq 1 2 3\n", "unknown line type"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadDIMACS(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("ReadDIMACS(%q) succeeded, want error containing %q", tc.in, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ReadDIMACS(%q) error %q, want it to contain %q", tc.in, err, tc.wantErr)
			}
		})
	}
}

func TestWriteDIMACSRoundTrip(t *testing.T) {
	orig := UniformWeights(Grid2D(7, 5), 30, 11)
	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDIMACS(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != orig.Fingerprint() {
		t.Fatalf("round trip changed the graph: n=%d→%d m=%d→%d",
			orig.NumVertices(), back.NumVertices(), orig.NumEdges(), back.NumEdges())
	}
}

func TestReadAutoDetectsDIMACS(t *testing.T) {
	orig := UniformWeights(Grid2D(4, 4), 9, 3)
	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, orig); err != nil {
		t.Fatal(err)
	}
	g, err := ReadAuto(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if g.Fingerprint() != orig.Fingerprint() {
		t.Fatal("ReadAuto(DIMACS) returned a different graph")
	}
	// A problem-line-first file (no leading comment) must also route.
	noComment := strings.TrimPrefix(buf.String(), "c spanhop export\n")
	g2, err := ReadAuto(strings.NewReader(noComment))
	if err != nil {
		t.Fatal(err)
	}
	if g2.Fingerprint() != orig.Fingerprint() {
		t.Fatal("ReadAuto(problem-line-first DIMACS) returned a different graph")
	}
}

// FuzzReadDIMACS hardens the DIMACS parser the same way
// FuzzReadText hardens the native one: arbitrary input must never
// panic, and any successfully parsed graph must be valid and must
// round-trip through WriteDIMACS.
func FuzzReadDIMACS(f *testing.F) {
	var good bytes.Buffer
	_ = WriteDIMACS(&good, UniformWeights(Grid2D(3, 3), 5, 1))
	f.Add(good.String())
	f.Add("p sp 3 2\na 1 2 5\na 2 3 7\n")
	f.Add("c comment\np sp 2 2\na 1 2 4\na 2 1 4\n")
	f.Add("p sp 3 2\na 1 2 5\n")                    // truncated
	f.Add("p sp 2 1\na 1 1 5\n")                    // self loop
	f.Add("p sp 2 1\na 0 2 5\n")                    // out of range
	f.Add("p sp 2 1\na 1 2 0\n")                    // zero weight
	f.Add("p sp 2 99999999\n")                      // absurd m
	f.Add("p sp 2 1\na 1 2 99999999999999999999\n") // overflow
	f.Add("p max 2 1\na 1 2 1\n")
	f.Add("")

	f.Fuzz(func(t *testing.T, input string) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("ReadDIMACS panicked on %q: %v", input, r)
			}
		}()
		g, err := ReadDIMACS(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parsed graph invalid: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteDIMACS(&buf, g); err != nil {
			t.Fatalf("re-serialize failed: %v", err)
		}
		back, err := ReadDIMACS(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.Fingerprint() != g.Fingerprint() {
			t.Fatal("round trip changed the graph")
		}
	})
}
