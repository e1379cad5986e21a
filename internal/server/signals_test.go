package server

import (
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestEverySignalNamesADecision: every /metrics family a server with
// one ready graph exposes, and every /debug/* route server.go
// registers, has a row in DESIGN.md's signal table naming the
// decision it informs. A new signal without a row fails here; a
// signal nobody decides anything with is deleted, not listed.
func TestEverySignalNamesADecision(t *testing.T) {
	_, ts := newTestServer(t)
	if code := httpJSON(t, ts, "POST", "/graphs",
		GraphSpec{Name: "sig", Gen: "grid:side=4", Eps: 0.3, Seed: 1}, nil); code != http.StatusAccepted {
		t.Fatalf("POST /graphs = %d", code)
	}
	waitReady(t, ts, "sig")
	tracedQuery(t, ts, "sig", 0, 15)

	types, _ := scrape(t, ts)
	var signals []string
	for family := range types {
		signals = append(signals, family)
	}
	src, err := os.ReadFile("server.go")
	if err != nil {
		t.Fatal(err)
	}
	route := regexp.MustCompile(`HandleFunc\("(?:[A-Z]+ )?(/debug/[^"{]*)`)
	for _, m := range route.FindAllStringSubmatch(string(src), -1) {
		signals = append(signals, m[1])
	}
	if len(types) < 10 || len(signals)-len(types) < 4 {
		t.Fatalf("found %d families and %d routes: the scrape or the route scan is broken",
			len(types), len(signals)-len(types))
	}

	table := signalTable(t)
	for _, sig := range signals {
		if table[sig] == "" {
			t.Errorf("signal %s has no row in DESIGN.md's signal table", sig)
		}
	}
}

// signalTable parses DESIGN.md's "| Signal | Decision it informs |"
// table into signal → decision; a row may name several signals, each
// in backticks.
func signalTable(t *testing.T) map[string]string {
	t.Helper()
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(doc), "\n")
	start := -1
	for i, l := range lines {
		if strings.HasPrefix(l, "| Signal | Decision it informs |") {
			start = i + 2 // skip the header and its rule
			break
		}
	}
	if start < 0 {
		t.Fatal("DESIGN.md has no signal table")
	}
	names := regexp.MustCompile("`([^`]+)`")
	out := map[string]string{}
	for _, l := range lines[start:] {
		cells := strings.Split(l, "|")
		if len(cells) < 4 {
			break // the table ends at its first non-row line
		}
		decision := strings.TrimSpace(cells[2])
		for _, m := range names.FindAllStringSubmatch(cells[1], -1) {
			out[m[1]] = decision
		}
	}
	return out
}
