package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/pin"
	"repro/internal/report"
)

// benchRows names the row type of every section of every committed BENCH
// document, in document order.
var benchRows = map[string][]any{
	"BENCH_2": {&[]RegretCell{}, &[]RegretCandidate{}},
	"BENCH_3": {&[]MergeCell{}},
	"BENCH_7": {&[]OverlapRow{}, &[]PipeModelRow{}},
	"BENCH_8": {&[]ClusterRow{}, &[]ClusterPolicySummary{}, &[]AdaptRow{}},
}

// TestRegistryMatchesCommittedDocuments pins the registry against the
// committed BENCH files without re-running a sweep (scripts/ci.sh does
// that): the gated entries are exactly the committed documents, and the
// ordered-document encoder reproduces each file byte for byte from rows
// decoded into the entry's row structs — so a renamed tag, a reordered
// field or an edited note fails here in milliseconds.
func TestRegistryMatchesCommittedDocuments(t *testing.T) {
	files, err := filepath.Glob("../../BENCH_[0-9]*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed BENCH documents found: %v", err)
	}
	var committed, gated []string
	for _, f := range files {
		committed = append(committed, strings.TrimSuffix(filepath.Base(f), ".json"))
	}
	for _, s := range Sweeps() {
		if s.Bench != "" {
			gated = append(gated, s.Bench)
		}
	}
	sort.Strings(gated)
	if !reflect.DeepEqual(gated, committed) {
		t.Fatalf("registry gates %v but the committed documents are %v", gated, committed)
	}

	for _, id := range committed {
		sw, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile("../../" + id + ".json")
		if err != nil {
			t.Fatal(err)
		}
		var doc report.Document
		if err := json.Unmarshal(want, &doc); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if doc.ID != sw.Bench || doc.Note != sw.Note {
			t.Errorf("%s: committed id/note differ from the registry entry %q", id, sw.Name)
		}
		if len(doc.Sections) != len(benchRows[id]) {
			t.Fatalf("%s: %d sections, test table knows %d", id, len(doc.Sections), len(benchRows[id]))
		}
		for i, rows := range benchRows[id] {
			if err := doc.Rows(doc.Sections[i].Name, rows); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			doc.Sections[i].Rows = reflect.ValueOf(rows).Elem().Interface()
		}
		var got bytes.Buffer
		if err := doc.Write(&got, report.JSON); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: re-encoding the decoded rows does not reproduce the committed bytes", id)
		}
	}
}

// pinned reports whether TestRegistryEntriesRunAndRender pins a sweep's
// output in the ledger: every sweep without a BENCH document (scripts/ci.sh
// byte-compares those) except the wall-clock overlapwall.
func pinned(sw Sweep) bool { return sw.Bench == "" && sw.Name != "overlapwall" }

// tiny returns the parameters TestRegistryEntriesRunAndRender runs a sweep
// at: the CLI-shaped ones at tiny sizes, the fixed-cell ones as recorded.
func tiny(sw Sweep) Params {
	p := sw.Defaults
	p.N, p.MaxP, p.P, p.Gens, p.Runs = 4096, 8, 4, 1, 1
	p.Rows, p.Epochs, p.Scale = 400, 2, 0.002
	switch sw.Name {
	case "fig4b", "fig5", "fig6":
		p.Rows, p.Epochs, p.P = 320, 1, 2
	case "table2", "scd", "spark":
		p.Epochs = 1
	}
	return p
}

// TestRegistryEntriesRunAndRender runs every registered sweep at its tiny
// parameters and renders the result in all three formats. The pinned
// sweeps' outputs are checked against the ledger (pinSweep); under -short
// the slow sweeps no pin covers are skipped, so `go test -short -run
// '^TestRegistryEntriesRunAndRender$'` checks every pin.
func TestRegistryEntriesRunAndRender(t *testing.T) {
	// 6–20 s each for the fixed-cell sweeps, 1–4 s for the larger figures.
	slow := map[string]bool{"regret": true, "cluster": true, "fig5": true, "fig6": true}
	for _, sw := range Sweeps() {
		t.Run(sw.Name, func(t *testing.T) {
			if slow[sw.Name] {
				if testing.Short() && !pinned(sw) {
					t.Skip("fixed cells at full scale, re-recorded by scripts/ci.sh")
				}
				// After the serial entries: merge counts allocations
				// process-wide and must run alone.
				t.Parallel()
			}
			doc, err := sw.Document(tiny(sw))
			if err != nil {
				t.Fatal(err)
			}
			for _, sec := range doc.Sections {
				rows, _ := sec.Rows.([]DNNRow)
				for _, r := range rows {
					if math.IsNaN(r.Loss) || math.IsInf(r.Loss, 0) {
						t.Errorf("%s epoch %d: loss %g", r.Series, r.Epoch, r.Loss)
					}
				}
			}
			for _, f := range []report.Format{report.Text, report.CSV, report.JSON} {
				var out bytes.Buffer
				if err := doc.Write(&out, f); err != nil {
					t.Fatalf("format %d: %v", f, err)
				}
				if out.Len() == 0 {
					t.Fatalf("format %d: empty output", f)
				}
				if f != report.JSON {
					continue
				}
				var back report.Document
				if err := json.Unmarshal(out.Bytes(), &back); err != nil {
					t.Fatalf("-json output does not parse: %v", err)
				}
				if back.ID != sw.Bench || len(back.Sections) != len(doc.Sections) {
					t.Fatalf("-json round trip lost structure: id %q, %d sections", back.ID, len(back.Sections))
				}
				if pinned(sw) {
					pinSweep(t, sw.Name, out.Bytes())
				}
			}
		})
	}
}

// pinSweep checks an ungated sweep's -json bytes against the ledger.
func pinSweep(t *testing.T, name string, js []byte) {
	t.Helper()
	prefix := "experiments/sweep/" + name
	pin.Prefix(t, prefix)
	h := pin.New()
	h.Write(js)
	pin.Check(t, prefix, h)
}

// TestParamsValidate pins the one place CLI numbers are checked.
func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("defaults must validate: %v", err)
	}
	for flag, edit := range map[string]func(*Params){
		"-n":       func(p *Params) { p.N = 0 },
		"-density": func(p *Params) { p.Density = 1.5 },
		"-maxp":    func(p *Params) { p.MaxP = 0 },
		"-p":       func(p *Params) { p.P = 0 },
		"-rpn":     func(p *Params) { p.RPN = 0 },
		"-nic":     func(p *Params) { p.NIC = -3 },
		"-gens":    func(p *Params) { p.Gens = 0 },
		"-runs":    func(p *Params) { p.Runs = -1 },
		"-rows":    func(p *Params) { p.Rows = 0 },
		"-epochs":  func(p *Params) { p.Epochs = 0 },
		"-scale":   func(p *Params) { p.Scale = 0 },
	} {
		p := DefaultParams()
		edit(&p)
		if err := p.Validate(); err == nil || !strings.Contains(err.Error(), flag+" ") {
			t.Errorf("bad %s: got error %v, want one naming the flag", flag, err)
		}
	}
	// A -maxp that leaves a node-count sweep no rank count is an error too,
	// not a header-only table.
	for _, name := range []string{"nodes", "hier", "hierdsar"} {
		sw, _ := Lookup(name)
		p := sw.Defaults
		p.MaxP = 1
		if _, err := sw.Document(p); err == nil || !strings.Contains(err.Error(), "-maxp 1 ") {
			t.Errorf("%s -maxp 1: got error %v, want one naming the flag", name, err)
		}
	}
	// So is a -rows that leaves a rank of a DNN sweep's largest world an
	// empty shard, which no batch can be drawn from.
	for name, maxP := range map[string]int{"fig4a": 8, "fig4b": 4, "fig5": 8, "fig6": 32} {
		sw, _ := Lookup(name)
		p := sw.Defaults
		p.Rows = maxP - 1
		if _, err := sw.Document(p); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("-rows %d ", maxP-1)) {
			t.Errorf("%s -rows %d: got error %v, want one naming the flag", name, maxP-1, err)
		}
	}
}
