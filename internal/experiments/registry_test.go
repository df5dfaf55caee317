package experiments

import (
	"bytes"
	"encoding/json"
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
	"BENCH_2": {&[]ContentionRow{}},
	"BENCH_3": {&[]MergeCell{}},
	"BENCH_4": {&[]HierLevelsRow{}},
	"BENCH_5": {&[]AdaptRow{}},
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

// TestRegistryEntriesRunAndRender runs every registered sweep — the
// CLI-shaped ones at tiny parameters, the fixed-cell ones as recorded —
// and renders the result in all three formats. The ungated simulated
// sweeps are pinned as run here (pinSweep); overlapwall is wall-clock and
// merge is BENCH_3.
func TestRegistryEntriesRunAndRender(t *testing.T) {
	slow := map[string]bool{"adapt": true, "adaptdiv": true, "cluster": true} // 20 s each
	pinned := map[string]bool{"nodes": true, "density": true, "hier": true, "hierdsar": true, "adaptdiv": true}
	for _, sw := range Sweeps() {
		t.Run(sw.Name, func(t *testing.T) {
			if slow[sw.Name] {
				if testing.Short() {
					t.Skip("fixed cells at full scale")
				}
				// After the serial entries: merge counts allocations
				// process-wide and must run alone.
				t.Parallel()
			}
			p := sw.Defaults
			p.N, p.MaxP, p.P, p.Gens, p.Runs = 4096, 8, 4, 1, 1
			doc, err := sw.Document(p)
			if err != nil {
				t.Fatal(err)
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
				if pinned[sw.Name] {
					pinSweep(t, sw.Name, doc, out.Bytes())
				}
			}
		})
	}
}

// pinSweep checks an ungated sweep against the ledger: one entry over its
// -json bytes, or one per row for adaptdiv, whose rows grow with the
// scenario library.
func pinSweep(t *testing.T, name string, doc report.Document, js []byte) {
	t.Helper()
	prefix := "experiments/sweep/" + name
	pin.Prefix(t, prefix)
	if name != "adaptdiv" {
		h := pin.New()
		h.Write(js)
		pin.Check(t, prefix, h)
		return
	}
	for _, row := range doc.Sections[0].Rows.([]AdaptRow) {
		h := pin.New()
		json.NewEncoder(h).Encode(row)
		pin.Check(t, prefix+"/"+row.Workload, h)
	}
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
}
