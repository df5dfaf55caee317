package report

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

type docRow struct {
	Name    string    `json:"name"`
	Seconds float64   `json:"sim_seconds"`
	Ratio   float64   `json:"ratio"`
	OK      bool      `json:"ok"`
	Costs   []float64 `json:"costs"`
}

var testDoc = Document{
	ID: "BENCH_0", Note: "a > b",
	Sections: []Section{
		{Name: "cells", Rows: []docRow{{"x", 1.5e-6, 1.23456789, true, []float64{1, 2}}}},
		{Name: "extra_cells", Rows: []docRow{}},
	},
}

// TestDocumentJSONMatchesStructEncoding pins the ordered encoder against
// what encoding/json writes for the equivalent struct — the form the
// committed BENCH files were first recorded in.
func TestDocumentJSONMatchesStructEncoding(t *testing.T) {
	var got, want bytes.Buffer
	if err := testDoc.Write(&got, JSON); err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		ID    string   `json:"id"`
		Note  string   `json:"note"`
		Cells []docRow `json:"cells"`
		Extra []docRow `json:"extra_cells"`
	}{testDoc.ID, testDoc.Note, testDoc.Sections[0].Rows.([]docRow), []docRow{}}); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("ordered encoding differs from the struct encoding:\n%s\nvs\n%s", got.String(), want.String())
	}

	var back Document
	if err := json.Unmarshal(got.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != "BENCH_0" || back.Note != "a > b" || len(back.Sections) != 2 || back.Sections[1].Name != "extra_cells" {
		t.Fatalf("decoded document lost structure: %+v", back)
	}
	var rows []docRow
	if err := back.Rows("cells", &rows); err != nil || len(rows) != 1 || rows[0].Ratio != 1.23456789 {
		t.Fatalf("Rows(cells) = %+v, %v", rows, err)
	}
	if err := back.Rows("missing", &rows); err == nil {
		t.Fatal("a missing section must error")
	}
	if err := json.Unmarshal([]byte(`[1]`), &back); err == nil {
		t.Fatal("a non-object document must error")
	}
}

func TestDocumentTextAndCSV(t *testing.T) {
	var text, csv bytes.Buffer
	if err := testDoc.Write(&text, Text); err != nil {
		t.Fatal(err)
	}
	if err := testDoc.Write(&csv, CSV); err != nil {
		t.Fatal(err)
	}
	// Text: note line, section separators, derived headers, time units,
	// four significant digits; the nested slice stays out of the table.
	for _, want := range []string{"# a > b\n", "# cells\n", "# extra_cells\n", "sim_seconds", "1.5µs", "1.235", "true"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text output lacks %q:\n%s", want, text.String())
		}
	}
	if strings.Contains(text.String(), "costs") {
		t.Errorf("nested field leaked into the table:\n%s", text.String())
	}
	// CSV: raw numbers, no note, one header per section.
	want := "# cells\nname,sim_seconds,ratio,ok\nx,1.5e-06,1.23456789,true\n# extra_cells\nname,sim_seconds,ratio,ok\n"
	if csv.String() != want {
		t.Fatalf("CSV = %q, want %q", csv.String(), want)
	}

	one := Document{Sections: testDoc.Sections[:1]}
	csv.Reset()
	if err := one.Write(&csv, CSV); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(csv.String(), "#") {
		t.Fatalf("a single-section CSV must be plain CSV, got %q", csv.String())
	}
	if err := (Document{Sections: []Section{{Name: "cells", Rows: 3}}}).Write(&csv, Text); err == nil {
		t.Fatal("rows that are not a slice of structs must error")
	}
}
