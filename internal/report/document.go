package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
)

// Section is one named, ordered block of rows in a Document. Rows is a
// slice of structs whose json tags are the only schema: they name the JSON
// keys and the table/CSV columns alike. In a Document decoded from JSON,
// Rows holds the section's raw bytes (json.RawMessage); Document.Rows
// decodes them into a typed slice.
type Section struct {
	Name string
	Rows any
}

// Document is the one shape a recorded sweep takes, on stdout and in the
// committed BENCH_*.json files: an optional id and note, then the named
// sections in order.
type Document struct {
	ID, Note string
	Sections []Section
}

// Format selects how Document.Write renders.
type Format int

// The output formats of the cmd tools: aligned tables (the default),
// -csv, and -json.
const (
	Text Format = iota
	CSV
	JSON
)

// MarshalJSON encodes the document as one object with its keys in
// document order — "id" and "note" (each omitted when empty), then one key
// per section — which a map or a generated struct could not guarantee.
func (d Document) MarshalJSON() ([]byte, error) {
	fields := make([]Section, 0, 2+len(d.Sections))
	if d.ID != "" {
		fields = append(fields, Section{"id", d.ID})
	}
	if d.Note != "" {
		fields = append(fields, Section{"note", d.Note})
	}
	var b bytes.Buffer
	b.WriteByte('{')
	for i, f := range append(fields, d.Sections...) {
		key, _ := json.Marshal(f.Name) // a string always marshals
		val, err := json.Marshal(f.Rows)
		if err != nil {
			return nil, fmt.Errorf("report: section %q: %w", f.Name, err)
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.Write(key)
		b.WriteByte(':')
		b.Write(val)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// UnmarshalJSON decodes a document keeping its sections in file order,
// each as raw JSON.
func (d *Document) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return fmt.Errorf("report: document is not a JSON object")
	}
	*d = Document{}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return err
		}
		switch key {
		case "id":
			err = dec.Decode(&d.ID)
		case "note":
			err = dec.Decode(&d.Note)
		default:
			var raw json.RawMessage
			err = dec.Decode(&raw)
			d.Sections = append(d.Sections, Section{Name: key.(string), Rows: raw})
		}
		if err != nil {
			return fmt.Errorf("report: document key %v: %w", key, err)
		}
	}
	return nil
}

// Rows decodes the named section of a document read from JSON into rows,
// a pointer to a slice of the section's row struct.
func (d Document) Rows(section string, rows any) error {
	for _, s := range d.Sections {
		if s.Name != section {
			continue
		}
		raw, ok := s.Rows.(json.RawMessage)
		if !ok {
			return fmt.Errorf("report: section %q was not decoded from JSON", section)
		}
		return json.Unmarshal(raw, rows)
	}
	return fmt.Errorf("report: document %q has no section %q", d.ID, section)
}

// Write renders the document. JSON is the indented ordered object the
// BENCH files hold. Text prints the note as a '#' line and each section as
// an aligned table; CSV prints the sections as CSV with raw numbers. With
// more than one section, each is preceded by a "# <section>" line.
func (d Document) Write(w io.Writer, f Format) error {
	if f == JSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(d)
	}
	if f == Text && d.Note != "" {
		fmt.Fprintf(w, "# %s\n", d.Note)
	}
	for _, s := range d.Sections {
		tb, err := tableOf(s.Rows, f == CSV)
		if err != nil {
			return fmt.Errorf("report: section %q: %w", s.Name, err)
		}
		if len(d.Sections) > 1 {
			fmt.Fprintf(w, "# %s\n", s.Name)
		}
		if err := tb.Emit(w, f == CSV); err != nil {
			return err
		}
	}
	return nil
}

// tableOf derives a table from a slice of structs: one column per scalar
// field, headed by the field's json name (nested slices and structs appear
// in the JSON form only). Unless raw, floats print to four significant
// digits, those named *_seconds with an adaptive time unit.
func tableOf(rows any, raw bool) (*Table, error) {
	v := reflect.ValueOf(rows)
	if v.Kind() != reflect.Slice || v.Type().Elem().Kind() != reflect.Struct {
		return nil, fmt.Errorf("rows are %T, want a slice of structs", rows)
	}
	t := v.Type().Elem()
	var cols []int
	tb := &Table{}
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		switch t.Field(i).Type.Kind() {
		case reflect.Slice, reflect.Struct:
			continue
		}
		if name == "" {
			return nil, fmt.Errorf("%s.%s has no json tag", t.Name(), t.Field(i).Name)
		}
		cols = append(cols, i)
		tb.header = append(tb.header, name)
	}
	for r := 0; r < v.Len(); r++ {
		cells := make([]string, len(cols))
		for c, i := range cols {
			switch f := v.Index(r).Field(i); {
			case f.Kind() != reflect.Float64:
				cells[c] = fmt.Sprint(f.Interface())
			case raw:
				cells[c] = strconv.FormatFloat(f.Float(), 'g', -1, 64)
			case strings.HasSuffix(tb.header[c], "_seconds"):
				cells[c] = FormatSeconds(f.Float())
			default:
				cells[c] = strconv.FormatFloat(f.Float(), 'g', 4, 64)
			}
		}
		tb.rows = append(tb.rows, cells)
	}
	return tb, nil
}
