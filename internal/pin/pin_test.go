package pin

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fakeT stands in for a test the ledger reports to, recording what a real
// one would fail or log.
type fakeT struct {
	testing.TB
	errs, logs []string
	cleanups   []func()
}

func (f *fakeT) Helper()      {}
func (f *fakeT) Name() string { return "TestA/rows" }
func (f *fakeT) Errorf(format string, args ...any) {
	f.errs = append(f.errs, fmt.Sprintf(format, args...))
}
func (f *fakeT) Log(args ...any)   { f.logs = append(f.logs, fmt.Sprint(args...)) }
func (f *fakeT) Cleanup(fn func()) { f.cleanups = append(f.cleanups, fn) }
func (f *fakeT) Failed() bool      { return len(f.errs) > 0 }
func (f *fakeT) Skipped() bool     { return false }

// finish ends the fake test: its cleanups run, last registered first.
func (f *fakeT) finish() {
	for i := len(f.cleanups) - 1; i >= 0; i-- {
		f.cleanups[i]()
	}
}

// tempLedger returns a ledger backed by a fresh file holding entries.
func tempLedger(t *testing.T, entries map[string]string) *ledger {
	path := filepath.Join(t.TempDir(), "pins.json")
	if err := os.WriteFile(path, encode(entries), 0o644); err != nil {
		t.Fatal(err)
	}
	return &ledger{path: path, checked: map[string]bool{}}
}

// file returns the contents of l's file.
func file(t *testing.T, l *ledger) string {
	buf, err := os.ReadFile(l.path)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestLedgerIsCanonical: the committed ledger re-encodes to its own bytes
// (unique keys, sorted, one per line) and holds only lowercase hex.
func TestLedgerIsCanonical(t *testing.T) {
	buf := file(t, shared())
	var entries map[string]string
	if err := json.Unmarshal([]byte(buf), &entries); err != nil {
		t.Fatal(err)
	}
	if string(encode(entries)) != buf {
		t.Error("testdata/pins.json is not canonical: keys must be unique and sorted, one entry per line")
	}
	for name, v := range entries {
		if _, err := hex.DecodeString(v); err != nil || v == "" || v != strings.ToLower(v) {
			t.Errorf("%s: %q is not lowercase hex", name, v)
		}
	}
}

// TestUpdateRewritesOnlyItsEntries: under -update a test re-records what
// it checks and deletes the orphans under its prefix, logging each change,
// while every entry outside the prefix (ab/x shares its first letter)
// keeps its bytes.
func TestUpdateRewritesOnlyItsEntries(t *testing.T) {
	l := tempLedger(t, map[string]string{"a/kept": "01", "a/moved": "02", "a/orphan": "03", "ab/x": "04", "b": "05"})
	ft := &fakeT{TB: t}
	l.prefix(ft, "a", true)
	l.check(ft, "a/kept", "01", true)
	l.check(ft, "a/moved", "12", true)
	l.check(ft, "a/new", "06", true)
	ft.finish()
	logs := []string{"a/moved: 02 → 12", "a/new: (none) → 06", "a/orphan: 03 → (none)"}
	if len(ft.errs) > 0 || !reflect.DeepEqual(ft.logs, logs) {
		t.Errorf("errors %q, logged %q; want none and %q", ft.errs, ft.logs, logs)
	}
	want := encode(map[string]string{"a/kept": "01", "a/moved": "12", "a/new": "06", "ab/x": "04", "b": "05"})
	if got := file(t, l); got != string(want) {
		t.Errorf("ledger after -update:\n%s\nwant:\n%s", got, want)
	}
}

// TestFailuresNameEntryAndCommand: without -update a changed and a missing
// entry fail with their "name: old → new" line and the command that
// re-records them, an orphan under the prefix fails a test that otherwise
// passed, and the file is left alone.
func TestFailuresNameEntryAndCommand(t *testing.T) {
	l := tempLedger(t, map[string]string{"a/x": "01", "a/orphan": "02", "ab": "03"})
	before := file(t, l)
	ft := &fakeT{TB: t}
	l.check(ft, "a/x", "05", false)
	l.check(ft, "a/new", "04", false)
	for i, want := range []string{"a/x: 01 → 05; ", "a/new: (none) → 04; "} {
		if i >= len(ft.errs) || !strings.HasPrefix(ft.errs[i], want) || !strings.HasSuffix(ft.errs[i], " -run '^TestA$/^rows$' -update -v") {
			t.Errorf("errors %q, want %q… naming the -update command", ft.errs, want)
		}
	}
	ft = &fakeT{TB: t}
	l.prefix(ft, "a", false)
	l.check(ft, "a/x", "01", false)
	ft.finish()
	if len(ft.errs) != 1 || !strings.HasPrefix(ft.errs[0], "a/orphan: 02 → (none); ") {
		t.Errorf("errors %q, want one naming the orphan a/orphan", ft.errs)
	}
	if file(t, l) != before {
		t.Error("failing checks rewrote the ledger")
	}
}

// TestConcurrentChecks: parallel subtests check one ledger at once, each
// re-recording its own entry under -update and reading a shared one; under
// -race nothing races, and no entry is lost from the file.
func TestConcurrentChecks(t *testing.T) {
	before, after := map[string]string{"c/shared": "ee"}, map[string]string{"c/shared": "ee"}
	for i := 0; i < 8; i++ {
		before[fmt.Sprint("c/", i)], after[fmt.Sprint("c/", i)] = fmt.Sprintf("%02x", i), "ff"
	}
	l := tempLedger(t, before)
	t.Run("group", func(t *testing.T) {
		l.prefix(t, "c", true)
		for i := 0; i < 8; i++ {
			t.Run(fmt.Sprint(i), func(t *testing.T) {
				t.Parallel()
				for j := 0; j < 50; j++ {
					l.check(t, fmt.Sprint("c/", i), "ff", true)
					l.check(t, "c/shared", "ee", false)
				}
			})
		}
	})
	if got := file(t, l); got != string(encode(after)) {
		t.Errorf("ledger after concurrent re-recording:\n%s", got)
	}
}
