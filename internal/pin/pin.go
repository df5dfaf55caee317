// Package pin holds tests to testdata/pins.json, the module's one ledger
// of committed digests: a canonical JSON object mapping a name, prefixed
// with its package ("stream/addall/cancel-refill"), to the hex of a hash
// over the bytes the name pins. A failing Check prints "name: old → new".
// Under -update a test re-records the entries it checks instead, deletes
// the orphans under its Prefix, and logs the same lines. Only _test.go
// files import this package.
package pin

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "re-record the ledger entries and golden files of the tests run")

// Updating reports whether the tests run with -update, under which
// golden-file tests rewrite their files instead of comparing.
func Updating() bool { return *update }

// New returns the SHA-256 hash most entries are taken with.
func New() hash.Hash { return sha256.New() }

// Check fails t with "name: old → new" unless the hex of h.Sum(nil) is the
// ledger's entry name; under -update it records the value instead.
func Check(t testing.TB, name string, h hash.Hash) {
	t.Helper()
	shared().check(t, name, hex.EncodeToString(h.Sum(nil)), *update)
}

// Prefix makes t own every entry named prefix or prefix/…: once t and its
// subtests have passed, an entry under it that no Check visited fails t,
// or under -update is deleted.
func Prefix(t testing.TB, prefix string) { shared().prefix(t, prefix, *update) }

// ledger is a ledger file and the entries this process has checked.
type ledger struct {
	path    string
	mu      sync.Mutex
	entries map[string]string // nil until loaded
	checked map[string]bool
}

// shared is the module's ledger, two directories above this file.
var shared = sync.OnceValue(func() *ledger {
	_, file, _, _ := runtime.Caller(0)
	return &ledger{path: filepath.Join(filepath.Dir(file), "..", "..", "testdata", "pins.json"), checked: map[string]bool{}}
})

func (l *ledger) check(t testing.TB, name, got string, update bool) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.checked[name] = true
	l.report(t, name, got, update)
}

func (l *ledger) prefix(t testing.TB, prefix string, update bool) {
	t.Cleanup(func() {
		if t.Failed() || t.Skipped() {
			return
		}
		l.mu.Lock()
		defer l.mu.Unlock()
		var orphans []string
		for name := range l.load(t) {
			if (name == prefix || strings.HasPrefix(name, prefix+"/")) && !l.checked[name] {
				orphans = append(orphans, name)
			}
		}
		sort.Strings(orphans)
		for _, name := range orphans {
			l.report(t, name, "", update)
		}
	})
}

// report compares value with entry name ("" is absent). A difference
// fails t with "name: old → new" and the command that re-records it, or
// under update is written to the file and logged. Callers hold l.mu.
func (l *ledger) report(t testing.TB, name, value string, update bool) {
	t.Helper()
	old := l.load(t)[name]
	if old == value {
		return
	}
	line := fmt.Sprintf("%s: %s → %s", name, cmp.Or(old, "(none)"), cmp.Or(value, "(none)"))
	if !update {
		dir, _ := os.Getwd()
		pkg, _ := filepath.Rel(filepath.Dir(filepath.Dir(l.path)), dir)
		t.Errorf("%s; re-record with go test ./%s -run '^%s$' -update -v", line, filepath.ToSlash(pkg), strings.ReplaceAll(t.Name(), "/", "$/^"))
		return
	}
	// Re-read first, so entries another test binary re-recorded since this
	// one loaded the file survive (run -update one package at a time).
	l.entries = nil
	entries := l.load(t)
	entries[name] = value
	if value == "" {
		delete(entries, name)
	}
	if err := os.WriteFile(l.path, encode(entries), 0o644); err != nil {
		t.Fatalf("pin ledger: %v", err)
	}
	t.Log(line)
}

// load returns the entries, reading the file on first use. Callers hold
// l.mu.
func (l *ledger) load(t testing.TB) map[string]string {
	t.Helper()
	if l.entries == nil {
		buf, err := os.ReadFile(l.path)
		if err == nil {
			err = json.Unmarshal(buf, &l.entries)
		}
		if err != nil {
			t.Fatalf("pin ledger: %v", err)
		}
	}
	return l.entries
}

// encode is the canonical form of a ledger: sorted keys, one per line.
func encode(entries map[string]string) []byte {
	buf, _ := json.MarshalIndent(entries, "", "  ") // a map of strings always encodes
	return append(buf, '\n')
}
