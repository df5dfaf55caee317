package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pin"
)

// smallTrace is a compact scenario used by the codec tests: multi-modal,
// ragged, and small enough that its encoded form stays a few kilobytes.
var smallTrace = Scenario{
	Name: "trace-small", N: 1 << 12, P: 4, Calls: 3,
	Density: Const(0.01),
	Blocks:  []Block{{Start: 0.25, Frac: 0.1, Weight: 1}},
	HotMass: Const(0.7),
	Ragged:  0.25,
}

func TestTraceRoundTrip(t *testing.T) {
	key := NewKey(99)
	tr := Record(smallTrace, key)
	buf := tr.Encode()
	got, err := Decode(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Name != tr.Name || got.Key != tr.Key || got.N != tr.N || got.P != tr.P {
		t.Fatalf("header mismatch: %+v vs %+v", got, tr)
	}
	if len(got.Steps) != len(tr.Steps) {
		t.Fatalf("step count %d, want %d", len(got.Steps), len(tr.Steps))
	}
	for c := range tr.Steps {
		for r := range tr.Steps[c] {
			a, b := tr.Steps[c][r], got.Steps[c][r]
			if !a.Equal(b) {
				t.Fatalf("step %d rank %d: decoded vector differs", c, r)
			}
			// Field-exact: the replayed vector must also charge identical
			// wire bytes (the quantity the cost model prices).
			if a.WireBytes() != b.WireBytes() || a.Delta() != b.Delta() {
				t.Fatalf("step %d rank %d: decoded vector not field-exact", c, r)
			}
		}
	}
	// The encoding is canonical: re-encoding the decoded trace reproduces
	// the bytes exactly.
	if !bytes.Equal(got.Encode(), buf) {
		t.Fatal("re-encoded trace differs from the original bytes")
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	key := NewKey(100)
	tr := Record(smallTrace, key)
	path := filepath.Join(t.TempDir(), "t.trace")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Encode(), tr.Encode()) {
		t.Fatal("file round trip changed the trace")
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.trace")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestTraceDecodeRejectsCorruption(t *testing.T) {
	valid := Record(smallTrace, NewKey(7)).Encode()

	t.Run("truncated", func(t *testing.T) {
		// Every proper prefix must error, never panic.
		for _, cut := range []int{0, 1, 7, 8, 9, 13, 20, len(valid) / 2, len(valid) - 1} {
			if _, err := Decode(valid[:cut]); err == nil {
				t.Errorf("truncation to %d bytes decoded successfully", cut)
			}
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		buf := append([]byte(nil), valid...)
		buf[0] ^= 0xff
		if _, err := Decode(buf); err == nil {
			t.Error("corrupt magic accepted")
		}
	})
	t.Run("bad version", func(t *testing.T) {
		buf := append([]byte(nil), valid...)
		buf[8] = 0xee
		if _, err := Decode(buf); err == nil {
			t.Error("unknown version accepted")
		}
	})
	t.Run("flipped body byte", func(t *testing.T) {
		// CRC must catch a flip anywhere in the body.
		for _, pos := range []int{10, 30, len(valid) / 2, len(valid) - 5} {
			buf := append([]byte(nil), valid...)
			buf[pos] ^= 0x01
			if _, err := Decode(buf); err == nil {
				t.Errorf("flip at %d accepted", pos)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		if _, err := Decode(append(append([]byte(nil), valid...), 0, 0, 0, 0)); err == nil {
			t.Error("trailing bytes accepted")
		}
	})
}

// TestGoldenTrace pins the committed trace file: decoding it must succeed
// and regenerating its scenario under its recorded key must reproduce the
// committed bytes exactly. This is the cross-release record/replay
// contract — if the generator or the codec drifts, this fails before any
// BENCH document silently moves. Regenerate with -update.
func TestGoldenTrace(t *testing.T) {
	const path = "testdata/trace-small.trace"
	key := NewKey(701)
	fresh := Record(smallTrace, key).Encode()
	if pin.Updating() {
		if err := os.WriteFile(path, fresh, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(fresh))
		return
	}
	committed, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden trace (regenerate with -update): %v", err)
	}
	if _, err := Decode(committed); err != nil {
		t.Fatalf("committed trace no longer decodes: %v", err)
	}
	if !bytes.Equal(committed, fresh) {
		t.Fatal("regenerating the golden trace produced different bytes — generator or codec drifted")
	}
}

// TestGoldenDigests pins every library scenario's generated bytes — the
// FNV-64a digestScenario takes — as the ledger entries
// scenario/library/<name>: a change to the generator, the key derivation
// or a scenario definition fails here before it silently invalidates the
// drift-gated BENCH documents, and a scenario added to or dropped from the
// library fails until its entry is recorded or deleted with -update.
func TestGoldenDigests(t *testing.T) {
	pin.Prefix(t, "scenario/library")
	for _, sc := range Library() {
		pin.Check(t, "scenario/library/"+sc.Name, digestScenario(sc, NewKey(701), nil))
	}
}

func FuzzDecodeTrace(f *testing.F) {
	f.Add(Record(smallTrace, NewKey(1)).Encode())
	tiny := Scenario{Name: "t", N: 64, P: 2, Calls: 1, Density: Const(0.05)}
	f.Add(Record(tiny, NewKey(2)).Encode())
	f.Add([]byte(traceMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(data) // must never panic
		if err != nil {
			return
		}
		// Anything that decodes must re-encode to the identical bytes —
		// the format is canonical, so decode ∘ encode is the identity.
		if !bytes.Equal(tr.Encode(), data) {
			t.Fatalf("decoded trace re-encodes differently (%d bytes in)", len(data))
		}
	})
}
