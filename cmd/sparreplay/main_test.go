package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scenario", "clustered", "lstm"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-list output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestRecordReplayIdentical is the CI replay gate in miniature: record a
// library scenario, then the live run and the replay of the file must emit
// identical -json bytes and identical Perfetto exports.
func TestRecordReplayIdentical(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.trace")
	var rec strings.Builder
	if err := run([]string{"-record", "-scenario", "ragged", "-out", trace}, &rec); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rec.String(), "recorded ragged") {
		t.Fatalf("unexpected -record output: %s", rec.String())
	}

	var live, replay strings.Builder
	liveObs, replayObs := filepath.Join(dir, "live.json"), filepath.Join(dir, "replay.json")
	if err := run([]string{"-scenario", "ragged", "-json", "-obs", liveObs}, &live); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-replay", trace, "-json", "-obs", replayObs}, &replay); err != nil {
		t.Fatal(err)
	}
	if live.String() != replay.String() || !strings.Contains(live.String(), `"workload": "ragged"`) {
		t.Fatalf("replay diverged from the live run:\n%s\nvs\n%s", live.String(), replay.String())
	}
	a, errA := os.ReadFile(liveObs)
	b, errB := os.ReadFile(replayObs)
	if errA != nil || errB != nil || len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("obs exports differ or are missing (%v, %v; %d vs %d bytes)", errA, errB, len(a), len(b))
	}

	var table strings.Builder
	if err := run([]string{"-replay", trace}, &table); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "adaptive_vs_uniform") {
		t.Fatalf("table output lacks the derived header:\n%s", table.String())
	}
}

func TestErrors(t *testing.T) {
	var out strings.Builder
	for _, args := range [][]string{
		{},
		{"-record", "-scenario", "clustered"}, // -record without -out
		{"-scenario", "bogus"},
		{"-replay", filepath.Join(t.TempDir(), "missing.trace")},
		{"-scenario", "clustered", "-rpn", "0"}, // once a goroutine-trace panic
		{"-scenario", "clustered", "-nic", "-3"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("%v: want an error", args)
		}
	}
}
