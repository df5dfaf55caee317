package experiments

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/obs"
	"repro/internal/pin"
	"repro/internal/scenario"
)

// obsGoldenScenario returns the pinned observability-export workload: the
// library "lstm" cell, small enough that its Perfetto JSON stays
// committable. Pinned by name so library edits to other scenarios never
// drift the golden.
func obsGoldenScenario(t *testing.T) scenario.Scenario {
	t.Helper()
	sc, err := scenario.ByName("lstm")
	if err != nil {
		t.Fatalf("library lost the lstm scenario: %v", err)
	}
	return sc
}

// TestGoldenObsExport pins the Perfetto export: running the lstm cell
// with observability attached must reproduce the committed Chrome
// trace-event JSON byte for byte, the export must survive a
// decode∘encode round trip unchanged, and replaying a recording of the
// same cell must emit the identical timeline. Regenerate with -update.
func TestGoldenObsExport(t *testing.T) {
	const goldenPath = "testdata/obs_lstm_golden.json"
	sc := obsGoldenScenario(t)
	key := scenario.NewKey(AdaptSeed)

	_, hub := RunAdaptCell(4, 1, scenario.Record(sc, key), true)
	var live bytes.Buffer
	if err := hub.WriteChrome(&live); err != nil {
		t.Fatal(err)
	}

	if pin.Updating() {
		if err := os.WriteFile(goldenPath, live.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, live.Len())
		return
	}

	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden export (regenerate with -update): %v", err)
	}
	if !bytes.Equal(live.Bytes(), want) {
		t.Fatalf("live obs export diverged from the committed golden (%d vs %d bytes); regenerate with -update if the change is intended",
			live.Len(), len(want))
	}

	// decode∘encode identity: the exporter's output parses back into the
	// event structs and re-encodes to the same bytes.
	decoded, err := obs.DecodeChromeTrace(want)
	if err != nil {
		t.Fatalf("golden export does not parse: %v", err)
	}
	re, err := obs.EncodeChromeTrace(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, want) {
		t.Fatal("decode∘encode of the golden export is not the identity")
	}

	// Replay identity: a trace recorded from the same scenario replays to
	// the byte-identical timeline — the acceptance claim that recorded
	// runs are fully inspectable after the fact.
	tr, err := scenario.Decode(scenario.Record(sc, key).Encode())
	if err != nil {
		t.Fatal(err)
	}
	_, replayHub := RunAdaptCell(4, 1, tr, true)
	var replayed bytes.Buffer
	if err := replayHub.WriteChrome(&replayed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(replayed.Bytes(), want) {
		t.Fatal("replaying a recorded lstm trace did not reproduce the live obs export byte for byte")
	}

	// The metrics dump is deterministic too: live and replay agree.
	var liveM, replayM bytes.Buffer
	if err := hub.WriteMetrics(&liveM); err != nil {
		t.Fatal(err)
	}
	if err := replayHub.WriteMetrics(&replayM); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveM.Bytes(), replayM.Bytes()) {
		t.Fatalf("metrics dumps diverged between live and replay:\n%s\nvs\n%s", liveM.String(), replayM.String())
	}
}
