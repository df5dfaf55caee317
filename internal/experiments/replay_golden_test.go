package experiments

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/pin"
	"repro/internal/scenario"
)

// goldenAdaptScenario is the committed-trace workload: the clustered
// shape at a size that keeps the trace file small enough to commit.
var goldenAdaptScenario = scenario.Scenario{
	Name: "clustered-small", N: 1 << 13, P: 8, Calls: 4,
	Density: scenario.Const(0.04),
	Blocks:  []scenario.Block{{Start: 0, Frac: 0.05, Weight: 1}},
	HotMass: scenario.Const(0.9),
}

// TestGoldenTraceReplay replays the committed trace and compares every
// field of the resulting row against the committed golden row: the
// recorded merges and adaptation decisions must reproduce exactly,
// release after release. Regenerate both files with -update.
func TestGoldenTraceReplay(t *testing.T) {
	const (
		tracePath = "testdata/clustered-small.trace"
		rowPath   = "testdata/clustered-small.row.json"
	)
	if pin.Updating() {
		tr := scenario.Record(goldenAdaptScenario, scenario.NewKey(AdaptSeed))
		if err := tr.WriteFile(tracePath); err != nil {
			t.Fatal(err)
		}
		row, _ := RunAdaptCell(4, 1, tr, false)
		buf, err := json.MarshalIndent(row, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(rowPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s and %s", tracePath, rowPath)
		return
	}

	tr, err := scenario.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("read golden trace (regenerate with -update): %v", err)
	}
	got, _ := RunAdaptCell(4, 1, tr, false)

	buf, err := os.ReadFile(rowPath)
	if err != nil {
		t.Fatalf("read golden row (regenerate with -update): %v", err)
	}
	var want AdaptRow
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parse %s: %v", rowPath, err)
	}
	if got != want {
		t.Fatalf("replaying the committed trace diverged from the committed row:\ngot:  %+v\nwant: %+v", got, want)
	}

	// The trace must also still match a fresh generation of its scenario —
	// record and replay share one definition of the workload.
	fresh := scenario.Record(goldenAdaptScenario, scenario.NewKey(AdaptSeed))
	if live, _ := RunAdaptCell(4, 1, fresh, false); live != got {
		t.Fatalf("fresh generation diverged from the committed trace:\nfresh: %+v\ntrace: %+v", live, got)
	}
}
