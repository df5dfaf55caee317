package experiments

import (
	"math"
	"testing"

	"repro/internal/scenario"
)

// testAdaptScenario is a reduced clustered cell (same shape as the
// library "clustered" cell at a sixteenth of the dimension) used by the
// determinism and replay tests.
var testAdaptScenario = scenario.Scenario{
	Name: "clustered-small", N: 1 << 16, P: 16, Calls: 6,
	Density: scenario.Const(0.04),
	Blocks:  []scenario.Block{{Start: 0, Frac: 0.05, Weight: 1}},
	HotMass: scenario.Const(0.9),
}

// TestRunAdaptCellDeterministic checks one reduced adaptation cell is
// fully deterministic (the property the BENCH_8 drift gate relies on)
// and internally consistent.
func TestRunAdaptCellDeterministic(t *testing.T) {
	key := scenario.NewKey(42)
	a, _ := RunAdaptCell(4, 1, scenario.Record(testAdaptScenario, key), false)
	b, _ := RunAdaptCell(4, 1, scenario.Record(testAdaptScenario, key), false)
	if a != b {
		t.Fatalf("adapt cell not deterministic:\n%+v\n%+v", a, b)
	}
	if a.StaticUniformSim <= 0 || a.StaticClusteredSim <= 0 || a.AdaptiveSim <= 0 {
		t.Fatalf("non-positive simulated times: %+v", a)
	}
	if a.AdaptiveClusteredCalls == 0 {
		t.Fatal("strongly clustered cell should select the clustered support model")
	}
	wantBest := math.Min(a.StaticUniformSim, a.StaticClusteredSim) / a.AdaptiveSim
	if math.Abs(wantBest-a.AdaptiveVsBestStatic) > 1e-12 {
		t.Fatalf("ratio bookkeeping wrong: %v vs %v", wantBest, a.AdaptiveVsBestStatic)
	}
}

// TestReplayAdaptCellMatchesLive records the reduced cell's schedule to a
// trace, round-trips the trace through its file encoding, and checks the
// replayed row equals the live one field for field — the byte-identity
// claim behind cmd/sparreplay and the CI replay gate.
func TestReplayAdaptCellMatchesLive(t *testing.T) {
	key := scenario.NewKey(42)
	tr := scenario.Record(testAdaptScenario, key)
	live, _ := RunAdaptCell(4, 1, tr, false)

	decoded, err := scenario.Decode(tr.Encode())
	if err != nil {
		t.Fatalf("decode recorded trace: %v", err)
	}
	replayed, _ := RunAdaptCell(4, 1, decoded, false)
	if live != replayed {
		t.Fatalf("replay diverged from live run:\nlive:   %+v\nreplay: %+v", live, replayed)
	}
}
