package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/simnet"
)

func TestHierDSARCellBeatsFlatUnderContention(t *testing.T) {
	// Dense regime, fully serialized NICs, 4 nodes of 4: DSAR at depth 2,
	// one leader flow per node, must beat flat DSAR's four.
	flat, hier := hierArms(simnet.TwoLevel(4, simnet.NVLinkLike, simnet.Aries, 1), true)
	row := runABCell(1<<16, 0.6, 16, 4, flat, hier, 1, 1, 1)
	if row.FlatMedian <= 0 || row.HierMedian <= 0 {
		t.Fatal("medians must be positive")
	}
	if row.Speedup <= 1 {
		t.Fatalf("DSAR at depth 2 must beat flat DSAR under contention, got speedup %.2f", row.Speedup)
	}
	if row.HierMsgs >= row.FlatMsgs {
		t.Fatalf("hier must send fewer messages: hier=%d flat=%d", row.HierMsgs, row.FlatMsgs)
	}
}

func TestHierDSARNodeSweepShapes(t *testing.T) {
	topo := simnet.TwoLevel(4, simnet.NVLinkLike, simnet.Aries, 1)
	rows := HierNodeSweep(1<<12, 0.6, []int{2, 8, 16}, topo, true, 1, 1)
	if len(rows) != 2 { // P=2 < rpn is skipped
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.FlatMedian <= 0 || r.HierMedian <= 0 {
			t.Fatalf("cell %+v has nonpositive medians", r)
		}
	}
}

func TestContentionSweepDemonstratesAcceptance(t *testing.T) {
	rows := ContentionSweep(simnet.NVLinkLike, simnet.Aries)
	if len(rows) != 4 {
		t.Fatalf("want 4 cells, got %d", len(rows))
	}
	oldWrongAutoRight := 0
	for _, r := range rows {
		if len(r.Costs) != 5 {
			t.Fatalf("cell %+v: want 5 candidate costs", r)
		}
		for _, c := range r.Costs {
			if c.SimSeconds <= 0 || c.ModelSeconds <= 0 {
				t.Fatalf("cell nic=%d alg=%s: nonpositive times %+v", r.NICSerial, c.Algorithm, c)
			}
		}
		if !r.AutoMatchesCheapest {
			t.Errorf("cell n=%d P=%d nic=%d: Auto chose %s but %s is cheapest",
				r.N, r.P, r.NICSerial, r.AutoChoice, r.CheapestSim)
		}
		if r.AutoMatchesCheapest && !r.OldMatchesCheapest {
			oldWrongAutoRight++
		}
	}
	// The acceptance criterion: at least one sweep cell where the old
	// topology-presence heuristic would have chosen wrong and the
	// cost-model Auto matches the empirically cheapest algorithm.
	if oldWrongAutoRight == 0 {
		t.Fatal("no cell demonstrates the cost model beating the old heuristic")
	}
}

func TestOldHeuristicChoiceReproducesPR1Rules(t *testing.T) {
	// δ gate to DSAR, size threshold below, topology presence to depth 2.
	for _, tc := range []struct {
		name         string
		n, k, P, rpn int
		want         choice
	}{
		{"dense regime", 1000, 600, 8, 4, choice{core.DSARSplitAllgather, 0}},
		{"topology presence", 1 << 20, 100, 32, 4, choice{core.SSARRecDouble, 2}},
		{"large leader accumulation", 1 << 20, 3000, 32, 4, choice{core.SSARSplitAllgather, 2}},
		{"small flat", 1 << 20, 100, 32, 1, choice{core.SSARRecDouble, 0}},
		{"large flat", 1 << 20, 50000, 4, 1, choice{core.SSARSplitAllgather, 0}},
	} {
		if got := oldHeuristicChoice(tc.n, tc.k, tc.P, tc.rpn); got != tc.want {
			t.Fatalf("%s: got %s, want %s", tc.name, got, tc.want)
		}
	}
}
