package experiments

import (
	"testing"

	"repro/internal/simnet"
)

func TestHierCellAcceptanceScenario(t *testing.T) {
	// The issue's acceptance scenario: P=32, 4 ranks/node, NVLink-like
	// intra + Aries inter, latency-bound density. SSAR_Split_allgather at
	// full depth must beat the same algorithm run flat entirely on the
	// inter-node profile.
	flat, hier := hierArms(simnet.TwoLevel(4, simnet.NVLinkLike, simnet.Aries, 0), false)
	row := runABCell(1<<20, 1e-4, 32, 4, flat, hier, 1, 1, 1)
	if row.FlatMedian <= 0 || row.HierMedian <= 0 {
		t.Fatal("medians must be positive")
	}
	if row.Speedup <= 1 {
		t.Fatalf("hierarchical must beat flat at the acceptance point, got speedup %.2f", row.Speedup)
	}
	if row.HierMsgs >= row.FlatMsgs*2 {
		t.Fatalf("hier message count should not blow up: hier=%d flat=%d", row.HierMsgs, row.FlatMsgs)
	}
}

func TestHierSweepsShapes(t *testing.T) {
	topo := simnet.TwoLevel(4, simnet.NVLinkLike, simnet.Aries, 0)
	rows := HierNodeSweep(1<<14, 1e-3, []int{2, 8, 16}, topo, false, 1, 1)
	if len(rows) != 2 { // P=2 < rpn is skipped
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.FlatMedian <= 0 || r.HierMedian <= 0 {
			t.Fatalf("cell %+v has nonpositive medians", r)
		}
	}
}

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
