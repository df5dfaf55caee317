package experiments

import (
	"math/rand"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/simnet"
)

// This file holds the hierarchy-depth ablation recorded as BENCH_4.json:
// on a three-tier DragonflyLike machine (nodes behind serialized NICs,
// Dragonfly groups behind tapered uplinks, expensive global links), the
// same allreduce instance is run flat, with the two-level hierarchical
// scheme (nodes only), and with the full three-level recursion, on the
// *same* world — one algorithm at depths 1, 2 and 3. Every metric is simulated
// virtual time on seeded inputs, so the document is reproducible
// byte-for-byte and scripts/ci.sh drift-gates it like BENCH_2/BENCH_3.

// HierLevelsRow is one flat vs 2-level vs 3-level measurement cell.
type HierLevelsRow struct {
	N             int     `json:"n"`
	P             int     `json:"p"`
	RanksPerNode  int     `json:"ranks_per_node"`
	NodesPerGroup int     `json:"nodes_per_group"`
	Density       float64 `json:"density"`
	K             int     `json:"k_per_rank"`
	// Family is the algorithm family compared: "ssar" (sparse result) or
	// "dsar" (dense result).
	Family string `json:"family"`
	// FlatSim, TwoLevelSim, and ThreeLevelSim are simulated allreduce
	// times in seconds flat, at depth 2 and at the full depth 3: DSAR for
	// the dsar family; for the ssar family SSAR_Split_allgather flat and,
	// at depth, the sparse algorithm Auto prices there
	// (core.AutoSSARAtDepth).
	FlatSim       float64 `json:"flat_sim_seconds"`
	TwoLevelSim   float64 `json:"two_level_sim_seconds"`
	ThreeLevelSim float64 `json:"three_level_sim_seconds"`
	// FlatModel, TwoLevelModel, and ThreeLevelModel are the corresponding
	// cost-model predictions in seconds.
	FlatModel       float64 `json:"flat_model_seconds"`
	TwoLevelModel   float64 `json:"two_level_model_seconds"`
	ThreeLevelModel float64 `json:"three_level_model_seconds"`
	// SpeedupOverFlat is FlatSim / ThreeLevelSim; SpeedupOverTwoLevel is
	// TwoLevelSim / ThreeLevelSim.
	SpeedupOverFlat     float64 `json:"speedup_over_flat"`
	SpeedupOverTwoLevel float64 `json:"speedup_over_two_level"`
	// AutoChoice and AutoLevels are what ChooseAutoLevels resolves to on
	// the cell's scenario; CheapestSim names the empirically cheapest
	// variant ("flat", "2-level", or "3-level"). AutoMatchesCheapest
	// reports whether the variant Auto picked simulates within 2% of the
	// cheapest one — adjacent depths can tie near the crossover, and a
	// near-tie is not a mis-prediction.
	AutoChoice          string `json:"auto_choice"`
	AutoLevels          int    `json:"auto_levels"`
	CheapestSim         string `json:"cheapest_sim"`
	AutoMatchesCheapest bool   `json:"auto_matches_cheapest"`
}

// RunHierLevelsCell measures one depth-ablation cell on the DragonflyLike
// hierarchy with the given shape. Simulated times are deterministic, so
// one run per variant suffices.
func RunHierLevelsCell(n int, d float64, P, rpn, npg int, family string, seed int64) HierLevelsRow {
	h := simnet.DragonflyLike(rpn, npg)
	rng := rand.New(rand.NewSource(seed))
	inputs := uniformInputs(rng, n, d, P)
	k := inputs[0].NNZ()
	row := HierLevelsRow{N: n, P: P, RanksPerNode: rpn, NodesPerGroup: npg,
		Density: d, K: k, Family: family}

	scenario := core.CostScenario{N: n, P: P, K: k, Profile: h.Levels[2].Profile, Hier: &h}
	at := func(levels int) core.Algorithm {
		switch {
		case family == "dsar":
			return core.DSARSplitAllgather
		case levels > 1:
			return core.AutoSSARAtDepth(scenario, levels)
		}
		return core.SSARSplitAllgather
	}
	run := func(alg core.Algorithm, levels int) float64 {
		return measure(comm.NewWorldHier(P, h), once(inputs), allreduce(core.Options{Algorithm: alg, Levels: levels})).seconds
	}
	model := func(levels int) float64 {
		sc := scenario
		sc.Levels = levels
		return core.PredictSeconds(at(levels), sc)
	}
	row.FlatSim, row.TwoLevelSim, row.ThreeLevelSim = run(at(0), 0), run(at(2), 2), run(at(3), 3)
	row.FlatModel, row.TwoLevelModel, row.ThreeLevelModel = model(0), model(2), model(3)

	if row.ThreeLevelSim > 0 {
		row.SpeedupOverFlat = row.FlatSim / row.ThreeLevelSim
		row.SpeedupOverTwoLevel = row.TwoLevelSim / row.ThreeLevelSim
	}
	alg, levels, _ := core.ChooseAutoLevels(scenario)
	row.AutoChoice = alg.String()
	row.AutoLevels = levels
	cheapest := row.FlatSim
	switch {
	case row.FlatSim <= row.TwoLevelSim && row.FlatSim <= row.ThreeLevelSim:
		row.CheapestSim = "flat"
	case row.TwoLevelSim <= row.ThreeLevelSim:
		row.CheapestSim, cheapest = "2-level", row.TwoLevelSim
	default:
		row.CheapestSim, cheapest = "3-level", row.ThreeLevelSim
	}
	// Measure Auto's actual pick rather than assuming it is one of the
	// three variants above: Auto may resolve to a different flat algorithm
	// (e.g. rec-double) or cross the delta gate into the other family.
	autoSim := run(alg, levels)
	row.AutoMatchesCheapest = autoSim <= 1.02*cheapest
	return row
}

// HierLevelsSweep runs the default BENCH_4 cells: a latency-bound sparse
// instance (SSAR family) and a dense-regime instance (DSAR family) on
// DragonflyLike(4, 4) machines of 32, 64, and 128 ranks — 2, 4, and 8
// Dragonfly groups.
func HierLevelsSweep() []HierLevelsRow {
	var rows []HierLevelsRow
	for _, P := range []int{32, 64, 128} {
		rows = append(rows, RunHierLevelsCell(1<<20, 1e-4, P, 4, 4, "ssar", 503+int64(P)))
	}
	for _, P := range []int{32, 64, 128} {
		rows = append(rows, RunHierLevelsCell(1<<16, 0.6, P, 4, 4, "dsar", 601+int64(P)))
	}
	return rows
}
