package experiments

import (
	"math/rand"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/density"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// This file holds the contention-model experiment introduced with the
// per-node NIC serialization cap (simnet.TwoLevel's nicSerial): the
// cost-model validation sweep recorded as BENCH_2.json — for each cell it
// measures every Auto candidate, prices it with the analytic model, and
// compares the cost-model choice against both the empirically cheapest
// algorithm and the PR-1 topology-presence heuristic it replaced.

// AlgCost is one algorithm's modeled and measured cost in a contention
// sweep cell (both in simulated seconds).
type AlgCost struct {
	Algorithm    string  `json:"algorithm"`
	ModelSeconds float64 `json:"model_seconds"`
	SimSeconds   float64 `json:"sim_seconds"`
}

// ContentionRow is one contention-sweep cell: a fixed allreduce instance
// on a two-level topology, measured and modeled for every Auto candidate.
type ContentionRow struct {
	N            int       `json:"n"`
	P            int       `json:"p"`
	RanksPerNode int       `json:"ranks_per_node"`
	NICSerial    int       `json:"nic_serial"`
	Density      float64   `json:"density"`
	K            int       `json:"k_per_rank"`
	Costs        []AlgCost `json:"costs"`
	// AutoChoice is what the cost-model Auto resolves to; OldChoice is
	// what the replaced topology-presence heuristic would have picked;
	// CheapestSim is the empirically cheapest candidate in simulation.
	AutoChoice  string `json:"auto_choice"`
	OldChoice   string `json:"old_heuristic_choice"`
	CheapestSim string `json:"cheapest_sim"`
	// AutoMatchesCheapest and OldMatchesCheapest summarize the comparison;
	// a cell with the first true and the second false demonstrates a
	// scenario the old heuristic got wrong and the cost model gets right.
	AutoMatchesCheapest bool `json:"auto_matches_cheapest"`
	OldMatchesCheapest  bool `json:"old_matches_cheapest"`
}

// choice is one Auto candidate: an algorithm and the depth it runs at.
type choice struct {
	alg    core.Algorithm
	levels int
}

func (c choice) String() string { return core.ChoiceName(c.alg, c.levels) }

// contentionCandidates are what Auto prices on a cell's two-level
// machine, in both families: each algorithm flat, DSAR at depth 2, and the
// one sparse algorithm Auto prices at depth 2 (core.AutoSSARAtDepth).
func contentionCandidates(s core.CostScenario) []choice {
	return []choice{
		{core.SSARRecDouble, 0}, {core.SSARSplitAllgather, 0}, {core.DSARSplitAllgather, 0},
		{core.AutoSSARAtDepth(s, 2), 2}, {core.DSARSplitAllgather, 2},
	}
}

// oldSmallDataBytes is the old rule's small/large message boundary,
// mirroring MPI's long-message switch (Thakur & Gropp use 64 KiB⋅class
// thresholds).
const oldSmallDataBytes = 64 << 10

// oldHeuristicChoice reproduces the PR-1 Auto rule the cost model
// replaced: δ gate to flat DSAR; otherwise depth 2 whenever a multi-node
// topology exists, and flat when none does. The oldSmallDataBytes
// wire-size threshold then picks recursive doubling or split allgather for
// the phase among the top participants, applied to what each enters with:
// k when flat, and at depth 2 the leaders' accumulation, the union of rpn
// inputs. The old rule measured that union at run time; this reproduction
// takes its uniform-support expectation.
func oldHeuristicChoice(n, k, P, rpn int) choice {
	delta := stream.Delta(n, stream.DefaultValueBytes)
	if density.ExpectedKUniform(n, k, P) >= float64(delta) {
		return choice{core.DSARSplitAllgather, 0}
	}
	c, kTop := choice{core.SSARSplitAllgather, 0}, float64(k)
	if rpn > 1 && rpn < P {
		c.levels, kTop = 2, density.ExpectedKUniform(n, k, rpn)
	}
	if stream.HeaderBytes+int(kTop)*(stream.IndexBytes+stream.DefaultValueBytes) <= oldSmallDataBytes {
		c.alg = core.SSARRecDouble
	}
	return c
}

// RunContentionCell measures one contention cell: every Auto candidate on
// the same inputs over TwoLevel(rpn, intra, inter, nic), plus the modeled
// cost of each. Simulated times are deterministic, so one run per
// algorithm suffices.
func RunContentionCell(n int, d float64, P, rpn, nic int, intra, inter simnet.Profile, seed int64) ContentionRow {
	machine := simnet.TwoLevel(rpn, intra, inter, nic)
	rng := rand.New(rand.NewSource(seed))
	inputs := uniformInputs(rng, n, d, P)
	k := inputs[0].NNZ()
	row := ContentionRow{N: n, P: P, RanksPerNode: rpn, NICSerial: nic, Density: d, K: k}

	scenario := core.CostScenario{N: n, P: P, K: k, Profile: inter, Hier: &machine}
	alg, levels, _ := core.ChooseAutoLevels(scenario)
	row.AutoChoice = core.ChoiceName(alg, levels)
	cheapest, cheapestT := "", 0.0
	for _, c := range contentionCandidates(scenario) {
		sim := measure(comm.NewWorldHier(P, machine), once(inputs), allreduce(core.Options{Algorithm: c.alg, Levels: c.levels})).seconds
		priced := scenario
		priced.Levels = c.levels
		row.Costs = append(row.Costs, AlgCost{
			Algorithm:    c.String(),
			ModelSeconds: core.PredictSeconds(c.alg, priced),
			SimSeconds:   sim,
		})
		if cheapest == "" || sim < cheapestT {
			cheapest, cheapestT = c.String(), sim
		}
	}
	row.OldChoice = oldHeuristicChoice(n, k, P, rpn).String()
	row.CheapestSim = cheapest
	row.AutoMatchesCheapest = row.AutoChoice == cheapest
	row.OldMatchesCheapest = row.OldChoice == cheapest
	return row
}

// ContentionSweep runs the default contention-model validation cells: a
// latency-bound sparse instance and a dense-regime instance, each with the
// NIC cap off and fully serialized. The sparse/uncapped and dense/capped
// cells are the two where the old topology-presence heuristic picks a
// demonstrably non-cheapest algorithm.
func ContentionSweep(intra, inter simnet.Profile) []ContentionRow {
	var rows []ContentionRow
	cells := []struct {
		n    int
		d    float64
		P    int
		rpn  int
		nic  int
		seed int64
	}{
		{1 << 20, 1e-4, 32, 4, 0, 101},
		{1 << 20, 1e-4, 32, 4, 1, 103},
		{1 << 16, 0.6, 16, 4, 0, 107},
		{1 << 16, 0.6, 16, 4, 1, 109},
	}
	for _, c := range cells {
		rows = append(rows, RunContentionCell(c.n, c.d, c.P, c.rpn, c.nic, intra, inter, c.seed))
	}
	return rows
}
