package experiments

import (
	"math/rand"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/simnet"
)

// The hierarchical micro-benchmark measures the flat-vs-hierarchical
// crossover the paper's flat α–β analysis cannot see: the same sparse
// allreduce instance run once with flat SSAR_Split_allgather on a world
// priced entirely by the inter-node profile, and once at the full depth of
// a two-level topology (cheap intra-node links, same inter-node network).
// The flat latency term (P−1)·α shrinks to (P/r−1)·α, so the hierarchical
// scheme wins in the latency-bound regime and converges to flat as the
// data grows bandwidth-bound.

// HierRow is one flat-vs-hierarchical measurement cell.
type HierRow struct {
	N            int     `json:"n"`
	P            int     `json:"p"`
	RanksPerNode int     `json:"ranks_per_node"`
	Density      float64 `json:"density"`
	// FlatMedian and HierMedian are simulated allreduce times in seconds.
	FlatMedian float64 `json:"flat_median_seconds"`
	HierMedian float64 `json:"hier_median_seconds"`
	// Speedup is FlatMedian / HierMedian.
	Speedup float64 `json:"speedup"`
	// FlatMsgs and HierMsgs are total message counts for one allreduce.
	FlatMsgs int64 `json:"flat_msgs"`
	HierMsgs int64 `json:"hier_msgs"`
}

// arm is one side of an A/B cell: the options it runs and the fresh world
// it runs on.
type arm struct {
	opts  core.Options
	world func(P int) *comm.World
}

// hierArms returns the two arms of a flat-vs-hierarchical cell on the
// two-level machine. Sparse regime: flat SSAR_Split_allgather on a world
// priced entirely by the inter-node profile versus the same algorithm at
// the machine's full depth. Dense regime: DSAR flat versus at full depth,
// both on the NIC-capped machine, so the question is purely algorithmic —
// does one leader flow per node beat P concurrent flows through capped
// NICs.
func hierArms(machine simnet.Hierarchy, dense bool) (flat, hier arm) {
	onMachine := func(P int) *comm.World { return comm.NewWorldHier(P, machine) }
	if dense {
		return arm{core.Options{Algorithm: core.DSARSplitAllgather}, onMachine},
			arm{core.Options{Algorithm: core.DSARSplitAllgather, Levels: core.AllLevels}, onMachine}
	}
	onInter := func(P int) *comm.World { return comm.NewWorld(P, machine.Levels[1].Profile) }
	return arm{core.Options{Algorithm: core.SSARSplitAllgather}, onInter},
		arm{core.Options{Algorithm: core.SSARSplitAllgather, Levels: core.AllLevels}, onMachine}
}

// runABCell measures the two arms on the same seeded inputs: gens data
// generations, runs repetitions each, medians of the simulated times.
func runABCell(n int, density float64, P, rpn int, flat, hier arm, gens, runs int, seed int64) HierRow {
	row := HierRow{N: n, P: P, RanksPerNode: rpn, Density: density}
	var flatT, hierT report.Sample
	for g := 0; g < gens; g++ {
		rng := rand.New(rand.NewSource(seed + int64(g)*6151))
		sched := once(uniformInputs(rng, n, density, P))
		for r := 0; r < runs; r++ {
			f := measure(flat.world(P), sched, allreduce(flat.opts))
			h := measure(hier.world(P), sched, allreduce(hier.opts))
			flatT.Add(f.seconds)
			hierT.Add(h.seconds)
			row.FlatMsgs, row.HierMsgs = f.msgs, h.msgs
		}
	}
	row.FlatMedian = flatT.Median()
	row.HierMedian = hierT.Median()
	if row.HierMedian > 0 {
		row.Speedup = row.FlatMedian / row.HierMedian
	}
	return row
}

// HierNodeSweep measures the flat-vs-hierarchical comparison (hierArms)
// across total rank counts at fixed topology and density (the acceptance
// scenario P=32, 4 ranks/node, NVLink-like intra + Aries inter is one cell
// of the default sparse sweep). Single-node shapes (P ≤ ranks per node)
// are skipped: there the "hierarchical" run degrades to the flat algorithm
// with every link intra-priced, so its speedup would measure the profile
// price ratio, not the algorithm.
func HierNodeSweep(n int, density float64, ranks []int, machine simnet.Hierarchy, dense bool, gens, runs int) []HierRow {
	flat, hier := hierArms(machine, dense)
	rpn := machine.Span(0)
	var rows []HierRow
	for _, P := range ranks {
		if P <= rpn {
			continue
		}
		rows = append(rows, runABCell(n, density, P, rpn, flat, hier, gens, runs, int64(P)*7529))
	}
	return rows
}
