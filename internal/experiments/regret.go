package experiments

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// This file holds the regret grid recorded as BENCH_2.json: Auto's choice
// (§5.3's selection guidance, made by the cost model) judged against the
// simulator over the scenario library. A cell is one library scenario's
// first call, drawn at P ranks, on one machine; every candidate Auto could
// run there is simulated and priced, and the cell's regret is how much
// slower Auto's pick simulates than the cheapest candidate. Everything is
// simulated virtual time on seed-isolated streams, so the document is
// reproducible byte for byte and scripts/ci.sh drift-gates it.

// regretKey seeds every regret-grid cell: each scenario's first call is
// drawn at this key.
const regretKey = 1

// RegretRanks are the world sizes every scenario is drawn at, one of them
// not a power of two.
var RegretRanks = []int{8, 16, 31}

// RegretMachine is one machine of the regret grid.
type RegretMachine struct {
	Name string
	Hier simnet.Hierarchy
}

// RegretMachines are the grid's machines: a flat Aries network, 4-rank
// NVLink-like nodes on Aries with the NIC uncapped and capped at one
// concurrent send, and the three-tier DragonflyLike(4, 4).
func RegretMachines() []RegretMachine {
	return []RegretMachine{
		{"flat", simnet.Flat(simnet.Aries)},
		{"two4", simnet.TwoLevel(4, simnet.NVLinkLike, simnet.Aries, 0)},
		{"two4-nic1", simnet.TwoLevel(4, simnet.NVLinkLike, simnet.Aries, 1)},
		{"fly4x4", simnet.DragonflyLike(4, 4)},
	}
}

// RegretCell is one (scenario, machine, P) cell: Auto's pick, the
// cheapest candidate in simulation, and the regret between them.
type RegretCell struct {
	Scenario string `json:"scenario"`
	Machine  string `json:"machine"`
	P        int    `json:"p"`
	N        int    `json:"n"`
	// K is the largest per-rank non-zero count, the k Auto agrees on.
	K int `json:"k"`
	// Pick is the choice ChooseAutoLevels makes on the call's scenario
	// (core.ChoiceName); Cheapest the candidate that simulates fastest,
	// the earliest in candidate order on a tie.
	Pick        string  `json:"pick"`
	Cheapest    string  `json:"cheapest"`
	PickSim     float64 `json:"pick_sim_seconds"`
	CheapestSim float64 `json:"cheapest_sim_seconds"`
	// Regret is PickSim / CheapestSim: 1 when Auto picks the cheapest.
	Regret float64 `json:"regret"`
}

// RegretCandidate is one candidate of one cell, priced and simulated.
type RegretCandidate struct {
	Scenario     string  `json:"scenario"`
	Machine      string  `json:"machine"`
	P            int     `json:"p"`
	Candidate    string  `json:"candidate"`
	ModelSeconds float64 `json:"model_seconds"`
	SimSeconds   float64 `json:"sim_seconds"`
	ModelOverSim float64 `json:"model_over_sim"`
}

// regretAlgorithms are the algorithms the cost model prices, in the order
// they are tried at each depth.
var regretAlgorithms = []core.Algorithm{core.SSARRecDouble, core.SSARSplitAllgather, core.DSARSplitAllgather}

// runRegretCell runs one cell: the scenario's first call, drawn at P ranks
// as inputs, simulated on m for every candidate — each priced algorithm
// flat and at every depth Auto searches there (core.HierExploitable),
// unchunked as Auto runs by default. The candidates are a superset of what
// Auto prices (both families at every depth, both sparse algorithms at a
// depth), so the δ gate and core.AutoSSARAtDepth show up as regret.
func runRegretCell(sc scenario.Scenario, m RegretMachine, inputs []*stream.Vector) (RegretCell, []RegretCandidate) {
	P, k := len(inputs), 0
	for _, v := range inputs {
		k = max(k, v.NNZ())
	}
	w := comm.NewWorldHier(P, m.Hier)
	model := comm.Run(w, func(p *comm.Proc) core.CostScenario {
		return core.ScenarioFor(p, inputs[p.Rank()], core.Options{}, k)
	})[0]
	alg, levels, _ := core.ChooseAutoLevels(model)
	cell := RegretCell{Scenario: sc.Name, Machine: m.Name, P: P, N: sc.N, K: k,
		Pick: core.ChoiceName(alg, levels)}

	// Every candidate runs on the one world, and each rank's pool takes its
	// result back, so the next candidate reuses the storage; simulated
	// times do not depend on it.
	simulate := func(opts core.Options) float64 {
		return measure(w, once(inputs), func(p *comm.Proc, in *stream.Vector) *stream.Vector {
			o := opts
			o.Scratch = p.Pool()
			o.Scratch.Release(core.Allreduce(p, in, o))
			return nil
		}).seconds
	}

	var cands []RegretCandidate
	for levels := 0; levels <= m.Hier.Depth(); levels++ {
		if levels == 1 || levels > 1 && !core.HierExploitable(m.Hier, levels, P) {
			continue
		}
		priced := model
		priced.Levels = levels
		for _, alg := range regretAlgorithms {
			c := RegretCandidate{Scenario: sc.Name, Machine: m.Name, P: P,
				Candidate:    core.ChoiceName(alg, levels),
				ModelSeconds: core.PredictSeconds(alg, priced),
				SimSeconds:   simulate(core.Options{Algorithm: alg, Levels: levels}),
			}
			c.ModelOverSim = c.ModelSeconds / c.SimSeconds
			if cell.Cheapest == "" || c.SimSeconds < cell.CheapestSim {
				cell.Cheapest, cell.CheapestSim = c.Candidate, c.SimSeconds
			}
			if c.Candidate == cell.Pick {
				cell.PickSim = c.SimSeconds
			}
			cands = append(cands, c)
		}
	}
	if cell.PickSim == 0 {
		panic(fmt.Sprintf("experiments: Auto's %s is no candidate of %s on %s at P=%d", cell.Pick, sc.Name, m.Name, P))
	}
	cell.Regret = cell.PickSim / cell.CheapestSim
	return cell, cands
}

// RegretSweep runs the grid: every library scenario × RegretMachines ×
// RegretRanks, one cell row each and one candidate row per candidate. A
// scenario's first call is drawn at regretKey with P overridden, once per
// P: every machine reduces the same inputs.
func RegretSweep() ([]RegretCell, []RegretCandidate) {
	var cells []RegretCell
	var cands []RegretCandidate
	for _, sc := range scenario.Library() {
		draws := make([][]*stream.Vector, len(RegretRanks))
		for i, P := range RegretRanks {
			sc.P = P
			draws[i] = sc.Generator(scenario.NewKey(regretKey)).Next()
		}
		for _, m := range RegretMachines() {
			for _, inputs := range draws {
				cell, cs := runRegretCell(sc, m, inputs)
				cells = append(cells, cell)
				cands = append(cands, cs...)
			}
		}
	}
	return cells, cands
}
