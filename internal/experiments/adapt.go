package experiments

import (
	"math"
	"sync"

	"repro/internal/adapt"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// This file holds the runtime-adaptation ablation recorded as BENCH_8's
// adapt_cells: the same call sequence run with static-uniform Auto (the
// default), static-clustered Auto (Options.Support pinned), and the
// adaptive controller (internal/adapt), on the declarative library cells
// of internal/scenario — among them stationary uniform, stationary
// clustered, and two drifting workloads: one drifting into clustering
// (where the uniform support model flips the δ gate wrongly) and one
// drifting into density under mild clustering (where the clustered model
// with its default shape is the wrong one). Those four run 32 ranks at
// N = 2^18 with densities around the δ regime gate, where the support
// model actually flips decisions: at P = 32 the uniform worst case routes
// to the dense-result family from d ≈ 3.4%, while a 5%-wide hot block
// holding ~90% of the mass keeps the true union around a fifth of the
// space — where the sparse-result family simulates ~20% faster than the
// dense one the uniform model picks. Every metric is simulated
// virtual time on seed-isolated inputs, so the rows are reproducible
// byte-for-byte and scripts/ci.sh drift-gates them with the rest of
// BENCH_8. Any cell can be recorded to a trace (scenario.Record) and
// re-run byte-identically from the file (cmd/sparreplay).

// AdaptRow is one workload cell of the adaptation ablation.
type AdaptRow struct {
	Workload     string `json:"workload"`
	N            int    `json:"n"`
	P            int    `json:"p"`
	RanksPerNode int    `json:"ranks_per_node"`
	NICSerial    int    `json:"nic_serial"`
	Calls        int    `json:"calls"`
	// KStart and KEnd are the per-rank non-zero counts of the first and
	// last call (equal on stationary workloads).
	KStart int `json:"k_start"`
	KEnd   int `json:"k_end"`
	// Simulated total time of the whole call sequence per arm.
	StaticUniformSim   float64 `json:"static_uniform_sim_seconds"`
	StaticClusteredSim float64 `json:"static_clustered_sim_seconds"`
	AdaptiveSim        float64 `json:"adaptive_sim_seconds"`
	// AdaptiveVsUniform is StaticUniformSim/AdaptiveSim (the acceptance
	// headline: > 1 means adaptive beats the default static Auto);
	// AdaptiveVsBestStatic compares against the better static arm.
	AdaptiveVsUniform    float64 `json:"adaptive_vs_uniform"`
	AdaptiveVsBestStatic float64 `json:"adaptive_vs_best_static"`
	// AdaptiveSwitches counts post-adoption algorithm/depth switches
	// (bounded by hysteresis); AdaptiveClusteredCalls counts decided calls
	// that selected the clustered support model; FinalChoice is the
	// algorithm (and depth, when hierarchical) the controller ended on.
	AdaptiveSwitches       int    `json:"adaptive_switches"`
	AdaptiveClusteredCalls int    `json:"adaptive_clustered_calls"`
	FinalChoice            string `json:"final_choice"`
}

// RunAdaptCell measures one cell: the trace's schedule run under the three
// arms on identical fresh worlds (simulated times are deterministic, so one
// run per arm suffices). A live run passes scenario.Record(sc, key); a
// replay passes the trace read back from a file — the codec reconstructs
// every input vector field-exact, so both yield the identical row. With
// observe set, the adaptive arm's world gets an obs hub (returned; nil
// otherwise) carrying per-rank send and collective-phase spans plus the
// adapt decision instants, ready for WriteChrome/WriteMetrics. The hooks
// only read the virtual clocks and the static arms stay uninstrumented, so
// the row is identical either way and a replay's exported timeline matches
// the live run's byte for byte.
func RunAdaptCell(rpn, nic int, tr *scenario.Trace, observe bool) (AdaptRow, *obs.Obs) {
	n, P, sched := tr.N, tr.P, tr.Steps
	machine := simnet.TwoLevel(rpn, simnet.NVLinkLike, simnet.Aries, nic)
	row := AdaptRow{
		Workload: tr.Name, N: n, P: P, RanksPerNode: rpn, NICSerial: nic,
		Calls: len(sched), KStart: sched[0][0].NNZ(), KEnd: sched[len(sched)-1][0].NNZ(),
	}

	row.StaticUniformSim = measure(comm.NewWorldHier(P, machine), sched, allreduce(core.Options{})).seconds
	row.StaticClusteredSim = measure(comm.NewWorldHier(P, machine), sched, allreduce(core.Options{Support: core.SupportClustered})).seconds

	w := comm.NewWorldHier(P, machine)
	var hub *obs.Obs
	if observe {
		hub = w.EnableObservability()
	}
	ctrls := make([]*adapt.Controller, P)
	for r := range ctrls {
		ctrls[r] = adapt.NewController(adapt.Config{})
	}
	adapt.Calibrate(w, ctrls)
	row.AdaptiveSim = measure(w, sched, func(p *comm.Proc, in *stream.Vector) *stream.Vector {
		return ctrls[p.Rank()].Allreduce(p, in, core.Options{})
	}).seconds
	row.AdaptiveSwitches = ctrls[0].Switches()
	row.AdaptiveClusteredCalls = ctrls[0].ClusteredCalls()
	row.FinalChoice = core.ChoiceName(ctrls[0].Choice())

	if row.AdaptiveSim > 0 {
		row.AdaptiveVsUniform = row.StaticUniformSim / row.AdaptiveSim
		row.AdaptiveVsBestStatic = math.Min(row.StaticUniformSim, row.StaticClusteredSim) / row.AdaptiveSim
	}
	return row, hub
}

// AdaptSeed keys every library cell; cmd/sparreplay records its traces
// under the same key so a recorded cell replays the committed rows exactly.
const AdaptSeed = 701

// libraryCell is one library scenario's adaptation cell: its row and its
// adaptive arm's "adapt:decision" instants.
type libraryCell struct {
	row       AdaptRow
	decisions []obs.Span
}

// libraryCells runs each library scenario once per process, observed, on
// a 4-ranks-per-node machine with NIC serial 1 under the AdaptSeed key.
// The shape and key are constants, so the name alone keys the cell, and
// parallel sweeps and tests share one run.
var libraryCells = func() map[string]func() libraryCell {
	cells := map[string]func() libraryCell{}
	for _, name := range scenario.Names() {
		cells[name] = sync.OnceValue(func() libraryCell {
			sc, _ := scenario.ByName(name)
			row, hub := RunAdaptCell(4, 1, scenario.Record(sc, scenario.NewKey(AdaptSeed)), true)
			cell := libraryCell{row: row}
			for _, s := range hub.Spans() {
				if s.Name == "adapt:decision" {
					cell.decisions = append(cell.decisions, s)
				}
			}
			return cell
		})
	}
	return cells
}()
