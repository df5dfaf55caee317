// Package experiments contains the runners that regenerate every table and
// figure of the paper's evaluation (§8). Each runner returns structured
// rows; the sweep registry (registry.go) names the ones cmd/sparbench
// renders and scripts/ci.sh records as BENCH documents, and the root
// benchmark harness wraps them in testing.B targets.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// Fig3Algorithms are the six algorithms compared in the Figure 3
// micro-benchmarks.
var Fig3Algorithms = []core.Algorithm{
	core.SSARRecDouble,
	core.SSARSplitAllgather,
	core.DSARSplitAllgather,
	core.DenseRabenseifner,
	core.DenseRing,
	core.RingSparse,
}

// MicrobenchConfig parameterizes one micro-benchmark cell: a sparse
// allreduce of dimension N at per-node density d across P nodes.
type MicrobenchConfig struct {
	// N is the vector dimension (the paper uses 16M; default sweeps use
	// 2^20 to keep memory modest — shapes are unchanged).
	N int
	// Density is the per-node non-zero fraction.
	Density float64
	// P is the node count.
	P int
	// Profile is the simulated network.
	Profile simnet.Profile
	// Gens × Runs repeated measurements (the paper uses 5×10).
	Gens, Runs int
	// Seed drives data generation.
	Seed int64
}

// MicrobenchRow is one (algorithm, configuration) measurement.
type MicrobenchRow struct {
	Algorithm string  `json:"algorithm"`
	N         int     `json:"n"`
	P         int     `json:"p"`
	Density   float64 `json:"density"`
	// Median, Q25, Q75 are simulated reduction times in seconds.
	Median float64 `json:"median_seconds"`
	Q25    float64 `json:"q25_seconds"`
	Q75    float64 `json:"q75_seconds"`
	// ResultNNZ is the reduced result's non-zero count (fill-in).
	ResultNNZ int `json:"result_nnz"`
	// ResultDense reports whether the result ended in dense representation.
	ResultDense bool `json:"result_dense"`
}

// step is what one rank does with its input at one schedule entry; it
// returns the reduced vector when it yields exactly one.
type step = func(*comm.Proc, *stream.Vector) *stream.Vector

// measured is what one arm of a cell yields: the completion time on the
// world's clock (simulated seconds, or wall seconds on a real transport),
// the messages sent, and rank 0's last result.
type measured struct {
	seconds float64
	msgs    int64
	result  *stream.Vector
}

// measure executes sched on w: at every step, rank r passes its own input
// to s. Every arm of every sweep is one call of it on a fresh world.
func measure(w *comm.World, sched [][]*stream.Vector, s step) measured {
	results := comm.Run(w, func(p *comm.Proc) (out *stream.Vector) {
		for _, inputs := range sched {
			out = s(p, inputs[p.Rank()])
		}
		return out
	})
	return measured{w.MaxTime(), w.TotalMessages(), results[0]}
}

// allreduce is the step of a blocking allreduce under opts.
func allreduce(opts core.Options) step {
	return func(p *comm.Proc, in *stream.Vector) *stream.Vector { return core.Allreduce(p, in, opts) }
}

// once wraps one call's inputs as a single-step schedule.
func once(inputs []*stream.Vector) [][]*stream.Vector { return [][]*stream.Vector{inputs} }

// uniformInputs draws k = d·N indices uniformly at random per node with
// random values, the §8.1 synthetic workload. Only the hier and hierdsar
// sweeps still draw from this frozen sampler, so their pinned outputs
// (experiments/sweep/hier, .../hierdsar) do not move when scenarios
// evolve. New workloads belong in internal/scenario.
func uniformInputs(rng *rand.Rand, n int, density float64, P int) []*stream.Vector {
	k := int(density * float64(n))
	if k < 1 {
		k = 1
	}
	out := make([]*stream.Vector, P)
	for r := range out {
		idx := sampleDistinct(rng, n, k)
		val := make([]float64, k)
		for i := range val {
			val[i] = rng.NormFloat64()
		}
		out[r] = stream.NewSparse(n, idx, val, stream.OpSum)
	}
	return out
}

// sampleDistinct draws k distinct indices from [0, n) by rejection
// sampling, in draw order (stream.NewSparse sorts them). Part of the frozen
// stream: the cost grows as k approaches n, which the hierdsar sweep's default
// d = 0.6 tolerates.
func sampleDistinct(rng *rand.Rand, n, k int) []int32 {
	if k > n {
		k = n
	}
	seen := make(map[int32]struct{}, k)
	out := make([]int32, 0, k)
	for len(out) < k {
		ix := int32(rng.Intn(n))
		if _, dup := seen[ix]; dup {
			continue
		}
		seen[ix] = struct{}{}
		out = append(out, ix)
	}
	return out
}

// microbenchInputs draws generation gen of a micro-benchmark cell from the
// scenario generator: uniform supports, normal values.
func microbenchInputs(cfg MicrobenchConfig, gen int) []*stream.Vector {
	sc := scenario.Scenario{
		Name: "microbench", N: cfg.N, P: cfg.P, Calls: 1,
		Density: scenario.Const(cfg.Density),
		Values:  scenario.ValuesNormal,
	}
	return sc.Generator(scenario.NewKey(cfg.Seed + int64(gen)*7907)).Next()
}

// RunMicrobench measures one configuration for one algorithm.
func RunMicrobench(cfg MicrobenchConfig, alg core.Algorithm) MicrobenchRow {
	var sample report.Sample
	row := MicrobenchRow{Algorithm: alg.String(), N: cfg.N, P: cfg.P, Density: cfg.Density}
	for g := 0; g < cfg.Gens; g++ {
		inputs := microbenchInputs(cfg, g)
		for r := 0; r < cfg.Runs; r++ {
			m := measure(comm.NewWorld(cfg.P, cfg.Profile), once(inputs), allreduce(core.Options{Algorithm: alg}))
			sample.Add(m.seconds)
			row.ResultNNZ = m.result.NNZ()
			row.ResultDense = m.result.IsDense()
		}
	}
	row.Median = sample.Median()
	row.Q25, row.Q75 = sample.IQR()
	return row
}

// DumpTrace runs one recursive-doubling sparse allreduce of the cell on an
// observed world and prints the virtual-time message timeline from its obs
// send spans (the Figure 2 schedule, observable directly): one line per
// send, ordered by send time, then the per-round message and byte totals.
func DumpTrace(w io.Writer, cfg MicrobenchConfig) {
	world := comm.NewWorld(cfg.P, cfg.Profile)
	hub := world.EnableObservability()
	measure(world, once(microbenchInputs(cfg, 0)), allreduce(core.Options{Algorithm: core.SSARRecDouble}))
	fmt.Fprintf(w, "# SSAR_Recursive_double message timeline: N=%d d=%.4f%% P=%d profile=%s\n",
		cfg.N, cfg.Density*100, cfg.P, cfg.Profile.Name)
	var sends []obs.Span
	for _, s := range hub.Spans() {
		if s.Lane == obs.LaneNet {
			sends = append(sends, s)
		}
	}
	// Spans come rank by rank; the stable sort keeps rank order on ties.
	sort.SliceStable(sends, func(i, j int) bool { return sends[i].Start < sends[j].Start })
	// Rounds group sends by distinct send time: the simulator's
	// synchronous stages start every message of a round at one instant.
	var counts []int
	var bytes []int64
	for i, s := range sends {
		fmt.Fprintf(w, "%12.3fµs  %2d → %2s  tag=%-8s %8sB  lvl=%s arrives %12.3fµs\n",
			s.Start*1e6, s.Rank, s.Attr("dst"), s.Attr("tag"), s.Attr("bytes"),
			s.Attr("level"), s.End*1e6)
		if i == 0 || s.Start != sends[i-1].Start {
			counts, bytes = append(counts, 0), append(bytes, 0)
		}
		b, _ := strconv.ParseInt(s.Attr("bytes"), 10, 64)
		counts[len(counts)-1]++
		bytes[len(bytes)-1] += b
	}
	fmt.Fprintf(w, "\n# rounds: %d; per-round messages %v\n", len(counts), counts)
	fmt.Fprintf(w, "# per-round bytes %v (geometric growth under low overlap)\n", bytes)
}

// Fig3NodeSweep reproduces the left panel of Figure 3: reduction time
// versus node count at fixed density (paper: Piz Daint, N=16M, d=0.781%).
func Fig3NodeSweep(n int, density float64, nodes []int, profile simnet.Profile, gens, runs int) []MicrobenchRow {
	var rows []MicrobenchRow
	for _, P := range nodes {
		for _, alg := range Fig3Algorithms {
			rows = append(rows, RunMicrobench(MicrobenchConfig{
				N: n, Density: density, P: P, Profile: profile,
				Gens: gens, Runs: runs, Seed: int64(P) * 104729,
			}, alg))
		}
	}
	return rows
}

// Fig3DensitySweep reproduces the right panel of Figure 3: reduction time
// versus per-node density at fixed node count (paper: Greina GigE, N=16M,
// P=8).
func Fig3DensitySweep(n, P int, densities []float64, profile simnet.Profile, gens, runs int) []MicrobenchRow {
	var rows []MicrobenchRow
	for _, d := range densities {
		for _, alg := range Fig3Algorithms {
			rows = append(rows, RunMicrobench(MicrobenchConfig{
				N: n, Density: d, P: P, Profile: profile,
				Gens: gens, Runs: runs, Seed: int64(d*1e6) + 17,
			}, alg))
		}
	}
	return rows
}
