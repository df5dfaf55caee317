package scenario

import (
	"fmt"
	"sort"
)

// This file is the declarative scenario library: every named workload the
// experiments and documents draw from, as plain data. The adaptation
// ablation's gated cells (uniform / clustered / drift-cluster /
// drift-shift) live here so BENCH_8, the replay tooling, and the tests all
// read the one definition; the remaining scenarios cover the support
// shapes the paper's workloads exhibit (multi-modal hot sets, heavy tails,
// per-layer model profiles, ragged rank loads) and the two uniform regimes
// at either end of the δ gate (sparse, dense) that the regret grid judges
// Auto on.

// library is keyed by scenario name. Adding an entry never changes any
// other entry's generated bytes — the PartitionedRNG contract, pinned by
// TestSeedIsolation.
var library = map[string]Scenario{
	// Stationary uniform just under the δ regime gate at P = 32: every
	// arm of the adaptation ablation should behave alike.
	"uniform": {
		Name: "uniform", N: 1 << 18, P: 32, Calls: 24,
		Density: Const(0.03),
	},
	// Stationary clustered past the uniform gate: d = 4% with 90% of the
	// mass in a 5%-wide hot block, so the true union stays around a fifth
	// of the space — squarely sparse although the uniform model routes
	// dense.
	"clustered": {
		Name: "clustered", N: 1 << 18, P: 32, Calls: 24,
		Density: Const(0.04),
		Blocks:  []Block{{Start: 0, Frac: 0.05, Weight: 1}},
		HotMass: Const(0.9),
	},
	// Drifting into clustering: density ramps geometrically 2.5% → 5%
	// across the run while the hot mass ramps to 0.9 over the first
	// twelve calls — the canonical training trajectory (gradients
	// concentrate as the model converges).
	"drift-cluster": {
		Name: "drift-cluster", N: 1 << 18, P: 32, Calls: 36,
		Density: Geom(0.025, 0.05, 0, 35),
		Blocks:  []Block{{Start: 0, Frac: 0.05, Weight: 1}},
		HotMass: Linear(0, 0.9, 0, 12),
	},
	// A regime shift: 24 calls of clustered-sparse gradients, a four-call
	// transition, then de-clustered dense ones (d = 8%, mass ≈ uniform).
	"drift-shift": {
		Name: "drift-shift", N: 1 << 18, P: 32, Calls: 34,
		Density: Linear(0.04, 0.08, 23, 27),
		Blocks:  []Block{{Start: 0, Frac: 0.05, Weight: 1}},
		HotMass: Linear(0.9, 0.05, 23, 27),
	},
	// Multi-modal hot set: three disjoint hot blocks sharing 80% of the
	// mass — the shape PR 5's single-block sketch decomposition must
	// aggregate correctly.
	"multimodal": {
		Name: "multimodal", N: 1 << 16, P: 16, Calls: 8,
		Density: Const(0.02),
		Blocks: []Block{
			{Start: 0.05, Frac: 0.02, Weight: 0.5},
			{Start: 0.40, Frac: 0.03, Weight: 0.3},
			{Start: 0.75, Frac: 0.015, Weight: 0.2},
		},
		HotMass: Const(0.8),
	},
	// Heavy-tailed (Zipf s = 1.4) support — embedding-style gradients
	// where a long tail of coordinates fires rarely but surely.
	"zipf": {
		Name: "zipf", N: 1 << 16, P: 16, Calls: 8,
		Density: Const(0.01),
		ZipfS:   1.4,
	},
	// Ragged rank loads: per-rank k jitters ±50% around the scheduled
	// density, over a mildly clustered support.
	"ragged": {
		Name: "ragged", N: 1 << 16, P: 16, Calls: 8,
		Density: Const(0.02),
		Blocks:  []Block{{Start: 0, Frac: 0.1, Weight: 1}},
		HotMass: Const(0.6),
		Ragged:  0.5,
	},
	// Transformer-style per-layer profile: hot embedding and output
	// layers (tied in real models) around a cooler attention/MLP trunk.
	"transformer": {
		Name: "transformer", N: 1 << 16, P: 8, Calls: 8,
		Density: Const(0.01),
		Layers: []Layer{
			{Name: "embedding", Frac: 0.25, DensityScale: 4,
				Blocks: []Block{{Start: 0, Frac: 0.08, Weight: 1}}},
			{Name: "attention", Frac: 0.35, DensityScale: 0.5},
			{Name: "mlp", Frac: 0.30, DensityScale: 0.5},
			{Name: "output", Frac: 0.10, DensityScale: 4,
				Blocks: []Block{{Start: 0.5, Frac: 0.2, Weight: 1}}},
		},
		HotMass: Const(0.7),
	},
	// LSTM-style per-layer profile: dense input/output projections around
	// a sparse recurrent block.
	"lstm": {
		Name: "lstm", N: 1 << 16, P: 8, Calls: 8,
		Density: Const(0.015),
		Layers: []Layer{
			{Name: "input", Frac: 0.2, DensityScale: 2},
			{Name: "recurrent", Frac: 0.6, DensityScale: 0.4,
				Blocks: []Block{{Start: 0.1, Frac: 0.05, Weight: 0.6}, {Start: 0.6, Frac: 0.05, Weight: 0.4}}},
			{Name: "output", Frac: 0.2, DensityScale: 3},
		},
		HotMass: Const(0.5),
	},
	// Latency-bound uniform gradients: k ≈ 105 non-zeros of 2^20 per
	// rank, a few hundred wire bytes a message, where per-message latency
	// and the hierarchy's cheap inner links decide the algorithm.
	"sparse": {
		Name: "sparse", N: 1 << 20, P: 32, Calls: 8,
		Density: Const(1e-4),
	},
	// Dense-regime uniform gradients: past δ at P ≥ 8 (E[K] ≈ 0.83 N
	// against δ = 2N/3), so the reduced vector densifies and the
	// dense-result family is the one Auto prices.
	"dense": {
		Name: "dense", N: 1 << 16, P: 16, Calls: 8,
		Density: Const(0.2),
	},
}

// Names lists every library scenario in sorted order.
func Names() []string {
	out := make([]string, 0, len(library))
	for name := range library {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Library returns every library scenario in sorted-name order.
func Library() []Scenario {
	names := Names()
	out := make([]Scenario, len(names))
	for i, name := range names {
		out[i] = library[name]
	}
	return out
}

// ByName looks up a library scenario.
func ByName(name string) (Scenario, error) {
	sc, ok := library[name]
	if !ok {
		return Scenario{}, fmt.Errorf("scenario: unknown scenario %q (have %v)", name, Names())
	}
	return sc, nil
}
