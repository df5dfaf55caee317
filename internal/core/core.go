// Package core implements the paper's primary contribution: sparse
// collective communication algorithms over sparse streams (§5.3).
//
// Three sparse allreduce algorithms are provided, matching the paper:
//
//   - SSAR_Recursive_double — recursive doubling over sparse streams, best
//     when the reduced data is small and latency dominates (§5.3.1).
//   - SSAR_Split_allgather — a split (reduce-scatter by dimension
//     partition) phase followed by a sparse concatenating allgather, best
//     for large data whose result stays sparse (§5.3.2).
//   - DSAR_Split_allgather — the dynamic variant: the split phase stays
//     sparse, then each partition switches to a dense representation
//     (optionally QSGD-quantized, §6) for a dense allgather (§5.3.3).
//
// Dense baselines (recursive doubling, Rabenseifner, ring) and sparse/dense
// allgathers are included, as are nonblocking variants of everything, and
// an Auto mode implementing the paper's selection guidance. Every
// algorithm also runs at any depth of a machine hierarchy (Options.Levels):
// up sweeps to group leaders, the algorithm itself among the leaders, and
// down sweeps back (hierarchical.go).
package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/quant"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// Algorithm selects the allreduce implementation.
type Algorithm int

const (
	// Auto picks an algorithm by modeled cost: the paper's δ gate first
	// fixes the result representation (expected fill-in E[K] ≥ δ routes to
	// the dense-result DSAR family, which also honors quantization; below
	// δ to the sparse-result SSAR family), then the family's algorithms —
	// flat and, on multi-level worlds, at every exploitable depth — are
	// priced by the α–β(+NIC contention) cost model (see CostScenario and
	// PredictSeconds) and the cheapest wins. Every rank first agrees on
	// the maximum per-rank non-zero count, so all ranks pick the same
	// algorithm and depth.
	Auto Algorithm = iota
	// SSARRecDouble is static sparse allreduce by recursive doubling.
	SSARRecDouble
	// SSARSplitAllgather is static sparse allreduce by dimension split +
	// sparse allgather.
	SSARSplitAllgather
	// DSARSplitAllgather is dynamic sparse allreduce: sparse split phase,
	// dense (optionally quantized) allgather phase.
	DSARSplitAllgather
	// DenseRecDouble is the dense recursive-doubling baseline.
	DenseRecDouble
	// DenseRabenseifner is the dense reduce-scatter + allgather baseline
	// used by MPI libraries for large messages.
	DenseRabenseifner
	// DenseRing is the ring allreduce baseline.
	DenseRing
	// RingSparse is the sparse counterpart of the ring allreduce shown in
	// the Figure 3 micro-benchmarks.
	RingSparse
)

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case Auto:
		return "Auto"
	case SSARRecDouble:
		return "SSAR_Recursive_double"
	case SSARSplitAllgather:
		return "SSAR_Split_allgather"
	case DSARSplitAllgather:
		return "DSAR_Split_allgather"
	case DenseRecDouble:
		return "Dense_Recursive_double"
	case DenseRabenseifner:
		return "Dense_Rabenseifner"
	case DenseRing:
		return "Dense_Ring"
	case RingSparse:
		return "Ring_sparse"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Options configures an allreduce.
type Options struct {
	// Algorithm selects the implementation; Auto applies the paper's
	// selection heuristic.
	Algorithm Algorithm
	// Quant, when non-nil, enables QSGD quantization of the dense allgather
	// stage of DSARSplitAllgather, at any depth ("we employ the low-precision
	// data representation only in the second part of the DSAR Split
	// allgather algorithm", §6). Ignored by other algorithms.
	Quant *quant.Config
	// Seed drives the stochastic quantization; combined with the rank that
	// owns each partition so encodings are deterministic yet independent.
	Seed int64
	// Levels is the machine-hierarchy depth a pinned algorithm runs at. 0
	// (the default) and 1 run it flat over the whole world; d >= 2 runs the
	// up sweeps over levels 0..d-2, the algorithm itself among the
	// level-(d-2) leaders, and the down sweeps (hierarchical.go). d is
	// capped at the world's depth (AllLevels asks for the full hierarchy),
	// and a depth with nothing to exploit runs flat. Under Auto, Levels
	// caps the depths the cost model searches instead (0: every depth), and
	// the depth it picks is what runs (ChooseAutoLevels).
	Levels int
	// Chunks selects the pipelining degree of the split-phase algorithms
	// (SSARSplitAllgather and DSARSplitAllgather, at any depth): the
	// dimension partitions are subdivided into C key-range chunks whose
	// sends and merges overlap stage-pipeline style (see splitPhase).
	// Values ≤ 1 (including the zero default) run the one-chunk schedule,
	// its send and merge loops in line; C ≥ 2 pipelines them
	// (value-identical results, chunk-partitioned message schedule).
	// AutoChunks asks the cost model to pick the chunk count (alongside
	// algorithm and depth when Algorithm is Auto). The executed count is
	// clamped by clampChunks — per-rank partitions must stay subdividable
	// and the tag budget bounded — identically on every rank. Algorithms
	// without a split phase ignore it.
	Chunks int
	// Support selects the index-distribution assumption Auto's cost model
	// uses for the fill-in expectation E[K] (see CostScenario.Support for
	// the estimators' validity ranges). The default SupportUniform is the
	// paper's worst case; SupportClustered prices blocked hot-set supports.
	// The runtime adaptation layer (internal/adapt) sets this per call from
	// the observed input shape; setting it statically pins the assumption,
	// which is how the adaptation ablation's static-clustered arm is built.
	Support SupportModel
	// HotFraction and HotMass parameterize SupportClustered, exactly as in
	// CostScenario; zero values take the defaults. Ignored under
	// SupportUniform.
	HotFraction, HotMass float64
	// Scratch, when non-nil, supplies the reusable buffer pool the
	// collectives draw merge/densify storage from and recycle received
	// streams into, making steady-state allreduce calls nearly
	// allocation-free. A Scratch belongs to ONE rank: never share one
	// across ranks or across concurrently running collectives (overlapping
	// IAllreduce calls must use distinct pools, and BucketScheduler.Issue
	// strips pools its buckets would share). Results are borrowed:
	// a vector returned by a collective is safe to keep — no collective
	// ever recycles it — and a caller that is done with it may hand it
	// back with Scratch.Release, after which a later call builds its
	// result in that storage instead of allocating one.
	Scratch *stream.Scratch
}

// AllLevels, assigned to Options.Levels, runs a pinned algorithm at the
// world's full hierarchy depth: any value at or past the depth does, and
// no machine is deeper than simnet.MaxLevels.
const AllLevels = simnet.MaxLevels

// ChoiceName names a resolved allreduce: the algorithm's paper name,
// suffixed "@d" when it runs at hierarchy depth d >= 2.
func ChoiceName(alg Algorithm, levels int) string {
	if levels < 2 {
		return alg.String()
	}
	return fmt.Sprintf("%s@%d", alg, levels)
}

// AutoChunks, assigned to Options.Chunks (or CostScenario.Chunks), asks
// the cost model to pick the split-phase pipelining degree: ChooseChunks
// prices the candidate chunk counts (1, 2, 4, 8) with the pipelined cost
// model and the cheapest wins. The decision is replica-consistent — it
// depends only on the globally agreed scenario — so all ranks run the same
// chunked schedule.
const AutoChunks = -1

// maxChunks bounds the executed pipelining degree: past a few chunks the
// per-chunk messages only add header and latency overhead, and the chunk
// tags (C per source rank) must fit every tag budget, including the
// hierarchical leader phase's 2^16-wide range.
const maxChunks = 64

// clampChunks bounds a requested chunk count for execution over [0, n)
// split across P ranks: values ≤ 1 (and the AutoChunks sentinel, which
// resolve translates before execution) mean one chunk, and a pipelined
// count is capped at maxChunks and at ⌊n/P⌋ so every rank's partition
// subdivides into non-empty chunks. The result depends only on globally
// agreed quantities, so every rank clamps identically.
func clampChunks(c, n, P int) int {
	if c < 2 {
		return 1
	}
	if c > maxChunks {
		c = maxChunks
	}
	if per := n / P; c > per {
		c = per
	}
	if c < 2 {
		return 1
	}
	return c
}

// Allreduce performs a sparse allreduce of v across all ranks and returns
// the reduced vector (every rank returns an equal vector). v is not
// modified. The reduction operation is v.Op().
func Allreduce(p *comm.Proc, v *stream.Vector, opts Options) *stream.Vector {
	base := p.NextTagBase()
	return allreduceTagged(p, v, opts, base)
}

func allreduceTagged(p *comm.Proc, v *stream.Vector, opts Options, base int) *stream.Vector {
	opts.Algorithm, opts.Levels, opts.Chunks = resolve(p, v, opts, base)
	return hierAllreduce(p, v, opts, base)
}

// allreduceFlat runs the resolved algorithm over every rank of p's
// communicator: the whole world at depth 1, the leaders' top phase
// otherwise.
func allreduceFlat(p *comm.Proc, v *stream.Vector, opts Options, base int) *stream.Vector {
	switch opts.Algorithm {
	case SSARRecDouble:
		return ssarRecDouble(p, v, opts.Scratch, base)
	case SSARSplitAllgather:
		return ssarSplitAllgather(p, v, opts.Scratch, base, opts.Chunks)
	case DSARSplitAllgather:
		return dsarSplitAllgather(p, v, opts, base)
	case DenseRecDouble:
		return stream.NewDense(AllreduceDenseRecDouble(p, v.ToDense(), v.Op(), v.ValueBytes(), base), v.Op())
	case DenseRabenseifner:
		return stream.NewDense(AllreduceRabenseifner(p, v.ToDense(), v.Op(), v.ValueBytes(), base), v.Op())
	case DenseRing:
		return stream.NewDense(AllreduceRing(p, v.ToDense(), v.Op(), v.ValueBytes(), base), v.Op())
	case RingSparse:
		return ringSparse(p, v, opts.Scratch, base)
	default:
		panic("core: unresolved algorithm")
	}
}

// resolve maps Auto to a concrete algorithm, hierarchy depth, and chunk
// count (§5.3: "In practice, allreduce implementations switch between
// different implementations depending on the message size and the number
// of processes").
//
// Per-rank non-zero counts may differ, but every rank must run the *same*
// algorithm, so Auto first agrees on the maximum k with a tiny
// max-allreduce (one 8-byte word, log2(P) rounds) — the k = maxᵢ|Hᵢ| of
// the paper's analysis — and hands the shared value to the cost-model
// comparator ChooseAutoLevels. Everything else the scenario is built from
// (dimension, δ, hierarchy, options) is identical on every rank, and the
// model is pure deterministic float arithmetic, so all ranks agree. The
// same agreement path also serves a pinned algorithm asked to pick only
// its pipelining degree (Options.Chunks = AutoChunks). Its storage is
// opts.Scratch's agreement workspace, so with a pool a repeated call
// allocates nothing.
func resolve(p *comm.Proc, v *stream.Vector, opts Options, base int) (Algorithm, int, int) {
	if opts.Algorithm != Auto && opts.Chunks != AutoChunks {
		return opts.Algorithm, opts.Levels, opts.Chunks
	}
	kmax := int(AllreduceDenseRecDoubleInto(p, []float64{float64(v.NNZ())},
		stream.OpMax, stream.DefaultValueBytes, base+resolveTagOffset, opts.Scratch.Agreement())[0])
	s := ScenarioFor(p, v, opts, kmax)
	if opts.Algorithm != Auto {
		// Chunk-only Auto: algorithm and depth (s.Levels) are pinned;
		// price just the chunk count for them.
		return opts.Algorithm, opts.Levels, ChooseChunks(opts.Algorithm, s)
	}
	return ChooseAutoLevels(s)
}

// ScenarioFor builds the CostScenario Auto prices a call with: the
// vector's shape and wire settings, the communicator's size, profile and
// machine hierarchy, and the options' quantization/support/depth knobs,
// with K set to the globally agreed maximum per-rank non-zero count. It
// is exported for decision layers that run the agreement themselves and
// want to adjust the scenario before choosing — the runtime adaptation
// controller substitutes its measured support model and calibrated link
// constants into exactly this scenario.
func ScenarioFor(p *comm.Proc, v *stream.Vector, opts Options, kmax int) CostScenario {
	return CostScenario{
		N: v.Dim(), P: p.Size(), K: kmax,
		ValueBytes: v.ValueBytes(), Delta: v.Delta(),
		Profile: p.Profile(), Hier: p.Hierarchy(), Quant: opts.Quant,
		Levels:      opts.Levels,
		Chunks:      opts.Chunks,
		Support:     opts.Support,
		HotFraction: opts.HotFraction,
		HotMass:     opts.HotMass,
	}
}

// resolveTagOffset reserves the top half of each collective's tag range
// for the Auto-mode agreement exchange.
const resolveTagOffset = 1 << 19

// partition returns the dimension range [lo, hi) owned by rank r when the
// universe [0, n) is split across P ranks ("each node gets responsible of
// ⌊N/P⌋ items apart of the last one", Appendix A).
func partition(n, P, r int) (lo, hi int) {
	block := n / P
	lo = r * block
	hi = lo + block
	if r == P-1 {
		hi = n
	}
	return lo, hi
}
