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
// an Auto mode implementing the paper's selection guidance.
package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/quant"
	"repro/internal/stream"
)

// Algorithm selects the allreduce implementation.
type Algorithm int

const (
	// Auto picks an algorithm by modeled cost: the paper's δ gate first
	// fixes the result representation (expected fill-in E[K] ≥ δ routes to
	// the dense-result DSAR family, which also honors quantization; below
	// δ to the sparse-result SSAR family), then the candidates — including
	// the hierarchical variants on multi-level worlds — are priced
	// by the α–β(+NIC contention) cost model (see CostScenario and
	// PredictSeconds) and the cheapest wins. Every rank first agrees on
	// the maximum per-rank non-zero count, so all ranks pick the same
	// algorithm.
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
	// HierSSAR is the hierarchical (topology-aware) static sparse
	// allreduce: an intra-node sparse reduce to each node leader, a sparse
	// allreduce among leaders over the inter-node network (recursive
	// doubling or split allgather, by agreed size), and an intra-node
	// broadcast of the result. On a flat world it degrades to
	// SSARSplitAllgather.
	HierSSAR
	// HierDSAR is the hierarchical dynamic sparse allreduce: an intra-node
	// sparse reduce to each node leader, a DSAR among leaders over the
	// inter-node network (sparse split by node partition, densify at the
	// leader, dense — optionally QSGD-quantized — allgather), and an
	// intra-node broadcast of the dense result. Returns a dense vector on
	// every rank; without quantization the reduction is bit-identical to
	// flat DSARSplitAllgather (exact sums). On a flat world it degrades to
	// DSARSplitAllgather.
	HierDSAR
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
	case HierSSAR:
		return "SSAR_Hierarchical"
	case HierDSAR:
		return "DSAR_Hierarchical"
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
	// stage of DSARSplitAllgather and HierDSAR ("we employ the low-precision
	// data representation only in the second part of the DSAR Split
	// allgather algorithm", §6). Ignored by other algorithms.
	Quant *quant.Config
	// Seed drives the stochastic quantization; combined with the rank that
	// owns each partition so encodings are deterministic yet independent.
	Seed int64
	// Levels caps how many machine-hierarchy levels the hierarchical
	// algorithms exploit: 0 (the default) uses the world's full hierarchy,
	// d >= 2 truncates the recursion to the innermost d levels (up/down
	// sweeps over levels 0..d-2, top phase among the level-(d-2) leaders),
	// and 1 degrades to the flat algorithm. Auto sets it itself — the
	// level-aware cost model picks the cheapest depth (ChooseAutoLevels) —
	// so explicit values are mainly for ablations such as the hierlevels
	// sweep.
	Levels int
	// Chunks selects the pipelining degree of the split-phase algorithms
	// (SSARSplitAllgather, DSARSplitAllgather, and the hierarchical
	// variants' leader phase): the dimension partitions are subdivided into
	// C key-range chunks whose sends and merges overlap stage-pipeline
	// style (see splitPhasePipelined). Values ≤ 1 (including the zero
	// default) run the unchunked path, byte-identical on the wire to the
	// pre-chunking implementation; C ≥ 2 pipelines (value-identical
	// results, chunk-partitioned message schedule). AutoChunks asks the
	// cost model to pick the chunk count (alongside algorithm and depth
	// when Algorithm is Auto). The executed count is clamped by
	// clampChunks — per-rank partitions must stay subdividable and the tag
	// budget bounded — identically on every rank. Algorithms without a
	// split phase ignore it.
	Chunks int
	// Support selects the index-distribution assumption Auto's cost model
	// uses for the fill-in expectation E[K] (see CostScenario.Support for
	// the estimators' validity ranges). The default SupportUniform is the
	// paper's worst case; SupportClustered prices blocked hot-set supports.
	// The runtime adaptation layer (internal/adapt) sets this per call from
	// the observed input shape; setting it statically pins the assumption,
	// which is how the BENCH_5 static-clustered ablation arm is built.
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

// DefaultSmallDataBytes is the small/large message boundary, mirroring
// MPI's long-message switch (Thakur & Gropp use 64 KiB⋅class thresholds):
// the wire size up to which the hierarchical SSAR top phase runs recursive
// doubling rather than split allgather, in execution and in the cost model
// alike. Auto prices the flat variants directly and does not consult it.
const DefaultSmallDataBytes = 64 << 10

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
// resolve translates before execution) mean unchunked, and a pipelined
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
	alg, levels, chunks := resolve(p, v, opts, base)
	opts.Levels = levels
	opts.Chunks = chunks
	switch alg {
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
	case HierSSAR:
		return hierSSAR(p, v, opts, base)
	case HierDSAR:
		return hierDSAR(p, v, opts, base)
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
// its pipelining degree (Options.Chunks = AutoChunks).
func resolve(p *comm.Proc, v *stream.Vector, opts Options, base int) (Algorithm, int, int) {
	if opts.Algorithm != Auto && opts.Chunks != AutoChunks {
		return opts.Algorithm, opts.Levels, opts.Chunks
	}
	kmax := int(AllreduceDenseRecDouble(p, []float64{float64(v.NNZ())},
		stream.OpMax, stream.DefaultValueBytes, base+resolveTagOffset)[0])
	s := ScenarioFor(p, v, opts, kmax)
	if opts.Algorithm != Auto {
		// Chunk-only Auto: algorithm and depth are pinned; price just the
		// chunk count for them.
		s.Levels = opts.Levels
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
