package experiments

import (
	"math"
	"runtime/debug"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// This file holds the k-way merge / scratch-buffer ablation recorded as
// BENCH_3.json: for each world-size shape it counts the allocations of the
// three ways to reduce P partition streams — chained two-way Add, the
// one-pass k-way MergeK, and MergeK drawing from a warm Scratch pool —
// verifies they are bit-identical, and records the (deterministic)
// simulated time of the full split-allgather allreduce whose hot path the
// k-way merge now is. Allocation counts come from testing.AllocsPerRun on
// single-goroutine deterministic code, so the document is reproducible
// byte-for-byte on a fixed Go toolchain and CI can hard-fail on drift.
// (A toolchain upgrade may legitimately shift allocation counts — e.g.
// slice growth policy changes; scripts/ci.sh regenerates the file on
// drift, so such an upgrade costs one committed regeneration, exactly
// like a code change that moves the numbers.)

// MergeCell is one k-way merge ablation cell.
type MergeCell struct {
	P       int    `json:"p"`
	N       int    `json:"n"`
	K       int    `json:"k_per_stream"`
	Pattern string `json:"pattern"`
	// Allocations per reduction of P streams (rounded to whole objects).
	ChainedAllocs     float64 `json:"chained_allocs_per_op"`
	KWayAllocs        float64 `json:"kway_allocs_per_op"`
	KWayScratchAllocs float64 `json:"kway_scratch_allocs_per_op"`
	// AllocReduction is 1 − kway_scratch/chained.
	AllocReduction float64 `json:"alloc_reduction"`
	// BitIdentical reports whether all three reductions agreed
	// bit-for-bit on every coordinate.
	BitIdentical bool `json:"bit_identical"`
	// SplitSimSeconds is the simulated completion time of one full
	// SSAR_Split_allgather allreduce at this shape (deterministic).
	SplitSimSeconds float64 `json:"split_allgather_sim_seconds"`
}

// mergeInputs builds P deterministic sparse streams for a cell: one
// scenario call at density k/n, uniform or with the leading tenth of the
// space holding 70% of the mass.
func mergeInputs(seed int64, n, k, P int, pattern string) []*stream.Vector {
	sc := scenario.Scenario{
		Name: "merge-" + pattern, N: n, P: P, Calls: 1,
		Density: scenario.Const(float64(k) / float64(n)),
	}
	if pattern == "clustered" {
		sc.Blocks = []scenario.Block{{Start: 0, Frac: 0.1, Weight: 1}}
		sc.HotMass = scenario.Const(0.7)
	}
	return sc.Generator(scenario.NewKey(seed)).Next()
}

// RunMergeCell measures one ablation cell. All metrics are deterministic:
// allocation counts of single-goroutine reductions and simulated seconds.
func RunMergeCell(n, k, P int, pattern string, seed int64) MergeCell {
	vs := mergeInputs(seed, n, k, P, pattern)
	cell := MergeCell{P: P, N: n, K: k, Pattern: pattern}

	chained := func() *stream.Vector {
		acc := vs[0].Clone()
		for _, o := range vs[1:] {
			acc.Add(o)
		}
		return acc
	}
	// Disable GC while counting: a collection landing mid-measurement adds
	// runtime allocations to the Mallocs delta AllocsPerRun reads, and
	// whether one lands depends on the heap state the process happened to
	// reach — the one nondeterminism a byte-exact drift gate cannot carry.
	// With GC off the counts are purely code-driven.
	gcPct := debug.SetGCPercent(-1)
	cell.ChainedAllocs = math.Round(testing.AllocsPerRun(10, func() { chained() }))
	cell.KWayAllocs = math.Round(testing.AllocsPerRun(10, func() { stream.MergeK(vs, nil) }))

	sc := stream.NewScratch()
	for i := 0; i < 4; i++ { // warm the pool to steady state
		sc.Release(stream.MergeK(vs, sc))
	}
	cell.KWayScratchAllocs = math.Round(testing.AllocsPerRun(10, func() {
		sc.Release(stream.MergeK(vs, sc))
	}))
	debug.SetGCPercent(gcPct)
	if cell.ChainedAllocs > 0 {
		cell.AllocReduction = 1 - cell.KWayScratchAllocs/cell.ChainedAllocs
	}

	ref := chained()
	kway := stream.MergeK(vs, nil)
	pooled := stream.MergeK(vs, stream.NewScratch())
	cell.BitIdentical = bitIdentical(ref, kway) && bitIdentical(ref, pooled)

	// Deterministic simulated time of the collective the merge serves.
	cell.SplitSimSeconds = measure(comm.NewWorld(P, simnet.Aries), once(vs), allreduce(core.Options{Algorithm: core.SSARSplitAllgather})).seconds
	return cell
}

func bitIdentical(a, b *stream.Vector) bool {
	da, db := a.ToDense(), b.ToDense()
	for i := range da {
		if math.Float64bits(da[i]) != math.Float64bits(db[i]) {
			return false
		}
	}
	return true
}

// MergeSweep runs the default BENCH_3 cells: the merge-fan-in shapes the
// split phase produces at P ∈ {4, 16, 64} on uniform supports, plus a
// clustered-support cell at P = 16.
func MergeSweep() []MergeCell {
	var cells []MergeCell
	for _, P := range []int{4, 16, 64} {
		cells = append(cells, RunMergeCell(1<<18, 2000, P, "uniform", 211+int64(P)))
	}
	cells = append(cells, RunMergeCell(1<<18, 2000, 16, "clustered", 401))
	return cells
}
