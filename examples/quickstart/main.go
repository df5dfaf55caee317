// Quickstart: a sparse allreduce across 8 ranks in ~40 lines.
//
// Each rank contributes a sparse vector over a one-million-dimensional
// space; SparCML reduces them with an automatically selected sparse
// algorithm, and the simulated network clock reports what the operation
// would cost on a Cray Aries interconnect versus a dense MPI allreduce.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"

	sparcml "repro"
)

func main() {
	if err := run(os.Stdout, 8, 1<<20, 1000); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

// rankInput draws a rank's sparse contribution: k distinct indices in
// [0, n) with Gaussian values, deterministic per rank.
func rankInput(rank, n, k int) *sparcml.Vector {
	rng := rand.New(rand.NewSource(int64(rank + 1)))
	idx := make([]int32, 0, k)
	val := make([]float64, 0, k)
	seen := map[int32]bool{}
	for len(idx) < k {
		ix := int32(rng.Intn(n))
		if !seen[ix] {
			seen[ix] = true
			idx = append(idx, ix)
			val = append(val, rng.NormFloat64())
		}
	}
	return sparcml.NewSparse(n, idx, val)
}

// run reduces P sparse vectors of dimension n with k non-zeros each, then
// contrasts against the dense MPI baseline.
func run(out io.Writer, P, n, k int) error {
	world := sparcml.NewWorld(P, sparcml.Aries)
	results := sparcml.Run(world, func(c *sparcml.Comm) *sparcml.Vector {
		return c.Allreduce(rankInput(c.Rank(), n, k), sparcml.Options{}) // Auto algorithm selection
	})
	sparseTime := world.SimTime()

	fmt.Fprintf(out, "reduced %d sparse vectors of dimension %d\n", P, n)
	fmt.Fprintf(out, "result: nnz=%d density=%.3f%% dense-representation=%v\n",
		results[0].NNZ(), 100*results[0].Density(), results[0].IsDense())
	fmt.Fprintf(out, "simulated time on Cray Aries (sparse, auto):  %.1fµs\n", sparseTime*1e6)

	// The same reduction through the dense MPI baseline, for contrast.
	sparcml.Run(world, func(c *sparcml.Comm) *sparcml.Vector {
		rng := rand.New(rand.NewSource(int64(c.Rank() + 1)))
		dense := make([]float64, n)
		for i := 0; i < k; i++ {
			dense[rng.Intn(n)] = rng.NormFloat64()
		}
		return c.Allreduce(sparcml.NewDense(dense), sparcml.Options{Algorithm: sparcml.DenseRabenseifner})
	})
	denseTime := world.SimTime()
	fmt.Fprintf(out, "simulated time on Cray Aries (dense baseline): %.1fµs\n", denseTime*1e6)
	fmt.Fprintf(out, "sparse speedup: %.1fx\n", denseTime/sparseTime)

	// The same sparse reduction on a two-level machine (4 ranks per
	// node, NVLink-like intra + Aries inter): Auto prices every candidate
	// flat and at depth 2 (reduce to node leaders, the algorithm among the
	// leaders, broadcast back) and runs the cheapest.
	if P >= 8 {
		nodes := sparcml.NewWorldHier(P, sparcml.TwoLevel(4, sparcml.NVLinkLike, sparcml.Aries, 0))
		sparcml.Run(nodes, func(c *sparcml.Comm) *sparcml.Vector {
			return c.Allreduce(rankInput(c.Rank(), n, k), sparcml.Options{})
		})
		fmt.Fprintf(out, "simulated time on 4-GPU nodes (Auto, flat or hierarchical): %.1fµs\n", nodes.SimTime()*1e6)
	}

	// Steady-state training loops reuse per-rank buffer pools: after a
	// warm-up call the collectives stop allocating (see BENCH_3.json).
	reps := 3
	for i := 0; i < reps; i++ {
		pooled := sparcml.Run(world, func(c *sparcml.Comm) *sparcml.Vector {
			opts := sparcml.Options{Scratch: world.Scratch(c.Rank())}
			return c.Allreduce(rankInput(c.Rank(), n, k), opts)
		})
		if !pooled[0].Equal(results[0]) {
			return fmt.Errorf("scratch-pooled round %d diverged from the first reduction", i)
		}
	}
	fmt.Fprintf(out, "%d pooled-buffer rounds reproduced the reduction bit-for-bit\n", reps)
	return nil
}
