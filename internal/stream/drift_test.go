package stream

import (
	"math/rand"
	"testing"
)

// recDoublingCycle runs one closed-loop recursive-doubling allreduce over
// len(pools) ranks (a power of two), the way the in-process backends run
// it: rank r clones its accumulator from pools[r], every stage sends a
// clone of it to the partner by reference, and the partner merges it and
// releases it into its own pool, so buffers migrate between pools. The
// caller hands each result back to its rank's pool once applied.
func recDoublingCycle(pools []*Scratch, in []*Vector) {
	P := len(pools)
	acc := make([]*Vector, P)
	for r := range acc {
		acc[r] = in[r].CloneInto(pools[r])
	}
	sent := make([]*Vector, P)
	for dist := 1; dist < P; dist <<= 1 {
		for r := range sent {
			sent[r] = acc[r].CloneInto(pools[r])
		}
		for r := range acc {
			x := sent[r^dist]
			acc[r].AddInto(x, pools[r])
			pools[r].Release(x)
		}
	}
	for r := range acc {
		pools[r].Release(acc[r])
	}
}

// rankInput returns rank r's k pairs at indices r, r+8, r+16, …: the eight
// ranks' supports are disjoint, so every stage's merge doubles the
// accumulator.
func rankInput(n, r, k int) *Vector {
	idx := make([]int32, k)
	val := make([]float64, k)
	for i := range idx {
		idx[i] = int32(8*i + r)
		val[i] = float64(i%7 + 1)
	}
	return WrapSparse(n, idx, val, OpSum)
}

// TestScratchClosedLoopDoesNotDrift: pools whose results come back must
// settle. Every cycle of a released recursive-doubling allreduce grabs the
// same sizes up to each rank's ±10 % input jitter, but the clones that
// cross between ranks arrive at their sender's sizes. A miss that keeps
// the buffer it narrowly missed adds a buffer every time, and the pools
// climb toward scratchPoolCap; the near-miss rule swaps the buffer instead,
// so every pool stays within twice the cycle's working set.
func TestScratchClosedLoopDoesNotDrift(t *testing.T) {
	const n, k, P, cycles = 1 << 16, 512, 8, 2000
	pools := make([]*Scratch, P)
	in := make([]*Vector, P)
	for r := range pools {
		pools[r] = NewScratch()
		in[r] = rankInput(n, r, k)
	}
	recDoublingCycle(pools, in)
	working := 0
	for _, s := range pools {
		working = max(working, s.Buffers())
	}
	rng := rand.New(rand.NewSource(26))
	peak := 0
	for c := 0; c < cycles; c++ {
		for r := range in {
			in[r] = rankInput(n, r, k*9/10+rng.Intn(k/5+1))
		}
		recDoublingCycle(pools, in)
		for _, s := range pools {
			peak = max(peak, s.Buffers())
		}
	}
	t.Logf("peak %d buffers in a pool; working set %d", peak, working)
	if peak > 2*working {
		t.Fatalf("a pool drifted to %d buffers over %d cycles; the cycle's working set is %d", peak, cycles, working)
	}
}
