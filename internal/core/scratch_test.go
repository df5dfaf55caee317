package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/stream"
)

// perRankScratches builds one buffer pool per rank — the required
// ownership discipline (a Scratch must never be shared across ranks).
func perRankScratches(P int) []*stream.Scratch {
	out := make([]*stream.Scratch, P)
	for i := range out {
		out[i] = stream.NewScratch()
	}
	return out
}

// TestAllreduceScratchBitIdentical: for every algorithm and input pattern,
// on both in-process backends — where a sent vector is handed to the
// receiver and may end up in another rank's pool — repeated allreduce calls
// reusing per-rank scratch pools must return results bit-identical to the
// simulator's scratch-free path, on every rank, every round (round ≥ 2
// exercises recycled buffers), and must leave every input's wire bytes
// untouched: a collective that sent or released a caller's vector would
// show here. The goroutine rows run truly concurrently, so the ci.sh -race
// pass over this test is the sharing check.
func TestAllreduceScratchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, P := range []int{2, 4, 7} {
		for _, pat := range patterns {
			n := 200 + rng.Intn(200)
			k := 1 + rng.Intn(n/8)
			inputs := pat.gen(rng, n, k, P)
			for _, alg := range allAlgorithms {
				plain := runAllreduce(t, P, inputs, Options{Algorithm: alg})
				for _, w := range []*comm.World{
					comm.NewWorld(P, testProfile),
					comm.NewWorld(P, testProfile).UseGoroutineTransport(),
				} {
					if err := scratchRounds(w, alg, inputs, plain); err != nil {
						t.Fatalf("%s P=%d pattern=%s alg=%s: %v", w.Transport(), P, pat.name, alg, err)
					}
				}
			}
		}
	}
}

// scratchRounds runs three scratch-backed allreduces of inputs on w and
// compares every rank's result of every round with want, bit for bit, and
// the inputs' wire bytes afterwards with those before.
func scratchRounds(w *comm.World, alg Algorithm, inputs, want []*stream.Vector) error {
	wire := make([][]byte, len(inputs))
	for r, v := range inputs {
		wire[r] = v.AppendWire(nil)
	}
	scratches := perRankScratches(len(inputs))
	for round := 0; round < 3; round++ {
		results := comm.Run(w, func(p *comm.Proc) *stream.Vector {
			return Allreduce(p, inputs[p.Rank()],
				Options{Algorithm: alg, Scratch: scratches[p.Rank()]})
		})
		for r, res := range results {
			got, want := res.ToDense(), want[r].ToDense()
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					return fmt.Errorf("round=%d rank=%d coord=%d: got %g want %g", round, r, i, got[i], want[i])
				}
			}
		}
	}
	for r, v := range inputs {
		if !bytes.Equal(v.AppendWire(nil), wire[r]) {
			return fmt.Errorf("rank %d's input changed", r)
		}
	}
	return nil
}

// TestAllreduceScratchKeepsResultsIntact: results returned from earlier
// rounds must not be corrupted by later rounds recycling the pool — the
// returned vector's storage is never released unless the caller does it.
func TestAllreduceScratchKeepsResultsIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	P, n, k := 4, 400, 30
	inputs := patterns[0].gen(rng, n, k, P)
	w := comm.NewWorld(P, testProfile)
	scratches := perRankScratches(P)
	run := func() []*stream.Vector {
		return comm.Run(w, func(p *comm.Proc) *stream.Vector {
			return Allreduce(p, inputs[p.Rank()],
				Options{Algorithm: SSARSplitAllgather, Scratch: scratches[p.Rank()]})
		})
	}
	first := run()
	snapshot := first[0].ToDense()
	for i := 0; i < 5; i++ {
		run()
	}
	after := first[0].ToDense()
	for i := range snapshot {
		if snapshot[i] != after[i] {
			t.Fatalf("round-1 result mutated at coord %d: %g -> %g", i, snapshot[i], after[i])
		}
	}
}

// TestAllreduceScratchAllocReduction is the end-to-end allocation
// acceptance check at P=16: steady-state allreduce calls with per-rank
// scratch pools must allocate less than half of what the scratch-free
// path allocates (the ISSUE's ≥ 50%-fewer-allocations bar, measured on
// the whole world including the harness overhead).
func TestAllreduceScratchAllocReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	const P, n, k = 16, 1 << 16, 1500
	inputs := make([]*stream.Vector, P)
	for r := range inputs {
		inputs[r] = randSparse(rng, n, k)
	}
	w := comm.NewWorld(P, testProfile)
	baseline := testing.AllocsPerRun(5, func() {
		comm.Run(w, func(p *comm.Proc) any {
			return Allreduce(p, inputs[p.Rank()], Options{Algorithm: SSARSplitAllgather})
		})
	})
	scratches := perRankScratches(P)
	// Warm the pools to steady state before measuring.
	for i := 0; i < 3; i++ {
		comm.Run(w, func(p *comm.Proc) any {
			return Allreduce(p, inputs[p.Rank()],
				Options{Algorithm: SSARSplitAllgather, Scratch: scratches[p.Rank()]})
		})
	}
	pooled := testing.AllocsPerRun(5, func() {
		comm.Run(w, func(p *comm.Proc) any {
			return Allreduce(p, inputs[p.Rank()],
				Options{Algorithm: SSARSplitAllgather, Scratch: scratches[p.Rank()]})
		})
	})
	if pooled > baseline/2 {
		t.Fatalf("scratch path allocates %.0f/op vs %.0f/op without — want ≥ 50%% reduction", pooled, baseline)
	}
	t.Logf("allocs/op: %.0f without scratch, %.0f with (%.0f%% reduction)",
		baseline, pooled, 100*(1-pooled/baseline))
}

// TestNonblockingWithScratch: a nonblocking allreduce with a dedicated
// scratch pool per rank must still produce correct results (the pool must
// not be shared with the issuing thread's other work until Wait).
func TestNonblockingWithScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	P, n, k := 4, 300, 20
	inputs := patterns[0].gen(rng, n, k, P)
	want := refSum(inputs)
	scratches := perRankScratches(P)
	w := comm.NewWorld(P, testProfile)
	results := comm.Run(w, func(p *comm.Proc) *stream.Vector {
		req := IAllreduce(p, inputs[p.Rank()],
			Options{Algorithm: SSARSplitAllgather, Scratch: scratches[p.Rank()]})
		p.Compute(1e-6) // overlapped local work
		return req.Wait(p)
	})
	for r, res := range results {
		got := res.ToDense()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rank=%d coord=%d: got %g want %g", r, i, got[i], want[i])
			}
		}
	}
}
