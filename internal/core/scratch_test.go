package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
	for _, P := range []int{2, 4, 7, 8} {
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

// scaledBandwidthWorld is a scaled gor-bandwidth: P = 8 goroutine ranks,
// N = 2^17, N/16 random non-zeros per rank, pinned SSAR split-allgather,
// four input sets in rotation, one Scratch per rank (returned for
// inspection). run executes count ops — handing every result to done on its
// rank's goroutine — and returns the bytes allocated per op over the whole
// world and the bytes of one op's results summed over the ranks (4-byte
// index + 8-byte value per pair).
func scaledBandwidthWorld() (run func(count int, done func(*stream.Scratch, *stream.Vector)) (allocated, results float64), scratches []*stream.Scratch) {
	const (
		P    = 8
		n    = 1 << 17
		k    = n / 16
		sets = 4
	)
	rng := rand.New(rand.NewSource(93))
	inputs := make([][]*stream.Vector, sets)
	for s := range inputs {
		inputs[s] = patterns[0].gen(rng, n, k, P)
	}
	w := comm.NewWorld(P, testProfile).UseGoroutineTransport()
	scratches = perRankScratches(P)
	op := 0
	run = func(count int, done func(*stream.Scratch, *stream.Vector)) (float64, float64) {
		var before, after runtime.MemStats
		resultBytes := 0
		runtime.ReadMemStats(&before)
		for i := 0; i < count; i, op = i+1, op+1 {
			in := inputs[op%sets]
			nnz := comm.Run(w, func(p *comm.Proc) int {
				sc := scratches[p.Rank()]
				res := Allreduce(p, in[p.Rank()], Options{Algorithm: SSARSplitAllgather, Scratch: sc})
				nnz := res.NNZ()
				done(sc, res)
				return nnz
			})
			for _, c := range nnz {
				resultBytes += 12 * c
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(count), float64(resultBytes) / float64(count)
	}
	return run, scratches
}

// keepResult and releaseResult are what a scaledBandwidthWorld caller does
// with a result: hold on to it, or hand it back to the pool.
func keepResult(*stream.Scratch, *stream.Vector)           {}
func releaseResult(sc *stream.Scratch, res *stream.Vector) { sc.Release(res) }

// TestGoroutinePoolsReachSteadyState: handover keeps large buffers in
// circulation — what a sender draws from its pool, the receiver releases
// into its own — so the pools must neither fill nor leak. On a scaled
// gor-bandwidth shape (P=8 goroutine world, SSAR split-allgather, d = 1/16,
// four input sets in rotation) the pooled buffer count summed over the
// ranks is level after 8 warm ops and bytes allocated per op stay flat.
// Level means under one buffer per op over all eight ranks: while buffer
// capacities sort themselves out the sum creeps by a few buffers (here
// 268 → 292 of a 2048 cap; the sequence is deterministic), whereas a merge
// that builds its output outside the pool injects one per rank per op into
// the circulation (330 → 698 over the same 40 ops).
func TestGoroutinePoolsReachSteadyState(t *testing.T) {
	const warm, half = 8, 20
	run, scratches := scaledBandwidthWorld()
	pooled := func() int {
		total := 0
		for _, sc := range scratches {
			total += sc.Buffers()
		}
		return total
	}
	run(warm, keepResult)
	settled := pooled()
	first, _ := run(half, keepResult)
	second, _ := run(half, keepResult)
	if got := pooled(); got-settled >= 2*half {
		t.Errorf("pools grew from %d to %d buffers over %d steady-state ops", settled, got, 2*half)
	}
	if second > 1.1*first {
		t.Errorf("allocation per op rose from %.0f to %.0f bytes between ops %d–%d and %d–%d",
			first, second, warm, warm+half, warm+half, warm+2*half)
	}
	t.Logf("%d → %d pooled buffers; %.0f then %.0f bytes allocated per op", settled, pooled(), first, second)
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

// TestSplitAllgatherAllocationBudget: the concatenating allgather moves
// partition blocks by reference and copies each once, into a result taken
// at its exact size — so in steady state a split-allgather allocates its
// results (they leave with the caller) and little else: the partition
// blocks the ranks share are lent from, and go back to, their owners'
// pools, and nothing grows with the stage count. It reads ×1.01. The
// clone-and-Concat allgather read ×2.64 here, and a shared copy of each
// partition taken outside the pools ×1.14 (one more result's worth over
// the whole world, to the merge's upper bound), so the budget is ×1.05.
func TestSplitAllgatherAllocationBudget(t *testing.T) {
	run, _ := scaledBandwidthWorld()
	run(8, keepResult)
	allocated, results := run(12, keepResult)
	if allocated > 1.05*results {
		t.Errorf("%.0f bytes allocated per op for %.0f bytes of results (×%.2f), budget ×1.05",
			allocated, results, allocated/results)
	}
	t.Logf("%.0f bytes allocated per op, %.0f bytes of results (×%.2f)", allocated, results, allocated/results)
}

// TestReleasedResultsAreReused: results are borrowed — a caller that is
// done with one may release it into the Scratch it passed, and the next
// call assembles its result in that storage. The partition blocks the
// ranks share are lent and taken back as well, so a steady-state op
// allocates no result and no block, only small bookkeeping: ×0.006 of one
// rank's result, against the budget of ×0.02. One missed result reuse in
// the twelve ops measured would read ×0.08 more, and the shared copies of
// the partitions that lending replaced read ×1.08.
func TestReleasedResultsAreReused(t *testing.T) {
	run, _ := scaledBandwidthWorld()
	run(48, releaseResult) // four input sets of four sizes: the pools take a few rotations to hold a fit for each
	allocated, results := run(12, releaseResult)
	perRank := results / 8
	if allocated > 0.02*perRank {
		t.Errorf("%.0f bytes allocated per op with every result released; one rank's result is %.0f bytes", allocated, perRank)
	}
	t.Logf("%.0f bytes allocated per op, one rank's result is %.0f bytes (×%.3f)", allocated, perRank, allocated/perRank)
}
