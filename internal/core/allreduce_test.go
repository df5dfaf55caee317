package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/simnet"
	"repro/internal/stream"
)

var testProfile = simnet.Profile{Name: "test", Alpha: 1e-6, BetaPerByte: 1e-9,
	GammaPerElem: 1e-10, SparseComputeFactor: 4}

// inputPattern generates per-rank inputs exercising a sparsity structure.
type inputPattern struct {
	name string
	gen  func(rng *rand.Rand, n, k, P int) []*stream.Vector
}

var patterns = []inputPattern{
	{"uniform", func(rng *rand.Rand, n, k, P int) []*stream.Vector {
		out := make([]*stream.Vector, P)
		for r := range out {
			out[r] = randSparse(rng, n, k)
		}
		return out
	}},
	{"identical-support", func(rng *rand.Rand, n, k, P int) []*stream.Vector {
		// Case (2) of §5.3: all supports overlap fully (Hi = Hj).
		base := randSparse(rng, n, k)
		idx, _ := base.Pairs()
		out := make([]*stream.Vector, P)
		for r := range out {
			val := make([]float64, len(idx))
			for i := range val {
				val[i] = dyadic(rng)
			}
			out[r] = stream.NewSparse(n, append([]int32(nil), idx...), val, stream.OpSum)
		}
		return out
	}},
	{"disjoint", func(rng *rand.Rand, n, k, P int) []*stream.Vector {
		// Case (1) of §5.3: no supports overlap (maximum fill-in).
		out := make([]*stream.Vector, P)
		perm := rng.Perm(n)
		pos := 0
		for r := range out {
			kk := k
			if pos+kk > n {
				kk = n - pos
			}
			idx := make([]int32, kk)
			val := make([]float64, kk)
			for i := 0; i < kk; i++ {
				idx[i] = int32(perm[pos])
				val[i] = dyadic(rng)
				pos++
			}
			out[r] = stream.NewSparse(n, idx, val, stream.OpSum)
		}
		return out
	}},
	{"clustered", func(rng *rand.Rand, n, k, P int) []*stream.Vector {
		// Power-law-ish hot region shared by all ranks plus a random tail,
		// approximating real gradient index distributions.
		out := make([]*stream.Vector, P)
		hot := n / 10
		if hot < 1 {
			hot = 1
		}
		for r := range out {
			seen := map[int32]bool{}
			idx := make([]int32, 0, k)
			val := make([]float64, 0, k)
			for len(idx) < k {
				var ix int32
				if rng.Float64() < 0.7 {
					ix = int32(rng.Intn(hot))
				} else {
					ix = int32(rng.Intn(n))
				}
				if seen[ix] {
					continue
				}
				seen[ix] = true
				idx = append(idx, ix)
				val = append(val, dyadic(rng))
			}
			out[r] = stream.NewSparse(n, idx, val, stream.OpSum)
		}
		return out
	}},
	{"empty-some", func(rng *rand.Rand, n, k, P int) []*stream.Vector {
		out := make([]*stream.Vector, P)
		for r := range out {
			if r%2 == 0 {
				out[r] = stream.Zero(n, stream.OpSum)
			} else {
				out[r] = randSparse(rng, n, k)
			}
		}
		return out
	}},
	{"dense-inputs", func(rng *rand.Rand, n, k, P int) []*stream.Vector {
		out := make([]*stream.Vector, P)
		for r := range out {
			v := randSparse(rng, n, k)
			v.Densify()
			out[r] = v
		}
		return out
	}},
}

// dyadic returns a random dyadic rational so float addition is exact and
// order-independent: all algorithms must agree bit-for-bit.
func dyadic(rng *rand.Rand) float64 {
	v := float64(rng.Intn(64)-32) / 8
	if v == 0 {
		return 0.125
	}
	return v
}

func randSparse(rng *rand.Rand, n, k int) *stream.Vector {
	seen := make(map[int32]bool, k)
	idx := make([]int32, 0, k)
	val := make([]float64, 0, k)
	for len(idx) < k && len(idx) < n {
		ix := int32(rng.Intn(n))
		if seen[ix] {
			continue
		}
		seen[ix] = true
		idx = append(idx, ix)
		val = append(val, dyadic(rng))
	}
	return stream.NewSparse(n, idx, val, stream.OpSum)
}

// refSum computes the sequential reference reduction.
func refSum(inputs []*stream.Vector) []float64 {
	out := make([]float64, inputs[0].Dim())
	for _, v := range inputs {
		for i, x := range v.ToDense() {
			out[i] += x
		}
	}
	return out
}

func runAllreduce(t *testing.T, P int, inputs []*stream.Vector, opts Options) []*stream.Vector {
	t.Helper()
	w := comm.NewWorld(P, testProfile)
	return comm.Run(w, func(p *comm.Proc) *stream.Vector {
		return Allreduce(p, inputs[p.Rank()], opts)
	})
}

var allAlgorithms = []Algorithm{
	SSARRecDouble, SSARSplitAllgather, DSARSplitAllgather,
	DenseRecDouble, DenseRabenseifner, DenseRing, RingSparse, Auto,
}

func TestAllreduceAllAlgorithmsAllPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, P := range []int{2, 4, 8} {
		for _, pat := range patterns {
			n := 200 + rng.Intn(200)
			k := 1 + rng.Intn(n/8)
			inputs := pat.gen(rng, n, k, P)
			want := refSum(inputs)
			for _, alg := range allAlgorithms {
				results := runAllreduce(t, P, inputs, Options{Algorithm: alg})
				for r, res := range results {
					got := res.ToDense()
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("P=%d pattern=%s alg=%s rank=%d coord=%d: got %g want %g",
								P, pat.name, alg, r, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

func TestAllreduceNonPowerOfTwoWorlds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, P := range []int{3, 5, 6, 7, 12} {
		n := 300
		inputs := patterns[0].gen(rng, n, 20, P)
		want := refSum(inputs)
		for _, alg := range allAlgorithms {
			results := runAllreduce(t, P, inputs, Options{Algorithm: alg})
			for r, res := range results {
				got := res.ToDense()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("P=%d alg=%s rank=%d coord=%d: got %g want %g", P, alg, r, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestAllreduceSingleRank(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := randSparse(rng, 100, 10)
	for _, alg := range []Algorithm{SSARRecDouble, SSARSplitAllgather, DenseRing, RingSparse} {
		res := runAllreduce(t, 1, []*stream.Vector{v}, Options{Algorithm: alg})
		if !res[0].Equal(v) {
			t.Fatalf("alg=%s: single-rank allreduce must be identity", alg)
		}
	}
}

func TestAllreduceMaxOperation(t *testing.T) {
	P, n := 4, 64
	inputs := make([]*stream.Vector, P)
	for r := 0; r < P; r++ {
		inputs[r] = stream.NewSparse(n, []int32{int32(r), 60}, []float64{float64(r + 1), float64(10 * (r + 1))}, stream.OpMax)
	}
	results := runAllreduce(t, P, inputs, Options{Algorithm: SSARRecDouble})
	for _, res := range results {
		if res.Get(60) != 40 {
			t.Fatalf("max at 60 = %g, want 40", res.Get(60))
		}
		if res.Get(2) != 3 {
			t.Fatalf("max at 2 = %g, want 3", res.Get(2))
		}
		if got := res.Get(50); !math.IsInf(got, -1) {
			t.Fatalf("absent coordinate = %g, want -Inf", got)
		}
	}
}

func TestSSARStaysSparseWhenResultSparse(t *testing.T) {
	// K << δ: SSAR results must remain in sparse representation.
	rng := rand.New(rand.NewSource(9))
	P, n, k := 8, 10000, 10
	inputs := patterns[0].gen(rng, n, k, P)
	for _, alg := range []Algorithm{SSARRecDouble, SSARSplitAllgather, RingSparse} {
		results := runAllreduce(t, P, inputs, Options{Algorithm: alg})
		for r, res := range results {
			if res.IsDense() {
				t.Fatalf("alg=%s rank=%d: result densified with K=%d << δ=%d", alg, r, res.NNZ(), res.Delta())
			}
		}
	}
}

func TestDSARAlwaysReturnsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inputs := patterns[0].gen(rng, 500, 50, 4)
	results := runAllreduce(t, 4, inputs, Options{Algorithm: DSARSplitAllgather})
	for r, res := range results {
		if !res.IsDense() {
			t.Fatalf("rank %d: DSAR must return a dense vector", r)
		}
	}
}

func TestAutoSelectsDSARWhenFillInExpected(t *testing.T) {
	// High per-node density across many ranks → E[K] > δ → DSAR (dense
	// result). Low density, tiny data → recursive doubling (sparse result).
	rng := rand.New(rand.NewSource(13))
	P := 8
	n := 600
	dense := patterns[0].gen(rng, n, 300, P)
	res := runAllreduce(t, P, dense, Options{Algorithm: Auto})
	if !res[0].IsDense() {
		t.Fatal("Auto should have picked DSAR (dense result) for high fill-in")
	}
	sparse := patterns[0].gen(rng, 100000, 5, P)
	res2 := runAllreduce(t, P, sparse, Options{Algorithm: Auto})
	if res2[0].IsDense() {
		t.Fatal("Auto should have kept the result sparse for low fill-in")
	}
}

func TestResolveCostModelBoundaries(t *testing.T) {
	w := comm.NewWorld(4, testProfile)
	comm.Run(w, func(p *comm.Proc) any {
		small := randSparse(rand.New(rand.NewSource(1)), 1<<20, 100) // 1.2KB sparse
		if got, _, _ := resolve(p, small, Options{}, p.NextTagBase()); got != SSARRecDouble {
			panic("small sparse input should resolve to SSARRecDouble, got " + got.String())
		}
		// Low-overlap large data: rec-double and split allgather move
		// nearly the same total volume ((P−1)·k under uniform supports),
		// so rec-double's log2(P)·α latency wins. The old wire-size
		// threshold forced split allgather here; the simulator agrees with
		// the cost model that rec-double is cheaper (costmodel_test.go
		// cross-checks model against simulated time on this shape).
		big := randSparse(rand.New(rand.NewSource(2)), 1<<20, 50000) // E[K]≈190k < δ≈699k
		if got, _, _ := resolve(p, big, Options{}, p.NextTagBase()); got != SSARRecDouble {
			panic("low-overlap sparse input should resolve to SSARRecDouble, got " + got.String())
		}
		fill := randSparse(rand.New(rand.NewSource(3)), 1000, 600) // E[K]≈923 > δ=666
		if got, _, _ := resolve(p, fill, Options{}, p.NextTagBase()); got != DSARSplitAllgather {
			panic("high-fill input should resolve to DSARSplitAllgather, got " + got.String())
		}
		explicit := Options{Algorithm: DenseRing}
		if got, _, _ := resolve(p, small, explicit, p.NextTagBase()); got != DenseRing {
			panic("explicit algorithm must be respected")
		}
		return nil
	})

	// Overlap-heavy regime at larger P: accumulated rec-double unions
	// saturate near E[K] early, so it keeps resending ~E[K] every stage
	// (Σ E[K_d] > 2·E[K]) while split allgather moves k/P slices plus one
	// allgather of E[K] — the bandwidth regime where split wins.
	w16 := comm.NewWorld(16, testProfile)
	comm.Run(w16, func(p *comm.Proc) any {
		ov := randSparse(rand.New(rand.NewSource(4)), 1<<16, 3000) // E[K]≈34.6k < δ≈43.7k
		if got, _, _ := resolve(p, ov, Options{}, p.NextTagBase()); got != SSARSplitAllgather {
			panic("overlap-heavy input should resolve to SSARSplitAllgather, got " + got.String())
		}
		return nil
	})
}

func TestAutoAgreesAcrossHeterogeneousRanks(t *testing.T) {
	// Regression test for the deadlock class the randomized differential
	// test exposed: ranks with wildly different non-zero counts (including
	// zero) must still agree on one algorithm under Auto.
	n := 100000
	for _, P := range []int{2, 4, 8} {
		inputs := make([]*stream.Vector, P)
		rng := rand.New(rand.NewSource(101))
		for r := range inputs {
			k := 0
			if r%2 == 1 {
				k = 1 + rng.Intn(60000) // some ranks huge, some empty
			}
			inputs[r] = randSparse(rng, n, k)
		}
		want := refSum(inputs)
		results := runAllreduce(t, P, inputs, Options{Algorithm: Auto})
		for r, res := range results {
			got := res.ToDense()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("P=%d rank=%d coord=%d: got %g want %g", P, r, i, got[i], want[i])
				}
			}
		}
	}
}

func TestAllRanksGetIdenticalResults(t *testing.T) {
	// Replica consistency: every rank must end with the same vector, for
	// every algorithm (bit-for-bit, since inputs are dyadic).
	rng := rand.New(rand.NewSource(21))
	inputs := patterns[3].gen(rng, 512, 40, 8)
	for _, alg := range allAlgorithms {
		results := runAllreduce(t, 8, inputs, Options{Algorithm: alg})
		for r := 1; r < len(results); r++ {
			if !results[r].Equal(results[0]) {
				t.Fatalf("alg=%s: rank %d result differs from rank 0", alg, r)
			}
		}
	}
}

func TestPartitionCoversUniverse(t *testing.T) {
	for _, n := range []int{7, 64, 100, 1023} {
		for _, P := range []int{1, 2, 3, 8, 16} {
			prev := 0
			for r := 0; r < P; r++ {
				lo, hi := partition(n, P, r)
				if lo != prev {
					t.Fatalf("n=%d P=%d r=%d: gap at %d", n, P, r, lo)
				}
				if hi < lo {
					t.Fatalf("n=%d P=%d r=%d: negative range", n, P, r)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("n=%d P=%d: partitions end at %d", n, P, prev)
			}
		}
	}
}

func TestAlgorithmStrings(t *testing.T) {
	want := map[Algorithm]string{
		SSARRecDouble:      "SSAR_Recursive_double",
		SSARSplitAllgather: "SSAR_Split_allgather",
		DSARSplitAllgather: "DSAR_Split_allgather",
		DenseRing:          "Dense_Ring",
	}
	for alg, s := range want {
		if alg.String() != s {
			t.Errorf("%d.String() = %q, want %q", alg, alg.String(), s)
		}
	}
}
