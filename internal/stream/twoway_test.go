package stream

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// mergeSparseBranchy is the sparse+sparse two-way merge written the obvious
// way, one three-way compare per step. It is the reference the branch-free
// mergeSparseInto is checked against: FuzzMergeKEquivalence cannot catch a
// two-way regression, because its chained-Add reference runs the very
// kernel under test.
func mergeSparseBranchy(v, other *Vector) ([]int32, []float64) {
	a, av := v.idx, v.val
	b, bv := other.idx, other.val
	var idx []int32
	var val []float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			idx = append(idx, a[i])
			val = append(val, av[i])
			i++
		case a[i] > b[j]:
			idx = append(idx, b[j])
			val = append(val, bv[j])
			j++
		default:
			combined := v.op.Combine(av[i], bv[j])
			if combined != v.op.Neutral() {
				idx = append(idx, a[i])
				val = append(val, combined)
			}
			i++
			j++
		}
	}
	idx = append(idx, a[i:]...)
	val = append(val, av[i:]...)
	idx = append(idx, b[j:]...)
	val = append(val, bv[j:]...)
	return idx, val
}

// fuzzValue maps a byte to a value: the first few bytes are the edge cases
// (±Inf, NaN, denormals, negative zero, OpProd's neutral 1), the rest a
// sign-symmetric lattice so that Sum can cancel and Prod can reach 1.
func fuzzValue(b byte) float64 {
	switch b {
	case 0:
		return math.Inf(1)
	case 1:
		return math.Inf(-1)
	case 2:
		return math.NaN()
	case 3:
		return math.SmallestNonzeroFloat64
	case 4:
		return -math.SmallestNonzeroFloat64
	case 5:
		return math.Float64frombits(0x000fffffffffffff) // largest denormal
	case 6:
		return math.Copysign(0, -1)
	case 7:
		return 1
	}
	return float64(int(b)-128) / 8
}

// Key layouts of FuzzTwoWayMergeEquivalence, picked by layout%4.
const (
	layoutInterleaved = iota // independent keys in one range: random interleave, occasional ties
	layoutIdentical          // one support, b's value negated on odd chunks to cancel
	layoutDisjoint           // a below b (above, with layout bit 2)
	layoutOneSided           // b empty (a empty, with layout bit 2)
)

// twoWayInputs decodes a pair of canonical sparse vectors from fuzz bytes,
// four bytes a chunk: a's key, b's key, a's value, b's value.
func twoWayInputs(op Op, layout uint8, data []byte) (a, b *Vector) {
	const n = 1024 // δ = 682 exceeds the 512 pairs two inputs can hold
	var ai, bi []int32
	var av, bv []float64
	seenA, seenB := map[int32]bool{}, map[int32]bool{}
	add := func(idx *[]int32, val *[]float64, seen map[int32]bool, k int32, x float64) {
		if !seen[k] {
			seen[k] = true
			*idx, *val = append(*idx, k), append(*val, x)
		}
	}
	swap := layout&4 != 0
	for c := 0; c+3 < len(data); c += 4 {
		ka, kb := int32(data[c]), int32(data[c+1])
		x, y := fuzzValue(data[c+2]), fuzzValue(data[c+3])
		switch layout % 4 {
		case layoutInterleaved:
			add(&ai, &av, seenA, ka, x)
			add(&bi, &bv, seenB, kb, y)
		case layoutIdentical:
			if kb&1 != 0 {
				y = -x
			}
			add(&ai, &av, seenA, ka, x)
			add(&bi, &bv, seenB, ka, y)
		case layoutDisjoint:
			lo, hi := ka, 256+kb
			if swap {
				lo, hi = 256+ka, kb
			}
			add(&ai, &av, seenA, lo, x)
			add(&bi, &bv, seenB, hi, y)
		case layoutOneSided:
			add(&ai, &av, seenA, ka, x)
		}
	}
	a, b = NewSparse(n, ai, av, op), NewSparse(n, bi, bv, op)
	if layout%4 == layoutOneSided && swap {
		a, b = b, a
	}
	return a, b
}

// FuzzTwoWayMergeEquivalence checks the branch-free two-way merge against
// the branchy reference, bit for bit and length for length, over all four
// operations and the key layouts above, and checks that Add and AddInto
// return what the kernel does.
func FuzzTwoWayMergeEquivalence(f *testing.F) {
	for op := uint8(0); op < 4; op++ {
		for layout := uint8(0); layout < 8; layout++ {
			f.Add(op, layout, []byte{9, 9, 200, 56, 3, 4, 0, 1, 4, 3, 2, 130, 250, 5, 3, 4, 17, 250, 144, 112, 6, 7, 5, 6})
		}
	}
	f.Add(uint8(0), uint8(layoutIdentical), []byte{1, 1, 136, 0, 2, 3, 144, 0, 3, 5, 152, 0})
	f.Add(uint8(3), uint8(layoutIdentical), []byte{1, 0, 144, 132, 2, 0, 160, 130})
	f.Fuzz(func(t *testing.T, op, layout uint8, data []byte) {
		a, b := twoWayInputs(Op(op%4), layout, data)
		wantIdx, wantVal := mergeSparseBranchy(a, b)
		bound := a.NNZ() + b.NNZ()
		gotIdx, gotVal := a.mergeSparseInto(b, make([]int32, 0, bound), make([]float64, 0, bound))
		want := &Vector{n: a.n, op: a.op, idx: wantIdx, val: wantVal}
		got := &Vector{n: a.n, op: a.op, idx: gotIdx, val: gotVal}
		assertSamePairs(t, got, want, "mergeSparseInto")
		added := a.Clone()
		added.Add(b)
		assertSamePairs(t, added, want, "Add")
		s := NewScratch()
		for range 2 { // cold, then warm: pooled buffers hold stale pairs
			into := a.CloneInto(s)
			into.AddInto(b, s)
			assertSamePairs(t, into, want, "AddInto")
			s.Release(into)
		}
	})
}

// rotatingPairs draws count distinct pairs of random sparse vectors over
// [0, n) with nnz entries a side.
func rotatingPairs(count, n, nnz int) [][2]*Vector {
	rng := rand.New(rand.NewSource(int64(nnz)))
	pairs := make([][2]*Vector, count)
	for i := range pairs {
		pairs[i] = [2]*Vector{randSparseExact(rng, n, nnz), randSparseExact(rng, n, nnz)}
	}
	return pairs
}

// BenchmarkAddIntoRotating times one recursive-doubling merge step —
// CloneInto plus AddInto from a warm Scratch — over 256 distinct random
// pairs in turn, so the branch predictor cannot learn one pair's
// interleaving the way it does when a single pair is merged over and over.
// ns/pair is per input pair.
func BenchmarkAddIntoRotating(b *testing.B) {
	for _, nnz := range []int{128, 256, 512} {
		b.Run(fmt.Sprintf("nnz=%d", nnz), func(b *testing.B) {
			pairs := rotatingPairs(256, 1<<16, nnz)
			s := NewScratch()
			i := 0
			for b.Loop() {
				p := pairs[i%len(pairs)]
				acc := p[0].CloneInto(s)
				acc.AddInto(p[1], s)
				s.Release(acc)
				i++
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(i*2*nnz), "ns/pair")
		})
	}
}
