package stream

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randVector builds a random vector with the given density; half the time
// it is stored dense to exercise representation-mixing paths.
func randVector(rng *rand.Rand, n int, density float64, op Op) *Vector {
	dense := make([]float64, n)
	neutral := op.Neutral()
	for i := range dense {
		if rng.Float64() < density {
			dense[i] = math.Round(rng.NormFloat64()*8) / 4 // dyadic: exact float sums
		} else {
			dense[i] = neutral
		}
	}
	v := FromDense(dense, op)
	if rng.Intn(2) == 0 {
		v.Densify()
	}
	return v
}

func addRef(op Op, a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = op.Combine(a[i], b[i])
	}
	return out
}

func TestAddMatchesDenseReferenceAllRepresentations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, op := range []Op{OpSum, OpMax, OpMin} {
		for trial := 0; trial < 50; trial++ {
			n := 1 + rng.Intn(300)
			a := randVector(rng, n, rng.Float64(), op)
			b := randVector(rng, n, rng.Float64(), op)
			want := addRef(op, a.ToDense(), b.ToDense())
			a.Add(b)
			got := a.ToDense()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("op=%s trial=%d coord=%d: got %g want %g", op, trial, i, got[i], want[i])
				}
			}
		}
	}
}

func TestAddCancellationDropsEntry(t *testing.T) {
	a := NewSparse(10, []int32{3, 5}, []float64{2, 1}, OpSum)
	b := NewSparse(10, []int32{3}, []float64{-2}, OpSum)
	a.Add(b)
	if a.NNZ() != 1 {
		t.Fatalf("NNZ after cancellation = %d, want 1", a.NNZ())
	}
	if a.Get(3) != 0 {
		t.Fatalf("cancelled coordinate = %g, want 0", a.Get(3))
	}
}

func TestAddSwitchesToDenseAtThreshold(t *testing.T) {
	n := 30 // δ = 20
	a := Zero(n, OpSum)
	b := Zero(n, OpSum)
	ai := make([]int32, 0)
	bi := make([]int32, 0)
	for i := 0; i < 12; i++ {
		ai = append(ai, int32(i))
		bi = append(bi, int32(n-1-i))
	}
	ones := make([]float64, 12)
	for i := range ones {
		ones[i] = 1
	}
	a = NewSparse(n, ai, ones, OpSum)
	b = NewSparse(n, bi, ones, OpSum)
	if a.IsDense() || b.IsDense() {
		t.Fatal("inputs should be sparse")
	}
	a.Add(b) // bound 12+12=24 > δ=20 → dense even though union is 24 ≤ n
	if !a.IsDense() {
		t.Fatal("Add must switch to dense when |H1|+|H2| > δ")
	}
	if a.NNZ() != 24 {
		t.Fatalf("NNZ = %d, want 24", a.NNZ())
	}
}

func TestAddStaysSparseBelowThreshold(t *testing.T) {
	n := 300
	a := NewSparse(n, []int32{1, 5}, []float64{1, 1}, OpSum)
	b := NewSparse(n, []int32{2, 5}, []float64{1, 1}, OpSum)
	a.Add(b)
	if a.IsDense() {
		t.Fatal("small merge should remain sparse")
	}
	if a.NNZ() != 3 || a.Get(5) != 2 {
		t.Fatalf("merge wrong: nnz=%d Get(5)=%g", a.NNZ(), a.Get(5))
	}
}

func TestConcatDisjointOrderedRanges(t *testing.T) {
	a := NewSparse(100, []int32{1, 3}, []float64{1, 3}, OpSum)
	b := NewSparse(100, []int32{50, 70}, []float64{50, 70}, OpSum)
	a.Concat(b)
	if a.NNZ() != 4 || a.Get(70) != 70 {
		t.Fatalf("concat wrong: %v", a)
	}
	// Reverse order concatenation.
	c := NewSparse(100, []int32{80}, []float64{80}, OpSum)
	d := NewSparse(100, []int32{2}, []float64{2}, OpSum)
	c.Concat(d)
	if c.NNZ() != 2 || c.Get(2) != 2 || c.Get(80) != 80 {
		t.Fatalf("reverse concat wrong: %v", c)
	}
}

func TestConcatInterleavedDisjoint(t *testing.T) {
	a := NewSparse(100, []int32{1, 50}, []float64{1, 50}, OpSum)
	b := NewSparse(100, []int32{25, 75}, []float64{25, 75}, OpSum)
	a.Concat(b)
	if a.NNZ() != 4 {
		t.Fatalf("NNZ = %d, want 4", a.NNZ())
	}
}

func TestConcatPanicsOnOverlap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on overlapping Concat")
		}
	}()
	a := NewSparse(100, []int32{1, 50}, []float64{1, 50}, OpSum)
	b := NewSparse(100, []int32{50}, []float64{5}, OpSum)
	a.Concat(b)
}

// Regression: the densify path of Concat (taken when |H1|+|H2| > δ) used
// to fold overlapping entries silently instead of honoring the documented
// overlap panic.
func TestConcatPanicsOnOverlapViaDensifyPath(t *testing.T) {
	n := 30 // δ = 20
	mk := func(start, count int, extra ...int32) *Vector {
		var idx []int32
		var val []float64
		for i := start; i < start+count; i++ {
			idx = append(idx, int32(i))
			val = append(val, 1)
		}
		for _, e := range extra {
			idx = append(idx, e)
			val = append(val, 1)
		}
		return NewSparse(n, idx, val, OpSum)
	}
	a := mk(0, 12)
	b := mk(15, 11, 5) // 12+12 > δ → densify path; index 5 overlaps a
	defer func() {
		if recover() == nil {
			t.Fatal("expected overlap panic on the Concat densify path")
		}
	}()
	a.Concat(b)
}

// The densify path must still succeed (and stay correct) for genuinely
// disjoint inputs whose combined size exceeds δ.
func TestConcatDensifyPathDisjointSucceeds(t *testing.T) {
	n := 30 // δ = 20
	var ai, bi []int32
	var av, bv []float64
	for i := 0; i < 12; i++ {
		ai = append(ai, int32(i))
		av = append(av, float64(i+1))
		bi = append(bi, int32(i+15))
		bv = append(bv, float64(i+100))
	}
	a := NewSparse(n, ai, av, OpSum)
	b := NewSparse(n, bi, bv, OpSum)
	a.Concat(b)
	if !a.IsDense() {
		t.Fatal("combined size 24 > δ=20 must densify")
	}
	if a.NNZ() != 24 || a.Get(0) != 1 || a.Get(15) != 100 {
		t.Fatalf("densify-path concat wrong: %v", a)
	}
}

// Regression: ExtractRange on a dense input used to return a sparse vector
// with more than δ entries — a non-canonical representation that under-
// reports wire bytes and breaks the δ invariant downstream.
func TestExtractRangeDenseInputStaysCanonical(t *testing.T) {
	n := 30 // δ = 20
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	v := NewDense(vals, OpSum)
	out := v.ExtractRange(0, 25) // 25 non-neutral coords > δ
	if !out.IsDense() {
		t.Fatalf("range with %d > δ=%d entries must come back dense", out.NNZ(), out.Delta())
	}
	for i := 0; i < 25; i++ {
		if out.Get(i) != float64(i+1) {
			t.Fatalf("coord %d = %g, want %g", i, out.Get(i), float64(i+1))
		}
	}
	for i := 25; i < n; i++ {
		if out.Get(i) != 0 {
			t.Fatalf("coord %d outside range must be 0, got %g", i, out.Get(i))
		}
	}
	// Below δ the sparse representation is kept.
	small := v.ExtractRange(0, 5)
	if small.IsDense() || small.NNZ() != 5 {
		t.Fatalf("small range must stay sparse: %v", small)
	}
}

func TestExtractRange(t *testing.T) {
	v := NewSparse(100, []int32{5, 25, 50, 75}, []float64{5, 25, 50, 75}, OpSum)
	part := v.ExtractRange(25, 75)
	if part.NNZ() != 2 || part.Get(25) != 25 || part.Get(50) != 50 {
		t.Fatalf("ExtractRange wrong: %v", part)
	}
	if part.Get(75) != 0 {
		t.Fatal("ExtractRange must exclude hi")
	}
	v.Densify()
	part2 := v.ExtractRange(25, 75)
	if !part.Equal(part2) {
		t.Fatal("dense and sparse ExtractRange disagree")
	}
}

func TestExtractRangePartitionCoversVector(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := randVector(rng, 257, 0.2, OpSum)
	parts := 8
	sum := Zero(257, OpSum)
	for p := 0; p < parts; p++ {
		lo := p * 257 / parts
		hi := (p + 1) * 257 / parts
		sum.Concat(v.ExtractRange(lo, hi))
	}
	if !sum.Equal(v) {
		t.Fatal("partition concat does not recover the vector")
	}
}

func TestScale(t *testing.T) {
	v := NewSparse(10, []int32{1, 2}, []float64{2, 4}, OpSum)
	v.Scale(0.5)
	if v.Get(1) != 1 || v.Get(2) != 2 {
		t.Fatal("sparse Scale wrong")
	}
	v.Densify()
	v.Scale(2)
	if v.Get(1) != 2 || v.Get(2) != 4 {
		t.Fatal("dense Scale wrong")
	}
}

// Property: Add is commutative for OpSum on dyadic rationals.
func TestQuickAddCommutative(t *testing.T) {
	type input struct {
		Seed int64
	}
	f := func(in input) bool {
		rng := rand.New(rand.NewSource(in.Seed))
		n := 1 + rng.Intn(128)
		a := randVector(rng, n, 0.3, OpSum)
		b := randVector(rng, n, 0.3, OpSum)
		x := a.Clone()
		x.Add(b)
		y := b.Clone()
		y.Add(a)
		return x.Equal(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Add is associative for OpSum on dyadic rationals (exact in
// binary floating point, so representation switching cannot change results).
func TestQuickAddAssociative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(128)
		a := randVector(rng, n, 0.3, OpSum)
		b := randVector(rng, n, 0.3, OpSum)
		c := randVector(rng, n, 0.3, OpSum)
		x := a.Clone()
		x.Add(b)
		x.Add(c)
		bc := b.Clone()
		bc.Add(c)
		y := a.Clone()
		y.Add(bc)
		return x.Equal(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding the zero vector is the identity.
func TestQuickAddIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(128)
		a := randVector(rng, n, 0.3, OpSum)
		before := a.Clone()
		a.Add(Zero(n, OpSum))
		return a.Equal(before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAddSparseSparseMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 1 << 20
	a := randSparseExact(rng, n, 1000)
	c := randSparseExact(rng, n, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := a.Clone()
		x.Add(c)
	}
}

func randSparseExact(rng *rand.Rand, n, k int) *Vector {
	seen := make(map[int32]bool, k)
	idx := make([]int32, 0, k)
	val := make([]float64, 0, k)
	for len(idx) < k {
		ix := int32(rng.Intn(n))
		if seen[ix] {
			continue
		}
		seen[ix] = true
		idx = append(idx, ix)
		val = append(val, rng.NormFloat64())
	}
	return NewSparse(n, idx, val, OpSum)
}
