package stream

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// chainAdd computes the chained two-way reference reduction: clone vs[0]
// and Add the rest in order.
func chainAdd(vs []*Vector) *Vector {
	acc := vs[0].Clone()
	for _, o := range vs[1:] {
		acc.Add(o)
	}
	return acc
}

// assertBitIdentical fails unless got and want agree bit-for-bit on every
// coordinate (math.Float64bits, so -0.0 vs 0.0 and NaN patterns count).
func assertBitIdentical(t *testing.T, got, want *Vector, ctx string) {
	t.Helper()
	if got.Dim() != want.Dim() {
		t.Fatalf("%s: dim %d vs %d", ctx, got.Dim(), want.Dim())
	}
	g, w := got.ToDense(), want.ToDense()
	for i := range w {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("%s: coord %d: got %x (%g) want %x (%g)",
				ctx, i, math.Float64bits(g[i]), g[i], math.Float64bits(w[i]), w[i])
		}
	}
}

// adversarialFamilies generates stream sets engineered to stress the k-way
// merge: full-overlap cancellation to the neutral element, disjoint
// interleavings, identical supports, empty streams, dense mixes, and tiny
// δ forcing densification mid-merge.
func adversarialFamilies(rng *rand.Rand, n, k, P int) [][]*Vector {
	var fams [][]*Vector

	// Full cancellation: v and -v in sequence, repeated.
	base := randSparseExact(rng, n, k)
	neg := base.Clone()
	neg.Scale(-1)
	cancel := []*Vector{base, neg}
	for len(cancel) < P {
		cancel = append(cancel, base.Clone(), neg.Clone())
	}
	fams = append(fams, cancel[:P])

	// Identical supports (§5.3 case 2).
	idx, _ := base.Pairs()
	ident := make([]*Vector, P)
	for r := range ident {
		val := make([]float64, len(idx))
		for i := range val {
			val[i] = math.Round(rng.NormFloat64()*8) / 4
			if val[i] == 0 {
				val[i] = 0.25
			}
		}
		ident[r] = NewSparse(n, append([]int32(nil), idx...), val, OpSum)
	}
	fams = append(fams, ident)

	// Disjoint striped supports (§5.3 case 1).
	disj := make([]*Vector, P)
	for r := range disj {
		var di []int32
		var dv []float64
		for i := r; i < n && len(di) < k; i += P {
			di = append(di, int32(i))
			dv = append(dv, float64(r+1))
		}
		disj[r] = NewSparse(n, di, dv, OpSum)
	}
	fams = append(fams, disj)

	// Empty streams interleaved with random ones.
	empt := make([]*Vector, P)
	for r := range empt {
		if r%2 == 0 {
			empt[r] = Zero(n, OpSum)
		} else {
			empt[r] = randSparseExact(rng, n, k)
		}
	}
	fams = append(fams, empt)

	// Dense inputs mixed in.
	mix := make([]*Vector, P)
	for r := range mix {
		mix[r] = randSparseExact(rng, n, k)
		if r%3 == 1 {
			mix[r].Densify()
		}
	}
	fams = append(fams, mix)

	// Tiny δ: densification mid-merge.
	tiny := make([]*Vector, P)
	for r := range tiny {
		tiny[r] = randSparseExact(rng, n, k)
		tiny[r].SetDelta(k + k/2)
	}
	fams = append(fams, tiny)

	return fams
}

func TestMergeKMatchesChainedAddAdversarial(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, P := range []int{2, 3, 5, 8, 17} {
		for fi, vs := range adversarialFamilies(rng, 500, 40, P) {
			want := chainAdd(vs)
			got := MergeK(vs, nil)
			assertBitIdentical(t, got, want, "family")
			if got.IsDense() && !want.IsDense() {
				t.Fatalf("P=%d family=%d: MergeK densified where the chain stayed sparse", P, fi)
			}
			// With a warm scratch, same answer.
			s := NewScratch()
			got2 := MergeK(vs, s)
			got3 := MergeK(vs, s) // second pass reuses the pool
			assertBitIdentical(t, got2, want, "scratch-cold")
			assertBitIdentical(t, got3, want, "scratch-warm")
		}
	}
}

func TestMergeKCancellationToNeutralDropsEntries(t *testing.T) {
	// x + (−x) + y at one index must yield exactly y, with the intermediate
	// neutral dropped, matching the chained merges.
	a := NewSparse(100, []int32{7, 9}, []float64{2, 1}, OpSum)
	b := NewSparse(100, []int32{7}, []float64{-2}, OpSum)
	c := NewSparse(100, []int32{7}, []float64{5}, OpSum)
	got := MergeK([]*Vector{a, b, c}, nil)
	want := chainAdd([]*Vector{a, b, c})
	assertBitIdentical(t, got, want, "cancel-then-refill")
	if got.Get(7) != 5 || got.NNZ() != 2 {
		t.Fatalf("got %v, want entries {7:5, 9:1}", got)
	}
	// Cancellation with no refill must drop the coordinate entirely.
	got2 := MergeK([]*Vector{a, b}, nil)
	if got2.NNZ() != 1 || got2.Get(7) != 0 {
		t.Fatalf("cancelled coordinate survives: %v", got2)
	}
}

func TestAddAllMatchesChainedAddRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(400)
		P := 2 + rng.Intn(9)
		op := []Op{OpSum, OpMax, OpMin}[rng.Intn(3)]
		vs := make([]*Vector, P)
		for r := range vs {
			vs[r] = randVector(rng, n, rng.Float64()*0.5, op)
		}
		want := chainAdd(vs)
		got := vs[0].Clone()
		got.AddAll(vs[1:], NewScratch())
		assertBitIdentical(t, got, want, op.String())
	}
}

// Property (quick-check): MergeK ≡ chained Add on random dyadic streams of
// random shapes, operations, and representations.
func TestQuickMergeKEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(256)
		P := 1 + rng.Intn(12)
		vs := make([]*Vector, P)
		for r := range vs {
			vs[r] = randVector(rng, n, rng.Float64()*0.6, OpSum)
		}
		want := chainAdd(vs)
		got := MergeK(vs, NewScratch())
		g, w := got.ToDense(), want.ToDense()
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzMergeKEquivalence drives the equivalence from raw fuzz bytes:
// index/value pairs are decoded from data, duplicated across a variable
// number of streams with sign flips to provoke cancellation. The high bit of
// streams picks the key layout — clear: every index inside a window of at
// most 254 coordinates, which AddAll reduces by windowed scatter; set: the
// same bytes strewn over 2^16 coordinates, which keeps the heap — and
// whenever the inputs qualify for the all-sparse kernels both are run on
// them and compared pair for pair.
func FuzzMergeKEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(3), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(int64(99), uint8(7), []byte{0, 0, 0, 0, 255, 255})
	f.Add(int64(1), uint8(128+3), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(int64(5), uint8(128+11), []byte{0, 9, 200, 9, 0, 247, 64, 1, 63, 1})
	f.Fuzz(func(t *testing.T, seed int64, streams uint8, data []byte) {
		P := 1 + int(streams&0x7f)%12
		window := 64 + int((seed%191+191)%191)
		n, stride := window, 1
		if streams&0x80 != 0 {
			n, stride = 1<<16, 257
		}
		rng := rand.New(rand.NewSource(seed))
		vs := make([]*Vector, P)
		for r := range vs {
			var idx []int32
			var val []float64
			seen := map[int32]bool{}
			for i := 0; i+1 < len(data); i += 2 {
				ix := int32(int(data[i]) % window * stride)
				if seen[ix] {
					continue
				}
				seen[ix] = true
				v := float64(int(data[i+1])-128) / 8
				if v == 0 {
					continue
				}
				if rng.Intn(2) == 0 {
					v = -v
				}
				idx = append(idx, ix)
				val = append(val, v)
			}
			vs[r] = NewSparse(n, idx, val, OpSum)
			if rng.Intn(4) == 0 {
				vs[r].Densify()
			}
			if rng.Intn(4) == 0 {
				vs[r].SetDelta(1 + rng.Intn(n))
			}
		}
		want := chainAdd(vs)
		got := MergeK(vs, NewScratch())
		g, w := got.ToDense(), want.ToDense()
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("coord %d: got %g want %g", i, g[i], w[i])
			}
		}
		if windowed, heap, ok := bothKernels(vs, NewScratch()); ok {
			assertSamePairs(t, windowed, heap, "windowed vs heap")
		}
	})
}

// bothKernels reduces vs with each all-sparse kernel of AddAll, whatever the
// window rule would have picked, when the inputs allow both: every stream
// sparse, at least one pair, Σ nnz ≤ δ.
func bothKernels(vs []*Vector, s *Scratch) (windowed, heap *Vector, ok bool) {
	total := 0
	lo, hi := int32(vs[0].n), int32(-1)
	for _, v := range vs {
		if v.dns != nil {
			return nil, nil, false
		}
		total += len(v.idx)
		lo, hi = keyEnds(v.idx, lo, hi)
	}
	if total == 0 || total > vs[0].delta {
		return nil, nil, false
	}
	windowed, heap = vs[0].Clone(), vs[0].Clone()
	windowed.addAllWindowed(vs[1:], int(lo), int(hi-lo)+1, s)
	heap.addAllHeap(vs[1:], total, s)
	return windowed, heap, true
}

// assertSamePairs fails unless got and want are the same vector pair for
// pair: representation, indices and value bits. ToDense equality is not
// enough — a kernel that kept a cancelled coordinate as an explicit zero
// would pass it.
func assertSamePairs(t *testing.T, got, want *Vector, ctx string) {
	t.Helper()
	if got.IsDense() != want.IsDense() {
		t.Fatalf("%s: dense=%v, want dense=%v", ctx, got.IsDense(), want.IsDense())
	}
	if len(got.idx) != len(want.idx) || len(got.val) != len(want.val) {
		t.Fatalf("%s: %d pairs, want %d", ctx, len(got.idx), len(want.idx))
	}
	for i := range want.idx {
		if got.idx[i] != want.idx[i] || math.Float64bits(got.val[i]) != math.Float64bits(want.val[i]) {
			t.Fatalf("%s: pair %d is (%d, %x), want (%d, %x)", ctx, i,
				got.idx[i], math.Float64bits(got.val[i]), want.idx[i], math.Float64bits(want.val[i]))
		}
	}
	for i := range want.dns {
		if math.Float64bits(got.dns[i]) != math.Float64bits(want.dns[i]) {
			t.Fatalf("%s: dense coord %d is %x, want %x", ctx, i, math.Float64bits(got.dns[i]), math.Float64bits(want.dns[i]))
		}
	}
}

// TestWindowedKernelMatchesHeap runs both all-sparse kernels on the pinned
// digest table (both sides of the window rule, word-boundary windows, every
// operation, cancel-then-refill) with a nil, a cold and a warm Scratch —
// AddAll keeps the heap without a pool, but the kernel itself stays
// nil-safe — and on random windows of random width, and compares the
// results pair for pair.
func TestWindowedKernelMatchesHeap(t *testing.T) {
	warm := NewScratch()
	check := func(name string, vs []*Vector) (compared bool) {
		t.Helper()
		for _, s := range []*Scratch{nil, NewScratch(), warm} {
			windowed, heap, ok := bothKernels(vs, s)
			if !ok {
				return false
			}
			assertSamePairs(t, windowed, heap, name)
			if s == nil && cap(windowed.idx) != len(windowed.idx) {
				t.Fatalf("%s: windowed output holds %d pairs in a buffer of %d, want an exact fit", name, len(windowed.idx), cap(windowed.idx))
			}
			s.Release(windowed)
			s.Release(heap)
		}
		return true
	}
	compared := 0
	for name, vs := range mergeDigestCases() {
		if check(name, vs) {
			compared++
		}
	}
	if compared < 30 {
		t.Fatalf("only %d table cases qualified for both kernels", compared)
	}
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 300; trial++ {
		n := 64 + rng.Intn(1<<14)
		width := 1 + rng.Intn(n)
		lo := rng.Intn(n - width + 1)
		op := []Op{OpSum, OpMax, OpMin, OpProd}[rng.Intn(4)]
		k := 3 + rng.Intn(10)
		nnz := rng.Intn(min(width, n/(2*k)) + 1)
		vs := windowStreams(rng, n, lo, width, k, nnz, op)
		if rng.Intn(3) == 0 {
			vs[rng.Intn(k)] = Zero(n, op)
		}
		check(fmt.Sprintf("trial %d (%s, %d streams of %d in %d)", trial, op, k, nnz, width), vs)
	}
}

// TestAddAllPicksKernelByWindow shows the fork is taken where the doc says:
// the windowed kernel leaves an exact-fit output (its sweep counts before
// it emits), the heap a Σ nnz-sized buffer. 8×512 pairs run windowed when
// packed into 4096 coordinates or spread over 2^15 (eight slots a pair), on
// the heap when strewn over 2^20 — and on the heap at any width when there
// is no Scratch to draw the window from.
func TestAddAllPicksKernelByWindow(t *testing.T) {
	const total = 8 << 9
	rng := rand.New(rand.NewSource(89))
	for _, c := range []struct {
		width    int
		pool     *Scratch
		windowed bool
	}{
		{1 << 12, NewScratch(), true},
		{1 << 15, NewScratch(), true},
		{1 << 20, NewScratch(), false},
		{1 << 12, nil, false},
	} {
		out := MergeK(windowStreams(rng, 1<<20, 0, c.width, 8, total/8, OpSum), c.pool)
		wantCap := total
		if c.windowed {
			wantCap = len(out.idx)
		}
		if cap(out.idx) != wantCap {
			t.Errorf("width %d, pooled=%v: %d pairs in a buffer of %d, want windowed=%v",
				c.width, c.pool != nil, len(out.idx), cap(out.idx), c.windowed)
		}
	}
}

func TestAddIntoMatchesAddExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	s := NewScratch()
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(300)
		op := []Op{OpSum, OpMax, OpMin, OpProd}[rng.Intn(4)]
		a := randVector(rng, n, rng.Float64()*0.6, op)
		b := randVector(rng, n, rng.Float64()*0.6, op)
		ref := a.Clone()
		ref.Add(b)
		a.AddInto(b, s)
		assertBitIdentical(t, a, ref, "AddInto")
		if a.IsDense() != ref.IsDense() {
			t.Fatalf("trial %d: AddInto representation (dense=%v) diverges from Add (dense=%v)",
				trial, a.IsDense(), ref.IsDense())
		}
	}
}

func TestMergeKSingleAndEmptyInputs(t *testing.T) {
	v := NewSparse(50, []int32{3}, []float64{1}, OpSum)
	got := MergeK([]*Vector{v}, nil)
	assertBitIdentical(t, got, v, "single")
	zeros := []*Vector{Zero(50, OpSum), Zero(50, OpSum), Zero(50, OpSum)}
	if MergeK(zeros, nil).NNZ() != 0 {
		t.Fatal("merge of empty streams must be empty")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MergeK of no inputs must panic")
		}
	}()
	MergeK(nil, nil)
}

func TestMergeKMismatchPanics(t *testing.T) {
	a := NewSparse(50, []int32{3}, []float64{1}, OpSum)
	b := NewSparse(60, []int32{3}, []float64{1}, OpSum)
	c := NewSparse(50, []int32{3}, []float64{1}, OpMax)
	for name, vs := range map[string][]*Vector{
		"dim": {a, b}, "op": {a, c},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s mismatch must panic", name)
				}
			}()
			MergeK(vs, nil)
		}()
	}
}

func TestMergeKDensifiesPastDelta(t *testing.T) {
	// Three disjoint streams whose union exceeds δ must densify mid-merge
	// and still be value-identical to the chain.
	n := 30 // δ = 20
	mk := func(start int) *Vector {
		var idx []int32
		var val []float64
		for i := start; i < start+10; i++ {
			idx = append(idx, int32(i))
			val = append(val, 1)
		}
		return NewSparse(n, idx, val, OpSum)
	}
	vs := []*Vector{mk(0), mk(10), mk(20)}
	want := chainAdd(vs)
	got := MergeK(vs, NewScratch())
	assertBitIdentical(t, got, want, "spill")
	if !got.IsDense() {
		t.Fatalf("union of 30 > δ=20 must densify, nnz=%d", got.NNZ())
	}
}

func TestCloneIntoAndDensifyInto(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	s := NewScratch()
	for trial := 0; trial < 40; trial++ {
		v := randVector(rng, 1+rng.Intn(200), 0.3, OpSum)
		c := v.CloneInto(s)
		assertBitIdentical(t, c, v, "CloneInto")
		if c.IsDense() != v.IsDense() {
			t.Fatal("CloneInto changed representation")
		}
		// Mutating the clone must not affect the original.
		c.Scale(3)
		d := v.Clone()
		d.DensifyInto(s)
		assertBitIdentical(t, d, v, "DensifyInto")
		if !d.IsDense() {
			t.Fatal("DensifyInto left vector sparse")
		}
		s.Release(c)
		s.Release(d)
	}
}

// BenchmarkAddAllWindowCrossover measures both all-sparse kernels of AddAll
// on the same inputs — 3 streams (the narrowest fan-in AddAll's k-way case
// sees, where the heap is cheapest) and 8 (the split phase at P = 8), 2^16
// pairs in all, supports uniform over a joint key window of
// width/total ∈ {1 … 64}, with a warm Scratch — and reports ns per input
// pair. The table beside windowMaxSpread is read off this sweep.
func BenchmarkAddAllWindowCrossover(b *testing.B) {
	const total, lo = 1 << 16, 1 << 20
	for _, streams := range []int{3, 8} {
		for _, spread := range []int{1, 2, 4, 8, 16, 32, 64} {
			width := spread * total
			vs := windowStreams(rand.New(rand.NewSource(int64(spread))), 1<<23, lo, width, streams, total/streams, OpSum)
			kernels := []struct {
				name string
				run  func(acc *Vector, s *Scratch)
			}{
				{"window", func(acc *Vector, s *Scratch) { acc.addAllWindowed(vs[1:], lo, width, s) }},
				{"heap", func(acc *Vector, s *Scratch) { acc.addAllHeap(vs[1:], total, s) }},
			}
			for _, k := range kernels {
				b.Run(fmt.Sprintf("streams=%d/spread=%d/%s", streams, spread, k.name), func(b *testing.B) {
					sc := NewScratch()
					for i := 0; i < b.N; i++ {
						acc := vs[0].CloneInto(sc)
						k.run(acc, sc)
						sc.Release(acc)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/total, "ns/pair")
				})
			}
		}
	}
}
