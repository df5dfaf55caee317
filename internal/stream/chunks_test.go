package stream

import (
	"bytes"
	"math/rand"
	"testing"
)

// scatter deals the pairs of a random canonical vector out to parts
// vectors: by contiguous key range when ordered, else pair by pair at
// random, so the parts' supports interleave.
func scatter(rng *rand.Rand, n, nnz, parts int, ordered bool) (whole *Vector, dealt []*Vector) {
	perm := rng.Perm(n)[:nnz]
	idx := make([]int32, nnz)
	val := make([]float64, nnz)
	for i, ix := range perm {
		idx[i] = int32(ix)
		val[i] = float64(ix%97) + 0.5
	}
	whole = NewSparse(n, idx, val, OpSum)
	if ordered {
		return whole, whole.SplitChunks(parts, nil)
	}
	pi := make([][]int32, parts)
	pv := make([][]float64, parts)
	for i, ix := range idx {
		to := rng.Intn(parts)
		pi[to] = append(pi[to], ix)
		pv[to] = append(pv[to], val[i])
	}
	dealt = make([]*Vector, parts)
	for i := range dealt {
		dealt[i] = NewSparse(n, pi[i], pv[i], OpSum)
	}
	return whole, dealt
}

// TestConcatChunksRebuildsTheWhole: whichever way a vector's pairs are
// dealt out — end to end or interleaved, below δ or past it — ConcatChunks
// returns the vector itself, field for field, with and without a pool.
func TestConcatChunksRebuildsTheWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		n := 20 + rng.Intn(400)
		nnz := rng.Intn(n + 1) // up to full: past δ the whole is dense
		parts := 1 + rng.Intn(9)
		whole, dealt := scatter(rng, n, nnz, parts, trial%2 == 0)
		want := whole.AppendWire(nil)
		for _, s := range []*Scratch{nil, NewScratch()} {
			if got := ConcatChunks(dealt, s).AppendWire(nil); !bytes.Equal(got, want) {
				t.Fatalf("trial %d (n=%d nnz=%d parts=%d): reassembly differs from the vector dealt out", trial, n, nnz, parts)
			}
		}
	}
}

// TestConcatChunksPanicsOnSharedCoordinate in each of its three regimes:
// chunks end to end, chunks interleaved (where the shared pair may even
// cancel to the neutral element), and a union past δ.
func TestConcatChunksPanicsOnSharedCoordinate(t *testing.T) {
	mk := func(n int, idx []int32, val []float64) *Vector { return NewSparse(n, idx, val, OpSum) }
	var many []int32
	var ones []float64
	for i := int32(0); i < 15; i++ {
		many = append(many, i)
		ones = append(ones, 1)
	}
	for name, chunks := range map[string][]*Vector{
		"end to end":             {mk(100, []int32{1, 5}, []float64{1, 1}), mk(100, []int32{5, 9}, []float64{1, 1})},
		"interleaved":            {mk(100, []int32{1, 50}, []float64{1, 1}), mk(100, []int32{25, 50, 75}, []float64{1, 1, 1})},
		"interleaved, cancels":   {mk(100, []int32{1, 50}, []float64{1, 2}), mk(100, []int32{25, 50, 75}, []float64{1, -2, 1})},
		"past delta":             {mk(30, many, ones), mk(30, many[5:], ones[5:])},
		"dense chunk over pairs": {NewDense([]float64{0, 3, 0}, OpSum), mk(3, []int32{1}, []float64{1})},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: chunks sharing a coordinate were concatenated", name)
				}
			}()
			ConcatChunks(chunks, nil)
		}()
	}
}

// TestConcatChunksTakesBuffersOnce: the end-to-end path draws one index and
// one value buffer at the exact total — so a released result of the same
// size is all the next call needs — and the interleaved path hands its
// unused pair back.
func TestConcatChunksTakesBuffersOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, ordered := range []bool{true, false} {
		_, dealt := scatter(rng, 4000, 1200, 8, ordered)
		s := NewScratch()
		out := ConcatChunks(dealt, s)
		if cap(out.idx) != 1200 || cap(out.val) != 1200 {
			t.Fatalf("ordered=%v: result capacity %d/%d, want the exact 1200", ordered, cap(out.idx), cap(out.val))
		}
		s.Release(out)
		pooled := s.Buffers()
		allocs := testing.AllocsPerRun(10, func() { s.Release(ConcatChunks(dealt, s)) })
		// The k-way merge keeps a cursor array and a heap per call.
		if budget := map[bool]float64{true: 0, false: 2}[ordered]; allocs > budget {
			t.Errorf("ordered=%v: %v allocations per call with a warm pool, want ≤ %v", ordered, allocs, budget)
		}
		if s.Buffers() != pooled {
			t.Errorf("ordered=%v: pool went from %d to %d buffers", ordered, pooled, s.Buffers())
		}
	}
}

// TestConcatArrivalSortsFirst: an arrival that sorts before the held pairs
// is placed in front of them in buffers sized once for both.
func TestConcatArrivalSortsFirst(t *testing.T) {
	held := NewSparse(1000, []int32{500, 600, 700}, []float64{5, 6, 7}, OpSum)
	arrival := NewSparse(1000, []int32{1, 2, 3, 4, 5}, []float64{1, 2, 3, 4, 5}, OpSum)
	held.Concat(arrival)
	want := NewSparse(1000, []int32{1, 2, 3, 4, 5, 500, 600, 700}, []float64{1, 2, 3, 4, 5, 5, 6, 7}, OpSum)
	if !bytes.Equal(held.AppendWire(nil), want.AppendWire(nil)) {
		t.Fatalf("Concat = %v", held)
	}
	if cap(held.idx) != 8 || cap(held.val) != 8 {
		t.Fatalf("capacity %d/%d after placing 5 pairs before 3, want 8", cap(held.idx), cap(held.val))
	}
}

func TestWrapSparse(t *testing.T) {
	idx, val := []int32{2, 5, 9}, []float64{1, -1, 4}
	v := WrapSparse(10, idx, val, OpSum)
	if !bytes.Equal(v.AppendWire(nil), NewSparse(10, idx, val, OpSum).AppendWire(nil)) {
		t.Fatalf("WrapSparse = %v", v)
	}
	if got, _ := v.Pairs(); &got[0] != &idx[0] {
		t.Fatal("WrapSparse copied the indices")
	}
	// Past δ = 2 the result is dense, as NewSparse's is.
	if d := WrapSparse(3, []int32{0, 1, 2}, []float64{1, 2, 3}, OpSum); !d.IsDense() || d.Get(2) != 3 {
		t.Fatalf("WrapSparse past δ = %v", d)
	}
	if e := WrapSparse(4, nil, nil, OpMax); e.NNZ() != 0 || e.IsDense() {
		t.Fatalf("WrapSparse of nothing = %v", e)
	}
	// WrapSparseInto copies into a pool — here one holding stale storage —
	// and builds the same stream, sparse, past δ and empty.
	sc := NewScratch()
	sc.Release(NewDense([]float64{7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, OpMax))
	sc.Release(NewSparse(10, []int32{1, 3, 4, 8}, []float64{7, 7, 7, 7}, OpSum))
	for _, in := range []struct {
		n   int
		idx []int32
		val []float64
		op  Op
	}{{10, idx, val, OpSum}, {3, []int32{0, 1, 2}, []float64{1, 2, 3}, OpSum},
		{10, []int32{0, 2, 3, 4, 5, 6, 7, 9}, []float64{1, 2, 3, 4, 5, 6, 7, 8}, OpMax}, {4, nil, nil, OpMax}} {
		want := WrapSparse(in.n, in.idx, in.val, in.op).AppendWire(nil)
		got := WrapSparseInto(in.n, in.idx, in.val, in.op, sc)
		if !bytes.Equal(got.AppendWire(nil), want) {
			t.Fatalf("WrapSparseInto(%d, %v) = %v", in.n, in.idx, got)
		}
		if !got.IsDense() {
			if pairs, _ := got.Pairs(); len(pairs) > 0 && &pairs[0] == &in.idx[0] {
				t.Fatal("WrapSparseInto kept the caller's indices")
			}
		}
		sc.Release(got)
	}
	for name, bad := range map[string][]int32{
		"descending":   {5, 2},
		"duplicate":    {5, 5},
		"negative":     {-1, 2},
		"out of range": {2, 10},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s indices %v were wrapped", name, bad)
				}
			}()
			WrapSparse(10, bad, make([]float64, len(bad)), OpSum)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s indices %v were wrapped into a pool", name, bad)
				}
			}()
			WrapSparseInto(10, bad, make([]float64, len(bad)), OpSum, sc)
		}()
	}
}
