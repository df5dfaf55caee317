package stream

import (
	"math/rand"
	"testing"

	"repro/internal/pin"
)

// windowStreams builds k sparse streams of dimension n whose supports are
// nnz distinct coordinates drawn from [lo, lo+width), with quarter-integer
// values (so sums are exact and streams cancel each other now and then).
// For OpProd the values are powers of two, whose products hit the neutral 1.
func windowStreams(rng *rand.Rand, n, lo, width, k, nnz int, op Op) []*Vector {
	vs := make([]*Vector, k)
	for r := range vs {
		idx := make([]int32, 0, nnz)
		val := make([]float64, 0, nnz)
		for _, off := range rng.Perm(width)[:nnz] {
			x := float64(1+rng.Intn(8)) / 4
			if op == OpProd {
				x = []float64{0.25, 0.5, 2, 4}[rng.Intn(4)]
			} else if rng.Intn(2) == 0 {
				x = -x
			}
			idx = append(idx, int32(lo+off))
			val = append(val, x)
		}
		vs[r] = NewSparse(n, idx, val, op)
	}
	return vs
}

// mergeDigestCases is the pinned table: shapes on both sides of the
// windowed-scatter rule of AddAll (see merge.go), window edges on 64-bit
// word boundaries, the δ edge, every operation, and cancellation followed
// by a later stream re-setting the coordinate.
func mergeDigestCases() map[string][]*Vector {
	rng := rand.New(rand.NewSource(2222)) // one stream: the tables below are slices, so draw order is fixed
	cases := map[string][]*Vector{
		// The split phase of gor-bandwidth and tcp-dense-q4: P = 8, one
		// partition of N = 2^20.
		"8x8k/131072@2^20":  windowStreams(rand.New(rand.NewSource(1)), 1<<20, 3<<17, 1<<17, 8, 8<<10, OpSum),
		"8x16k/131072@2^20": windowStreams(rand.New(rand.NewSource(2)), 1<<20, 3<<17, 1<<17, 8, 16<<10, OpSum),
		// BENCH_3's fan-ins: full-width streams of 2000 pairs.
		"64x2000@2^18": windowStreams(rand.New(rand.NewSource(3)), 1<<18, 0, 1<<18, 64, 2000, OpSum),
		"16x2000@2^18": windowStreams(rand.New(rand.NewSource(4)), 1<<18, 0, 1<<18, 16, 2000, OpSum),
		"4x2000@2^18":  windowStreams(rand.New(rand.NewSource(5)), 1<<18, 0, 1<<18, 4, 2000, OpSum),
		// Very sparse and wide: three streams of 40 over 2^16.
		"3x40@2^16": windowStreams(rand.New(rand.NewSource(6)), 1<<16, 0, 1<<16, 3, 40, OpSum),
		// x + (−x) + y at one coordinate, and a cancellation nobody refills.
		"cancel-refill": {
			NewSparse(100, []int32{7, 9, 11}, []float64{2, 1, 3}, OpSum),
			NewSparse(100, []int32{7, 11}, []float64{-2, -3}, OpSum),
			NewSparse(100, []int32{7}, []float64{5}, OpSum),
		},
	}
	// Windows that start and end on, just before and just after a word
	// boundary of the presence bitmap.
	for _, w := range []struct {
		name      string
		lo, width int
	}{
		{"word/64..127", 64, 64}, {"word/63..64", 63, 2}, {"word/0..63", 0, 64},
		{"word/128..192", 128, 65}, {"word/1..128", 1, 128}, {"word/127..255", 127, 129},
	} {
		for _, op := range []Op{OpSum, OpMax, OpMin, OpProd} {
			vs := windowStreams(rng, 1024, w.lo, w.width, 5, (w.width+1)/2, op)
			// Pin both window edges whatever the permutation drew.
			vs[0] = NewSparse(1024, []int32{int32(w.lo), int32(w.lo + w.width - 1)}, []float64{0.5, 4}, op)
			cases[w.name+"/"+op.String()] = vs
		}
	}
	// The δ edge: Σ nnz == δ can never spill, Σ nnz == δ+1 may (disjoint
	// supports: it does; overlapping supports: it stays sparse).
	for _, c := range []struct {
		name     string
		delta    int
		disjoint bool
	}{
		{"total==delta", 120, false}, {"total==delta+1", 119, false},
		{"total==delta/disjoint", 120, true}, {"total==delta+1/disjoint", 119, true},
	} {
		vs := windowStreams(rng, 4096, 512, 200, 4, 30, OpSum)
		if c.disjoint {
			for r := range vs {
				idx := make([]int32, 30)
				val := make([]float64, 30)
				for i := range idx {
					idx[i], val[i] = int32(512+4*i+r), float64(r+1)
				}
				vs[r] = NewSparse(4096, idx, val, OpSum)
			}
		}
		for _, v := range vs {
			v.SetDelta(c.delta)
		}
		cases[c.name] = vs
	}
	return cases
}

// TestAddAllDigests pins the bytes of AddAll and MergeK results across
// commits: the ledger entry stream/addall/<case> is the SHA-256 over the
// AppendWire form (representation, δ, indices, value bits) of MergeK(vs) —
// AddAll into an empty v — followed by vs[0].Clone().AddAll(vs[1:]) with a
// nil and with a warm Scratch. Recorded at the commit before the
// windowed-scatter kernel; a kernel change that moves one bit of one
// result fails here.
func TestAddAllDigests(t *testing.T) {
	sc := NewScratch()
	pin.Prefix(t, "stream/addall")
	for name, vs := range mergeDigestCases() {
		h := pin.New()
		h.Write(MergeK(vs, nil).AppendWire(nil))
		for _, s := range []*Scratch{nil, sc, sc} {
			acc := vs[0].Clone()
			acc.AddAll(vs[1:], s)
			h.Write(acc.AppendWire(nil))
			s.Release(acc)
		}
		pin.Check(t, "stream/addall/"+name, h)
	}
}
