package stream

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestWireRoundTripFieldExact: AppendWire→DecodeWire must rebuild the
// vector field-exact — representation, op, δ, value-byte accounting — for
// sparse, dense, and non-default-δ vectors. reflect.DeepEqual inspects the
// unexported fields directly.
func TestWireRoundTripFieldExact(t *testing.T) {
	cases := []*Vector{
		NewSparse(100, []int32{1, 5, 99}, []float64{0.5, -1.25, 3}, OpSum),
		NewSparse(64, []int32{0}, []float64{-7}, OpMax),
		NewSparse(1000, nil, nil, OpMin),
		NewDense([]float64{1, 2, 3, 0, -5}, OpSum),
		NewDense(make([]float64, 17), OpProd),
	}
	// A vector with a non-default δ (SetDelta may densify; either way the
	// round trip must preserve the final state exactly).
	custom := NewSparse(50, []int32{2, 3, 4, 5, 6, 7}, []float64{1, 1, 1, 1, 1, 1}, OpSum)
	custom.SetDelta(3)
	cases = append(cases, custom)
	// Value-byte 4 accounting.
	vb4 := NewSparse(200, []int32{10, 20}, []float64{1.5, 2.5}, OpSum)
	vb4.SetValueBytes(4)
	cases = append(cases, vb4)

	for i, v := range cases {
		buf := v.AppendWire(nil)
		if len(buf) != v.WireSize() {
			t.Fatalf("case %d: WireSize %d, encoded %d", i, v.WireSize(), len(buf))
		}
		got, n, err := DecodeWire(buf)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if n != len(buf) {
			t.Fatalf("case %d: consumed %d of %d", i, n, len(buf))
		}
		if !reflect.DeepEqual(v, got) {
			t.Fatalf("case %d: round trip %+v != %+v", i, got, v)
		}
	}
}

// TestWireRejectsCorrupt: truncated buffers, bad ops, bad value-byte
// settings, and non-ascending indices must error.
func TestWireRejectsCorrupt(t *testing.T) {
	v := NewSparse(100, []int32{1, 5}, []float64{1, 2}, OpSum)
	buf := v.AppendWire(nil)
	if _, _, err := DecodeWire(buf[:10]); err == nil {
		t.Fatal("short header decoded")
	}
	if _, _, err := DecodeWire(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated body decoded")
	}
	bad := append([]byte(nil), buf...)
	bad[5] = 99 // op
	if _, _, err := DecodeWire(bad); err == nil {
		t.Fatal("bad op decoded")
	}
	bad = append([]byte(nil), buf...)
	bad[6] = 3 // value bytes
	if _, _, err := DecodeWire(bad); err == nil {
		t.Fatal("bad value bytes decoded")
	}
	bad = append([]byte(nil), buf...)
	// Swap the two indices so they descend.
	copy(bad[selfWireHeaderBytes:], []byte{5, 0, 0, 0})
	copy(bad[selfWireHeaderBytes+12:], []byte{1, 0, 0, 0})
	if _, _, err := DecodeWire(bad); err == nil {
		t.Fatal("descending indices decoded")
	}
}

// TestMergeKParallelMatchesSerial: MergeKParallel must be bit-identical to
// MergeK for any worker count, across sparse results, δ-spilling results,
// and every operation — including inputs engineered to make coordinates
// cancel to the neutral element mid-fold.
func TestMergeKParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		name    string
		n, k, P int
		op      Op
		delta   int // 0 = default
	}{
		{"sparse-stays", 1 << 16, 1500, 8, OpSum, 0},
		{"spills-dense", 1 << 14, 3000, 8, OpSum, 0},
		{"max", 1 << 15, 2000, 6, OpMax, 0},
		{"min", 1 << 15, 2000, 6, OpMin, 0},
		{"tiny-delta", 1 << 14, 1200, 5, OpSum, 100},
		{"two-streams", 1 << 15, 4000, 2, OpSum, 0},
	} {
		vs := make([]*Vector, tc.P)
		for r := range vs {
			idx := make([]int32, 0, tc.k)
			val := make([]float64, 0, tc.k)
			seen := map[int32]bool{}
			for len(idx) < tc.k {
				ix := int32(rng.Intn(tc.n))
				if seen[ix] {
					continue
				}
				seen[ix] = true
				idx = append(idx, ix)
			}
			sortInt32s(idx)
			for range idx {
				// ±powers of two: exact addition, and opposite signs force
				// mid-fold cancellations through the neutral element.
				v := float64(int(1) << rng.Intn(8))
				if rng.Intn(2) == 0 {
					v = -v
				}
				val = append(val, v)
			}
			vs[r] = NewSparse(tc.n, idx, val, tc.op)
			if tc.delta > 0 {
				vs[r].SetDelta(tc.delta)
			}
		}
		want := MergeK(vs, nil)
		for _, workers := range []int{1, 2, 3, 7, 16} {
			got := MergeKParallel(vs, workers)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s workers=%d: parallel merge differs from serial", tc.name, workers)
			}
		}
	}
}

// sortInt32s sorts ascending (insertion sort is fine at test sizes).
func sortInt32s(xs []int32) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
