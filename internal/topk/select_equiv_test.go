package topk

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/stream"
)

// referenceBuckets is per-bucket selection by the reference Select: the
// indices it returns per bucket, their values gathered, and NewSparse left
// to drop the zeros — what SparsifyBuckets was before appendTopK.
func referenceBuckets(v []float64, bucket, k int) *stream.Vector {
	var idx []int32
	var val []float64
	for lo := 0; lo < len(v); lo += bucket {
		hi := min(lo+bucket, len(v))
		for _, rel := range Select(v[lo:hi], k) {
			idx = append(idx, int32(lo)+rel)
			val = append(val, v[int32(lo)+rel])
		}
	}
	return stream.NewSparse(len(v), idx, val, stream.OpSum)
}

// checkSelectEquivalence compares SparsifyBuckets with referenceBuckets,
// field for field and bit for bit.
func checkSelectEquivalence(t *testing.T, v []float64, bucket, k int) {
	t.Helper()
	got := SparsifyBuckets(v, bucket, k).AppendWire(nil)
	want := referenceBuckets(v, bucket, k).AppendWire(nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("bucket=%d k=%d over %v: selection differs from the reference", bucket, k, v)
	}
}

// selectPalette holds magnitudes that collide (ties), both zeros' worth of
// nothing, denormals, and the extremes; a sign bit is applied on top.
var selectPalette = []float64{0, 5e-324, 1e-310, 0.25, 0.5, 0.5, 1, 1, 1, 2, 3, 7.5, 1e300, math.MaxFloat64, math.Inf(1), 1}

// paletteVector maps every byte to a signed palette entry.
func paletteVector(data []byte) []float64 {
	v := make([]float64, len(data))
	for i, b := range data {
		v[i] = selectPalette[b&15]
		if b&16 != 0 {
			v[i] = -v[i]
		}
	}
	return v
}

func TestSelectEquivalenceTable(t *testing.T) {
	inf := math.Inf(1)
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		v         []float64
		bucket, k int
	}{
		{[]float64{1, -1, 1, 1, -1, 1}, 6, 2},                             // ties: the lowest indices win
		{[]float64{1, -1, 1, 1, -1, 1}, 4, 3},                             // … in a short last bucket too
		{[]float64{0, negZero, 0, negZero, 0}, 5, 2},                      // selected zeros are not sent
		{[]float64{0, negZero, 3, negZero, 0}, 5, 2},                      //
		{[]float64{inf, -inf, 1, inf, -inf}, 5, 2},                        // ±Inf tie on magnitude
		{[]float64{5e-324, -5e-324, 1e-310, 0, negZero, 5e-324}, 6, 3},    // denormals against zeros
		{[]float64{3, 1, 2}, 3, 0},                                        // k = 0
		{[]float64{3, 0, 2}, 3, 3},                                        // k = len
		{[]float64{3, 0, 2}, 2, 9},                                        // k > len
		{[]float64{4, 3, 2, 1, 9}, 4, 2},                                  // last bucket of one
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, 1, 1},          // buckets of one
		{[]float64{9, 8, 7, 6, 5, 4, 3, 2, 1}, 9, 4},                      // descending: every insert rejected
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 9, 4},                      // ascending: every insert lands first
		{[]float64{2, 2, 2, 2, 3, 2, 2, 2, 2}, 9, 4},                      // an eviction among equals
		{[]float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 8, 5}, // all equal
	} {
		checkSelectEquivalence(t, tc.v, tc.bucket, tc.k)
	}
}

// TestSelectEquivalenceProperty: on random vectors full of ties and
// special values, for every bucket width and every k up to and past the
// fixed array of the insertion scan, the selection is the reference's.
func TestSelectEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20261003))
	for trial := 0; trial < 400; trial++ {
		data := make([]byte, 1+rng.Intn(700))
		rng.Read(data)
		v := paletteVector(data)
		if trial%2 == 0 {
			for i := range v {
				if rng.Intn(3) > 0 {
					v[i] = rng.NormFloat64()
				}
			}
		}
		bucket := 1 + rng.Intn(len(v)+3)
		k := rng.Intn(bucket + 2)
		if trial%7 == 0 {
			k = insertScanMaxK - 2 + rng.Intn(5)
		}
		checkSelectEquivalence(t, v, bucket, k)
	}
}

// FuzzSelectEquivalence drives the same comparison from fuzzed bytes: in
// palette mode every byte picks a colliding magnitude and a sign, in raw
// mode every eight bytes are a float64's bits. NaN inputs are skipped: what
// survives next to a NaN is unspecified (the reference heap's answer
// depends on the heap's shape).
func FuzzSelectEquivalence(f *testing.F) {
	f.Add([]byte{6, 22, 7, 8, 24, 6}, uint16(6), uint8(2), true)
	f.Add([]byte{0, 16, 0, 16, 9}, uint16(5), uint8(2), true)
	f.Add([]byte{14, 30, 6, 14, 30, 1, 17, 2}, uint16(3), uint8(2), true)
	f.Add(bytes.Repeat([]byte{7, 23, 9, 5}, 40), uint16(64), uint8(insertScanMaxK+1), true)
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil,
		math.Float64bits(-2.5)), math.Float64bits(1e-320)), uint16(2), uint8(1), false)
	f.Fuzz(func(t *testing.T, data []byte, bucket uint16, k uint8, palette bool) {
		var v []float64
		if palette {
			v = paletteVector(data)
		} else {
			for ; len(data) >= 8; data = data[8:] {
				x := math.Float64frombits(binary.LittleEndian.Uint64(data))
				if x != x {
					return
				}
				v = append(v, x)
			}
		}
		if len(v) == 0 || bucket == 0 {
			return
		}
		checkSelectEquivalence(t, v, int(bucket), int(k))
	})
}
