package topk

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/pin"
	"repro/internal/stream"
)

// digestGrad is a deterministic gradient with what selection has to get
// right: runs of equal magnitudes of both signs (the tie-break), exact
// zeros of both signs, a few huge and a few denormal entries.
func digestGrad(n, round int) []float64 {
	g := make([]float64, n)
	for i := range g {
		h := uint32(i*2654435761+round*40503) * 2246822519
		switch h >> 28 {
		case 0:
			g[i] = 0
		case 1:
			g[i] = math.Copysign(0, -1)
		case 2, 3, 4:
			g[i] = float64(int32(h>>12&7)-3) / 4 // few distinct magnitudes: ties
		case 5:
			g[i] = math.Copysign(5e-324*float64(h>>8&15), float64(int32(h)))
		case 6:
			if h>>8&63 == 0 {
				g[i] = math.Copysign(1e300, float64(int32(h)))
				break
			}
			fallthrough
		default:
			g[i] = float64(int32(h>>4&0xffff)-32768) / 1024
		}
	}
	return g
}

// TestExtractDigests pins Extract and ExtractSpan across commits: the
// ledger entry topk/extract/<case> is the SHA-256 of every returned
// stream's wire form, call after call, followed by the bits of the
// residual left behind. Which of several equal magnitudes survives (the
// lower index) and what happens to a selected zero (it is neither sent nor
// touched) are part of the bit-identity contract of TopK-SGD; the digests
// were recorded while selection still ran the heap of Select per bucket
// and re-sorted its output in NewSparse. A second pass extracts every span
// through ExtractSpanInto from a pool each stream is released back into,
// and must hash the same.
func TestExtractDigests(t *testing.T) {
	const n = 4139 // eight buckets of 512 and a short ninth
	pin.Prefix(t, "topk/extract")
	for _, tc := range []struct {
		name      string
		bucket, k int
		spans     [][2]int // nil: Extract over the whole vector
	}{
		{"buckets-512-8", 512, 8, nil},
		{"buckets-512-16", 512, 16, nil},
		{"buckets-64-1", 64, 1, nil},
		{"buckets-100-60", 100, 60, nil},
		{"global-50", 0, 50, nil},
		{"spans-512-8", 512, 8, [][2]int{{0, 1000}, {1000, 1003}, {1003, 3200}, {3200, n}}},
		{"spans-global-5", 0, 5, [][2]int{{0, 2000}, {2000, 2003}, {2003, n}}},
	} {
		for _, sc := range []*stream.Scratch{nil, stream.NewScratch()} {
			r := NewResidual(n)
			h := pin.New()
			for round := 0; round < 3; round++ {
				r.Accumulate(digestGrad(n, round), 0.5)
				if tc.spans == nil && sc == nil {
					h.Write(r.Extract(tc.bucket, tc.k).AppendWire(nil))
					continue
				}
				spans := tc.spans
				if spans == nil {
					spans = [][2]int{{0, n}}
				}
				for _, sp := range spans {
					v := r.ExtractSpanInto(sp[0], sp[1], tc.bucket, tc.k, sc)
					h.Write(v.AppendWire(nil))
					sc.Release(v) // the next extraction reuses its storage
				}
			}
			binary.Write(h, binary.LittleEndian, r.acc)
			pin.Check(t, "topk/extract/"+tc.name, h)
		}
	}
}
