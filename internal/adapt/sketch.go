package adapt

import (
	"slices"

	"repro/internal/stream"
)

// sketchBuckets is the resolution of the index-position histogram: the
// dimension space [0, N) is folded into this many equal-width buckets, so
// hot-fraction estimates are quantized to 1/sketchBuckets.
const sketchBuckets = 64

// maxSamples caps how many support indices one Observe call inspects.
// Sampling is strided over the (sorted) index slice, so the per-call cost
// is O(maxSamples) regardless of k — what keeps the sketch's overhead far
// below the merge it rides along with.
const maxSamples = 1024

// decay is the EWMA weight of a new observation: estimates track a
// drifting workload with a time constant of a few calls while averaging
// out per-call sampling noise.
const decay = 0.25

// ShapeSketch is a cheap, observe-only estimator of the input stream's
// support shape, fed inline with each collective call (stream.Vector.
// Observe). It maintains EWMAs of the observed non-zero count and of a
// hot-set decomposition (HotFraction, HotMass, Divergence) derived from a
// bucketed index-position histogram:
//
//	divergence = max over prefixes j of sorted bucket occupancy of
//	             (mass of top-j buckets) − j/B
//
// the maximal Kolmogorov–Smirnov-style gap between the observed index
// distribution and the uniform one. The maximizing prefix is the
// estimated hot region: its width fraction is HotFraction and its
// occupancy share HotMass — directly the parameters of
// density.ExpectedKClustered. Uniform supports yield divergence near zero
// (sampling noise only, ≈0.1 at 1024 samples over 64 buckets); the
// `clustered` test pattern (10% of the space holding 70% of the mass)
// yields ≈0.6.
//
// A ShapeSketch belongs to one rank and is not safe for concurrent use.
// The zero value is an empty sketch, ready to use.
type ShapeSketch struct {
	calls int
	k     float64 // EWMA of per-call non-zero count
	dim   int     // dimension of the last observed vector

	hotFrac, hotMass, div float64 // EWMA'd shape estimates

	hist   [sketchBuckets]int32 // per-call scratch, reset each Observe
	sorted [sketchBuckets]int32
}

// NewShapeSketch returns an empty sketch.
func NewShapeSketch() *ShapeSketch { return &ShapeSketch{} }

// SketchStats is a point-in-time snapshot of the sketch's estimates.
type SketchStats struct {
	// Calls is how many vectors have been observed.
	Calls int
	// K is the EWMA'd per-call non-zero count and Dim the last observed
	// dimension, so K/Dim is the smoothed observed density.
	K   float64
	Dim int
	// HotFraction is the estimated width of the hot region as a fraction
	// of the dimension space, HotMass the support mass it absorbs, and
	// Divergence = HotMass − HotFraction the distance from uniformity
	// (0 ≤ Divergence < 1; uniform supports sit near 0).
	HotFraction, HotMass, Divergence float64
}

// Stats returns the current estimates.
func (s *ShapeSketch) Stats() SketchStats {
	return SketchStats{Calls: s.calls, K: s.k, Dim: s.dim,
		HotFraction: s.hotFrac, HotMass: s.hotMass, Divergence: s.div}
}

// Observe feeds one vector's support into the sketch (strictly read-only;
// see stream.Vector.Observe).
func (s *ShapeSketch) Observe(v *stream.Vector) { v.Observe(s) }

// ObserveSparse implements stream.SupportObserver: a strided sample of
// the sorted index slice updates the position histogram and the EWMAs.
func (s *ShapeSketch) ObserveSparse(n int, idx []int32) {
	if n <= 0 {
		return
	}
	s.dim = n
	k := len(idx)
	if k == 0 {
		s.update(0, 0, 0, 0)
		return
	}
	stride := (k + maxSamples - 1) / maxSamples
	sampled := (k + stride - 1) / stride
	b := bucketsFor(sampled)
	s.hist = [sketchBuckets]int32{}
	for i := 0; i < k; i += stride {
		s.hist[int(int64(idx[i])*int64(b)/int64(n))]++
	}
	f, m, d := s.decompose(sampled, b)
	s.update(float64(k), f, m, d)
}

// ObserveDense implements stream.SupportObserver: a strided sample of the
// dense array estimates the non-neutral count; the positions of the
// sampled non-neutral entries feed the same histogram. Dense vectors are
// past δ by construction, so the k estimate is what matters — shape
// estimates of a ~full support converge to uniform.
func (s *ShapeSketch) ObserveDense(n int, dns []float64, neutral float64) {
	if n <= 0 {
		return
	}
	s.dim = n
	stride := (n + maxSamples - 1) / maxSamples
	s.hist = [sketchBuckets]int32{}
	sampled, nonNeutral := 0, 0
	for i := 0; i < n; i += stride {
		sampled++
		if dns[i] != neutral {
			nonNeutral++
		}
	}
	if nonNeutral == 0 {
		s.update(0, 0, 0, 0)
		return
	}
	b := bucketsFor(nonNeutral)
	for i := 0; i < n; i += stride {
		if dns[i] != neutral {
			s.hist[int(int64(i)*int64(b)/int64(n))]++
		}
	}
	kEst := float64(n) * float64(nonNeutral) / float64(sampled)
	f, m, d := s.decompose(nonNeutral, b)
	s.update(kEst, f, m, d)
}

// bucketsFor picks the histogram resolution for one call: enough samples
// per bucket (≥ 8 on average) that the sorted-prefix divergence of a
// *uniform* support stays near zero instead of being inflated by Poisson
// noise, clamped to [8, sketchBuckets].
func bucketsFor(sampled int) int {
	b := sketchBuckets
	for b > 8 && sampled < 8*b {
		b /= 2
	}
	return b
}

// decompose turns the per-call histogram (b live buckets) into
// (hotFraction, hotMass, divergence): buckets are sorted by occupancy
// descending and the prefix maximizing mass−width is the hot region.
func (s *ShapeSketch) decompose(sampled, b int) (hotFrac, hotMass, div float64) {
	s.sorted = s.hist
	buckets := s.sorted[:b]
	slices.Sort(buckets)
	slices.Reverse(buckets)
	cum := 0
	bestJ, bestMass, bestDiv := 1, 0.0, -1.0
	for j := 1; j <= b; j++ {
		cum += int(buckets[j-1])
		mass := float64(cum) / float64(sampled)
		if d := mass - float64(j)/float64(b); d > bestDiv {
			bestJ, bestMass, bestDiv = j, mass, d
		}
	}
	if bestDiv < 0 {
		bestDiv = 0
	}
	return float64(bestJ) / float64(b), bestMass, bestDiv
}

// update folds one call's estimates into the EWMAs.
func (s *ShapeSketch) update(k, hotFrac, hotMass, div float64) {
	if s.calls == 0 {
		s.k, s.hotFrac, s.hotMass, s.div = k, hotFrac, hotMass, div
	} else {
		s.k += decay * (k - s.k)
		s.hotFrac += decay * (hotFrac - s.hotFrac)
		s.hotMass += decay * (hotMass - s.hotMass)
		s.div += decay * (div - s.div)
	}
	s.calls++
}
