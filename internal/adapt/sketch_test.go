package adapt

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/density"
	"repro/internal/stream"
)

// genSupport draws k distinct indices in [0, n) with the given pattern:
// "uniform", "clustered" (a [0, n/10) hot block absorbing 70% of draws —
// the shape of the experiments' clustered cells and of
// core.DefaultHotFraction/DefaultHotMass), or "heavytail" (Zipf-ranked
// indices, the shape of embedding-gradient supports).
func genSupport(rng *rand.Rand, n, k int, pattern string) *stream.Vector {
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(n-1))
	seen := map[int32]bool{}
	idx := make([]int32, 0, k)
	val := make([]float64, 0, k)
	for len(idx) < k {
		var ix int32
		switch pattern {
		case "clustered":
			if rng.Float64() < 0.7 {
				ix = int32(rng.Intn(n / 10))
			} else {
				ix = int32(rng.Intn(n))
			}
		case "heavytail":
			ix = int32(zipf.Uint64())
		default:
			ix = int32(rng.Intn(n))
		}
		if seen[ix] {
			continue
		}
		seen[ix] = true
		idx = append(idx, ix)
		val = append(val, rng.NormFloat64()+0.5)
	}
	return stream.NewSparse(n, idx, val, stream.OpSum)
}

// TestSketchUniform: uniform supports must not be classified clustered —
// the divergence estimate stays well under the decision threshold.
func TestSketchUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewShapeSketch()
	for i := 0; i < 12; i++ {
		s.Observe(genSupport(rng, 1<<18, 4000, "uniform"))
	}
	st := s.Stats()
	if st.Divergence >= clusterThreshold {
		t.Fatalf("uniform divergence %.3f should stay below threshold %.2f", st.Divergence, clusterThreshold)
	}
	if math.Abs(st.K-4000) > 1 {
		t.Fatalf("k EWMA %.1f, want 4000", st.K)
	}
	t.Logf("uniform: div=%.3f f=%.3f m=%.3f", st.Divergence, st.HotFraction, st.HotMass)
}

// TestSketchClustered: on the clustered pattern (hot fraction 0.1, hot
// mass ≈ 0.73 including the uniform tail's hot-region hits) the sketch
// must recover the hot fraction within ±0.05 and the hot mass within
// ±0.10 — the tolerances at which density.ExpectedKClustered stays inside
// its ~15% validity band.
func TestSketchClustered(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := NewShapeSketch()
	for i := 0; i < 12; i++ {
		s.Observe(genSupport(rng, 1<<18, 4000, "clustered"))
	}
	st := s.Stats()
	if st.Divergence < clusterThreshold {
		t.Fatalf("clustered divergence %.3f should exceed threshold %.2f", st.Divergence, clusterThreshold)
	}
	if math.Abs(st.HotFraction-0.1) > 0.05 {
		t.Fatalf("hot fraction %.3f, want 0.1 ± 0.05", st.HotFraction)
	}
	wantMass := 0.7 + 0.3*0.1 // biased draws plus the uniform tail's hot hits
	if math.Abs(st.HotMass-wantMass) > 0.10 {
		t.Fatalf("hot mass %.3f, want %.2f ± 0.10", st.HotMass, wantMass)
	}
	t.Logf("clustered: div=%.3f f=%.3f m=%.3f", st.Divergence, st.HotFraction, st.HotMass)

	// The estimated parameters must price fill-in at least as well as the
	// defaults: E[K] under the estimated shape tracks the measured union
	// within the documented ~15%.
	inputs := make([][]int32, 16)
	for r := range inputs {
		idx, _ := genSupport(rng, 1<<18, 4000, "clustered").Pairs()
		inputs[r] = idx
	}
	measured := float64(density.MeasureK(inputs))
	est := density.ExpectedKClustered(1<<18, 4000, 16, st.HotFraction, st.HotMass)
	if rel := math.Abs(est-measured) / measured; rel > 0.15 {
		t.Fatalf("estimated-shape E[K]=%.0f vs measured %.0f (rel %.0f%%)", est, measured, rel*100)
	}
}

// TestSketchHeavyTailed: Zipf supports are strongly concentrated; the
// sketch must classify them clustered, with a small hot fraction holding
// the bulk of the mass.
func TestSketchHeavyTailed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewShapeSketch()
	for i := 0; i < 12; i++ {
		s.Observe(genSupport(rng, 1<<18, 4000, "heavytail"))
	}
	st := s.Stats()
	if st.Divergence < clusterThreshold {
		t.Fatalf("heavy-tail divergence %.3f should exceed threshold %.2f", st.Divergence, clusterThreshold)
	}
	if st.HotFraction > 0.25 {
		t.Fatalf("heavy-tail hot fraction %.3f should be small", st.HotFraction)
	}
	if st.HotMass < 0.5 {
		t.Fatalf("heavy-tail hot mass %.3f should hold the bulk", st.HotMass)
	}
	t.Logf("heavytail: div=%.3f f=%.3f m=%.3f", st.Divergence, st.HotFraction, st.HotMass)
}

// TestSketchOnDataGenerator: supports assembled from the data package's
// synthetic sparse rows (the URL/Webspam stand-ins with a planted hot
// region) must be detected as clustered with a hot fraction near the
// generator's configured one.
func TestSketchOnDataGenerator(t *testing.T) {
	cfg := data.SparseConfig{
		Rows: 400, Dim: 1 << 16, NNZPerRow: 150,
		HotFraction: 0.1, ClusterBias: 0.7, Seed: 7,
	}
	ds := data.SyntheticSparse(cfg)
	s := NewShapeSketch()
	row := 0
	for call := 0; call < 10; call++ {
		// One "gradient" per call: the union of a minibatch of rows.
		union := map[int32]bool{}
		for b := 0; b < 40; b++ {
			idx, _ := ds.Row(row % ds.Rows())
			row++
			for _, ix := range idx {
				union[ix] = true
			}
		}
		idx := make([]int32, 0, len(union))
		val := make([]float64, 0, len(union))
		for ix := range union {
			idx = append(idx, ix)
			val = append(val, 1)
		}
		s.Observe(stream.NewSparse(cfg.Dim, idx, val, stream.OpSum))
	}
	st := s.Stats()
	if st.Divergence < clusterThreshold {
		t.Fatalf("data-generator divergence %.3f should exceed threshold %.2f", st.Divergence, clusterThreshold)
	}
	if math.Abs(st.HotFraction-cfg.HotFraction) > 0.06 {
		t.Fatalf("hot fraction %.3f, want %.2f ± 0.06", st.HotFraction, cfg.HotFraction)
	}
	t.Logf("data generator: div=%.3f f=%.3f m=%.3f k=%.0f", st.Divergence, st.HotFraction, st.HotMass, st.K)
}

// TestSketchDense: dense vectors are observed through sampling; the k
// estimate must track the true non-neutral count and the shape converge
// toward uniform.
func TestSketchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 1 << 16
	dns := make([]float64, n)
	nnz := 0
	for i := range dns {
		if rng.Float64() < 0.8 {
			dns[i] = rng.NormFloat64() + 2
			nnz++
		}
	}
	v := stream.NewDense(dns, stream.OpSum)
	s := NewShapeSketch()
	for i := 0; i < 4; i++ {
		s.Observe(v)
	}
	st := s.Stats()
	if rel := math.Abs(st.K-float64(nnz)) / float64(nnz); rel > 0.10 {
		t.Fatalf("dense k estimate %.0f vs true %d (rel %.0f%%)", st.K, nnz, rel*100)
	}
	if st.Divergence >= clusterThreshold {
		t.Fatalf("near-full dense support should not read clustered (div %.3f)", st.Divergence)
	}
}

// TestSketchTracksDrift: a workload that morphs from uniform to clustered
// must cross the classification threshold within a few calls of the
// change — the EWMA's time constant.
func TestSketchTracksDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewShapeSketch()
	for i := 0; i < 15; i++ {
		s.Observe(genSupport(rng, 1<<18, 4000, "uniform"))
	}
	if s.Stats().Divergence >= clusterThreshold {
		t.Fatal("still uniform, should be below threshold")
	}
	crossed := -1
	for i := 0; i < 15; i++ {
		s.Observe(genSupport(rng, 1<<18, 4000, "clustered"))
		if s.Stats().Divergence >= clusterThreshold {
			crossed = i + 1
			break
		}
	}
	if crossed < 0 || crossed > 6 {
		t.Fatalf("divergence should cross the threshold within 6 calls of the drift, took %d", crossed)
	}
	t.Logf("threshold crossed %d calls after the drift", crossed)
}

// TestSketchEmptyAndTiny: degenerate supports must not panic and must not
// trigger the clustered classification.
func TestSketchEmptyAndTiny(t *testing.T) {
	s := NewShapeSketch()
	s.Observe(stream.Zero(128, stream.OpSum))
	v := stream.NewSparse(128, []int32{5}, []float64{1}, stream.OpSum)
	s.Observe(v)
	st := s.Stats()
	if st.Calls != 2 {
		t.Fatalf("calls = %d, want 2", st.Calls)
	}
}

// TestSketchObserveAllocatesNothing: the sketch rides along with every
// collective call, so observing a sparse or a dense support allocates
// nothing — the histogram sort included.
func TestSketchObserveAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewShapeSketch()
	dense := make([]float64, 1<<12)
	for i := range dense[:1<<10] {
		dense[i] = rng.NormFloat64()
	}
	for _, v := range []*stream.Vector{
		genSupport(rng, 1<<16, 3000, "clustered"),
		stream.NewDense(dense, stream.OpSum),
	} {
		if allocs := testing.AllocsPerRun(20, func() { s.Observe(v) }); allocs != 0 {
			t.Errorf("Observe of a %d-nnz vector allocates %.1f times, want 0", v.NNZ(), allocs)
		}
	}
}

// FuzzSketchObserveOnly: observing any vector never panics, never mutates
// it, and never changes merge results — sketching is strictly
// observe-only.
func FuzzSketchObserveOnly(f *testing.F) {
	f.Add(int64(1), 64, 8, false)
	f.Add(int64(2), 1024, 900, false) // past δ: dense representation
	f.Add(int64(3), 4096, 0, true)
	f.Fuzz(func(t *testing.T, seed int64, n, k int, dense bool) {
		if n <= 0 || n > 1<<16 {
			n = 1 + (abs(n) % (1 << 16))
		}
		if k < 0 || k > n {
			k = abs(k) % (n + 1)
		}
		rng := rand.New(rand.NewSource(seed))
		mk := func() *stream.Vector {
			seen := map[int32]bool{}
			idx := make([]int32, 0, k)
			val := make([]float64, 0, k)
			for len(idx) < k {
				ix := int32(rng.Intn(n))
				if seen[ix] {
					continue
				}
				seen[ix] = true
				idx = append(idx, ix)
				val = append(val, float64(rng.Intn(9)-4))
			}
			v := stream.NewSparse(n, idx, val, stream.OpSum)
			if dense {
				v.Densify()
			}
			return v
		}
		a, b, c := mk(), mk(), mk()
		ref := stream.MergeK([]*stream.Vector{a, b, c}, nil).ToDense()

		s := NewShapeSketch()
		before := a.ToDense()
		s.Observe(a)
		s.Observe(b)
		s.Observe(c)
		after := a.ToDense()
		for i := range before {
			if math.Float64bits(before[i]) != math.Float64bits(after[i]) {
				t.Fatalf("Observe mutated coordinate %d: %v -> %v", i, before[i], after[i])
			}
		}
		got := stream.MergeK([]*stream.Vector{a, b, c}, nil).ToDense()
		for i := range ref {
			if math.Float64bits(ref[i]) != math.Float64bits(got[i]) {
				t.Fatalf("merge after Observe differs at %d: %v vs %v", i, ref[i], got[i])
			}
		}
	})
}

func abs(x int) int {
	if x < 0 {
		if x == math.MinInt {
			return math.MaxInt
		}
		return -x
	}
	return x
}
