// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation (§8), plus the ablation benches. Each bench wraps the
// corresponding runner in internal/experiments at a reduced default scale;
// `sparbench -sweep <name>` runs the same code at its defaults and prints
// the full tables (see README's reproduction map).
//
// Run everything:  go test -bench=. -benchmem
package sparcml

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/simnet"
	"repro/internal/stream"
	"repro/internal/topk"
	"repro/internal/train"
)

// --- Figure 1 -------------------------------------------------------------

// BenchmarkFig1ReducedDensity measures the empirical fill-in computation:
// real TopK gradient supports from a model under training, unioned across
// simulated nodes.
func BenchmarkFig1ReducedDensity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig1Empirical([]int{2, 8, 32}, []float64{0.01, 0.05}, 1)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// --- Figure 3 -------------------------------------------------------------

// BenchmarkFig3NodeSweep measures the left panel: reduction time vs node
// count at d=0.781% on the Aries profile, all six algorithms.
func BenchmarkFig3NodeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig3NodeSweep(1<<16, 0.0078, []int{2, 4, 8, 16}, simnet.Aries, 1, 1)
		if len(rows) != 4*len(experiments.Fig3Algorithms) {
			b.Fatal("unexpected row count")
		}
	}
}

// BenchmarkFig3DensitySweep measures the right panel: reduction time vs
// per-node density at P=8 on the GigE profile.
func BenchmarkFig3DensitySweep(b *testing.B) {
	densities := []float64{0.0005, 0.005, 0.05}
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig3DensitySweep(1<<16, 8, densities, simnet.GigE, 1, 1)
		if len(rows) != len(densities)*len(experiments.Fig3Algorithms) {
			b.Fatal("unexpected row count")
		}
	}
}

// BenchmarkFig3PerAlgorithm isolates one allreduce per iteration at the
// Figure 3 operating point, per algorithm — the core measured quantity.
func BenchmarkFig3PerAlgorithm(b *testing.B) {
	var n, P = 1 << 18, 8
	rng := rand.New(rand.NewSource(1))
	inputs := make([]*stream.Vector, P)
	for r := range inputs {
		k := int(0.0078 * float64(n))
		idx := make([]int32, 0, k)
		seen := map[int32]bool{}
		val := make([]float64, 0, k)
		for len(idx) < k {
			ix := int32(rng.Intn(n))
			if !seen[ix] {
				seen[ix] = true
				idx = append(idx, ix)
				val = append(val, rng.NormFloat64())
			}
		}
		inputs[r] = stream.NewSparse(n, idx, val, stream.OpSum)
	}
	for _, alg := range experiments.Fig3Algorithms {
		b.Run(alg.String(), func(b *testing.B) {
			w := comm.NewWorld(P, simnet.Aries)
			for i := 0; i < b.N; i++ {
				comm.Run(w, func(p *comm.Proc) any {
					return core.Allreduce(p, inputs[p.Rank()], core.Options{Algorithm: alg})
				})
			}
			b.ReportMetric(w.MaxTime()*1e6, "simµs/op")
		})
	}
}

// --- Hierarchical (two-level topology) -------------------------------------

// BenchmarkHierVsFlat measures the issue's acceptance scenario: a sparse
// allreduce at N=2^20, d=0.01% on P=32 ranks, once with flat
// SSAR_Split_allgather on a world priced entirely by the Aries inter-node
// profile and once with the same algorithm at the full depth of a
// two-level topology (4 ranks/node, NVLink-like intra + Aries inter). The simulated time of the
// hierarchical variant must come out lower.
func BenchmarkHierVsFlat(b *testing.B) {
	const n, P, rpn = 1 << 20, 32, 4
	rng := rand.New(rand.NewSource(13))
	nf := float64(n)
	inputs := make([]*stream.Vector, P)
	for r := range inputs {
		k := int(1e-4 * nf)
		idx := make([]int32, 0, k)
		seen := map[int32]bool{}
		val := make([]float64, 0, k)
		for len(idx) < k {
			ix := int32(rng.Intn(n))
			if !seen[ix] {
				seen[ix] = true
				idx = append(idx, ix)
				val = append(val, rng.NormFloat64())
			}
		}
		inputs[r] = stream.NewSparse(n, idx, val, stream.OpSum)
	}
	topo := simnet.TwoLevel(rpn, simnet.NVLinkLike, simnet.Aries, 0)
	b.Run("flat-inter", func(b *testing.B) {
		w := comm.NewWorld(P, simnet.Aries)
		for i := 0; i < b.N; i++ {
			comm.Run(w, func(p *comm.Proc) any {
				return core.Allreduce(p, inputs[p.Rank()], core.Options{Algorithm: core.SSARSplitAllgather})
			})
		}
		b.ReportMetric(w.MaxTime()*1e6, "simµs/op")
	})
	b.Run("hier-topo", func(b *testing.B) {
		w := comm.NewWorldHier(P, topo)
		for i := 0; i < b.N; i++ {
			comm.Run(w, func(p *comm.Proc) any {
				return core.Allreduce(p, inputs[p.Rank()], core.Options{Algorithm: core.SSARSplitAllgather, Levels: core.AllLevels})
			})
		}
		b.ReportMetric(w.MaxTime()*1e6, "simµs/op")
	})
}

// BenchmarkHierSweep runs the reduced hierarchical crossover sweep (the
// cmd/sparbench -sweep hier scenario at test scale).
func BenchmarkHierSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		topo := simnet.TwoLevel(4, simnet.NVLinkLike, simnet.Aries, 0)
		rows := experiments.HierNodeSweep(1<<16, 1e-3, []int{8, 16, 32}, topo, false, 1, 1)
		if len(rows) != 3 {
			b.Fatal("unexpected row count")
		}
	}
}

// --- NIC contention (PR 2) --------------------------------------------------

// BenchmarkHierDSARVsFlatContended measures the dense-regime tentpole
// scenario: DSAR flat versus at depth 2 on the same NIC-serialized
// two-level world (P=16, 4 ranks/node, NICSerial=1, d=60%). The
// hierarchical variant's simulated time must come out lower.
func BenchmarkHierDSARVsFlatContended(b *testing.B) {
	const n, P, rpn = 1 << 16, 16, 4
	rng := rand.New(rand.NewSource(17))
	nf := float64(n)
	inputs := make([]*stream.Vector, P)
	for r := range inputs {
		k := int(0.6 * nf)
		idx := make([]int32, 0, k)
		seen := map[int32]bool{}
		val := make([]float64, 0, k)
		for len(idx) < k {
			ix := int32(rng.Intn(n))
			if !seen[ix] {
				seen[ix] = true
				idx = append(idx, ix)
				val = append(val, rng.NormFloat64())
			}
		}
		inputs[r] = stream.NewSparse(n, idx, val, stream.OpSum)
	}
	topo := simnet.TwoLevel(rpn, simnet.NVLinkLike, simnet.Aries, 1)
	for _, levels := range []int{0, 2} {
		b.Run(core.ChoiceName(core.DSARSplitAllgather, levels), func(b *testing.B) {
			w := comm.NewWorldHier(P, topo)
			for i := 0; i < b.N; i++ {
				comm.Run(w, func(p *comm.Proc) any {
					return core.Allreduce(p, inputs[p.Rank()], core.Options{Algorithm: core.DSARSplitAllgather, Levels: levels})
				})
			}
			b.ReportMetric(w.MaxTime()*1e6, "simµs/op")
		})
	}
}

// --- Figure 4 -------------------------------------------------------------

// BenchmarkFig4aCIFARTopK runs the CIFAR-shaped comparison (dense vs TopK
// 8/512 and 16/512 with 4-bit QSGD).
func BenchmarkFig4aCIFARTopK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig4aCIFAR(experiments.Params{Rows: 400, Epochs: 2, P: 4}, 1)
		if len(rows) != 3*2 {
			b.Fatal("want 3 series of 2 epochs")
		}
	}
}

// BenchmarkFig4bATISLSTM runs the ATIS-shaped LSTM comparison (dense vs
// TopK 2/512).
func BenchmarkFig4bATISLSTM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig4bATIS(experiments.Params{Rows: 200, Epochs: 2, P: 2}, 1)
		if len(rows) != 2*2 {
			b.Fatal("want 2 series of 2 epochs")
		}
	}
}

// --- Figure 5 -------------------------------------------------------------

// BenchmarkFig5WideResNet runs the wide-residual-network comparison
// (1000-class head, TopK 1/512 vs dense).
func BenchmarkFig5WideResNet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig5Wide(experiments.Params{Rows: 400, Epochs: 1, P: 4}, 1)
		if len(rows) != 2 {
			b.Fatal("want 2 series of 1 epoch")
		}
	}
}

// --- Figure 6 -------------------------------------------------------------

// BenchmarkFig6aASR runs the ASR-shaped workload: BMUF baseline vs TopK at
// 2x/4x/8x scale.
func BenchmarkFig6aASR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Fig6ASR(experiments.Params{Rows: 320, Epochs: 1, P: 2}, 1)
		if len(rows) != 4 {
			b.Fatal("want 4 series of 1 epoch")
		}
	}
}

// BenchmarkFig6bScalability computes the scalability curve from the ASR
// runs and reports the largest-scale speedup as a metric.
func BenchmarkFig6bScalability(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		_, pts := experiments.Fig6ASR(experiments.Params{Rows: 320, Epochs: 1, P: 2}, 1)
		last = pts[len(pts)-1].Speedup
	}
	b.ReportMetric(last, "speedup@8x")
}

// --- Figure 7 -------------------------------------------------------------

// BenchmarkFig7ExpectedK evaluates the closed-form growth surface.
func BenchmarkFig7ExpectedK(b *testing.B) {
	ks := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	ps := []int{2, 4, 8, 16, 32, 64}
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig7Table(ks, ps)
		if len(rows) != len(ks)*len(ps) {
			b.Fatal("unexpected row count")
		}
	}
}

// --- Table 2 and §8.2 -----------------------------------------------------

// BenchmarkTable2MPIOpt runs one Table 2 row per named system
// configuration (scaled dataset).
func BenchmarkTable2MPIOpt(b *testing.B) {
	cases := experiments.DefaultTable2Cases(0.005)
	for _, tc := range []experiments.Table2Case{cases[0], cases[5], cases[9]} {
		tc.Nodes = 4
		b.Run(fmt.Sprintf("%s/%s", tc.System, tc.Dataset), func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				row := experiments.RunTable2Case(tc, 1, 1)
				speedup = row.Speedup
			}
			b.ReportMetric(speedup, "speedup")
		})
	}
}

// BenchmarkSCDAllgather runs the coordinate-descent sparse-vs-dense
// allgather comparison.
func BenchmarkSCDAllgather(b *testing.B) {
	var comm float64
	for i := 0; i < b.N; i++ {
		res := experiments.RunSCDExperiment(0.003, 1, 1)
		comm = res.CommSpeedup
	}
	b.ReportMetric(comm, "comm-speedup")
}

// BenchmarkSparkComparison runs the Spark-like-layer comparison.
func BenchmarkSparkComparison(b *testing.B) {
	var f float64
	for i := 0; i < b.N; i++ {
		res := experiments.RunSparkComparison(0.005, 1, 1)
		f = res.SparseVsSparkComm
	}
	b.ReportMetric(f, "comm-speedup-vs-spark")
}

// --- Ablations --------------------------------------------------------------

// BenchmarkAblationDelta varies the sparse→dense switch threshold δ and
// measures the simulated SSAR recursive-doubling time: too small a δ
// densifies early (bandwidth blow-up); the default tracks the volume
// crossover.
func BenchmarkAblationDelta(b *testing.B) {
	const n, P, k = 1 << 16, 8, 1500
	for _, frac := range []float64{0.05, 0.25, 0.67, 1.0} {
		b.Run(fmt.Sprintf("delta=%.0f%%N", frac*100), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			inputs := make([]*stream.Vector, P)
			for r := range inputs {
				idx := make([]int32, 0, k)
				seen := map[int32]bool{}
				val := make([]float64, 0, k)
				for len(idx) < k {
					ix := int32(rng.Intn(n))
					if !seen[ix] {
						seen[ix] = true
						idx = append(idx, ix)
						val = append(val, rng.NormFloat64())
					}
				}
				v := stream.NewSparse(n, idx, val, stream.OpSum)
				v.SetDelta(int(frac * n))
				inputs[r] = v
			}
			w := comm.NewWorld(P, simnet.GigE)
			for i := 0; i < b.N; i++ {
				comm.Run(w, func(p *comm.Proc) any {
					return core.Allreduce(p, inputs[p.Rank()], core.Options{Algorithm: core.SSARRecDouble})
				})
			}
			b.ReportMetric(w.MaxTime()*1e3, "simms/op")
		})
	}
}

// randSparseInputs draws P sparse vectors of k distinct uniform indices
// each, deterministic per seed (shared by the k-way and scratch ablations).
func randSparseInputs(seed int64, n, k, P int) []*stream.Vector {
	rng := rand.New(rand.NewSource(seed))
	vs := make([]*stream.Vector, P)
	for r := range vs {
		idx := make([]int32, 0, k)
		seen := map[int32]bool{}
		val := make([]float64, 0, k)
		for len(idx) < k {
			ix := int32(rng.Intn(n))
			if !seen[ix] {
				seen[ix] = true
				idx = append(idx, ix)
				val = append(val, rng.NormFloat64())
			}
		}
		vs[r] = stream.NewSparse(n, idx, val, stream.OpSum)
	}
	return vs
}

// BenchmarkAblationKWayMerge is the PR-3 tentpole ablation (BENCH_3.json):
// reducing P−1 received partition streams by chained two-way merges versus
// the one-pass k-way MergeK, cold and with a warm Scratch pool. At P ≥ 16
// the k-way+scratch path must show ≥ 50% fewer allocations and lower
// ns/op than the chained baseline.
func BenchmarkAblationKWayMerge(b *testing.B) {
	const n, k = 1 << 18, 2000
	for _, P := range []int{4, 16, 64} {
		vs := randSparseInputs(int64(P)*211, n, k, P)
		b.Run(fmt.Sprintf("P=%d/chained-2way", P), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				acc := vs[0].Clone()
				for _, o := range vs[1:] {
					acc.Add(o)
				}
			}
		})
		b.Run(fmt.Sprintf("P=%d/kway", P), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				stream.MergeK(vs, nil)
			}
		})
		b.Run(fmt.Sprintf("P=%d/kway-scratch", P), func(b *testing.B) {
			b.ReportAllocs()
			sc := stream.NewScratch()
			for i := 0; i < 4; i++ {
				sc.Release(stream.MergeK(vs, sc))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.Release(stream.MergeK(vs, sc))
			}
		})
	}
}

// BenchmarkAblationScratchAllreduce measures the end-to-end allocation
// discipline: a full SSAR_Split_allgather allreduce at P=16 with and
// without per-rank Scratch pools (allocs/op includes the whole simulated
// world, goroutines and message harness included).
func BenchmarkAblationScratchAllreduce(b *testing.B) {
	const n, P, k = 1 << 16, 16, 1500
	inputs := randSparseInputs(23, n, k, P)
	b.Run("no-scratch", func(b *testing.B) {
		b.ReportAllocs()
		w := comm.NewWorld(P, simnet.Aries)
		for i := 0; i < b.N; i++ {
			comm.Run(w, func(p *comm.Proc) any {
				return core.Allreduce(p, inputs[p.Rank()], core.Options{Algorithm: core.SSARSplitAllgather})
			})
		}
		b.ReportMetric(w.MaxTime()*1e6, "simµs/op")
	})
	b.Run("with-scratch", func(b *testing.B) {
		b.ReportAllocs()
		w := comm.NewWorld(P, simnet.Aries)
		scratches := make([]*stream.Scratch, P)
		for i := range scratches {
			scratches[i] = stream.NewScratch()
		}
		for i := 0; i < 3; i++ { // reach buffer steady state
			comm.Run(w, func(p *comm.Proc) any {
				return core.Allreduce(p, inputs[p.Rank()],
					core.Options{Algorithm: core.SSARSplitAllgather, Scratch: scratches[p.Rank()]})
			})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			comm.Run(w, func(p *comm.Proc) any {
				return core.Allreduce(p, inputs[p.Rank()],
					core.Options{Algorithm: core.SSARSplitAllgather, Scratch: scratches[p.Rank()]})
			})
		}
		b.ReportMetric(w.MaxTime()*1e6, "simµs/op")
	})
}

// BenchmarkAblationSketchOverhead is the PR-5 tentpole ablation
// (BENCH_5.json acceptance): one adaptive-layer sketch observation per
// call (adapt.ShapeSketch via stream.Vector.Observe) against the
// split-phase k-way merge it rides along with, at the BENCH_3 merge
// shapes. The sketch's strided sampling caps its work at ~1k indices, so
// observe/op must stay ≤ 2% of merge/op at P ≥ 16 (compare the two
// sub-benchmark times; TestSketchOverheadBudget enforces a loose multiple
// of the budget to stay robust on noisy CI machines).
func BenchmarkAblationSketchOverhead(b *testing.B) {
	const n, k = 1 << 18, 2000
	for _, P := range []int{16, 64} {
		vs := randSparseInputs(int64(P)*977, n, k, P)
		b.Run(fmt.Sprintf("P=%d/merge", P), func(b *testing.B) {
			sc := stream.NewScratch()
			for i := 0; i < 4; i++ {
				sc.Release(stream.MergeK(vs, sc))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.Release(stream.MergeK(vs, sc))
			}
		})
		b.Run(fmt.Sprintf("P=%d/observe", P), func(b *testing.B) {
			s := adapt.NewShapeSketch()
			for i := 0; i < b.N; i++ {
				s.Observe(vs[i%P])
			}
		})
		b.Run(fmt.Sprintf("P=%d/merge+observe", P), func(b *testing.B) {
			sc := stream.NewScratch()
			s := adapt.NewShapeSketch()
			for i := 0; i < 4; i++ {
				sc.Release(stream.MergeK(vs, sc))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Observe(vs[i%P])
				sc.Release(stream.MergeK(vs, sc))
			}
		})
	}
}

// TestSketchOverheadBudget is the loose, CI-safe form of the sketch
// overhead acceptance: the 2% budget is enforced at 10× slack (observe/op
// ≤ 20% of merge/op) so a noisy shared machine cannot flake the suite,
// while a regression that makes observation do real per-pair work (the
// measured ratio is ~0.6%) still fails loudly. The true ratio is recorded
// in BENCH_5's note from BenchmarkAblationSketchOverhead.
func TestSketchOverheadBudget(t *testing.T) {
	const n, k, P, reps = 1 << 18, 2000, 16, 50
	vs := randSparseInputs(977*P, n, k, P)
	sc := stream.NewScratch()
	s := adapt.NewShapeSketch()
	for i := 0; i < 4; i++ {
		sc.Release(stream.MergeK(vs, sc))
		s.Observe(vs[i])
	}
	start := time.Now()
	for i := 0; i < reps; i++ {
		sc.Release(stream.MergeK(vs, sc))
	}
	merge := time.Since(start)
	start = time.Now()
	for i := 0; i < reps; i++ {
		s.Observe(vs[i%P])
	}
	observe := time.Since(start)
	ratio := float64(observe) / float64(merge)
	t.Logf("observe/merge = %.2f%% (merge %v/op, observe %v/op)",
		ratio*100, merge/reps, observe/reps)
	if ratio > 0.20 {
		t.Fatalf("sketch observation costs %.1f%% of the split-phase merge; budget is 2%% (enforced here at 10x slack)", ratio*100)
	}
}

// BenchmarkObsDisabledOverhead is the PR-10 observability acceptance
// bench: the BENCH_3-shaped P=16 split-phase merge allreduce with no
// hub attached (the default, where every hook is one nil field check)
// versus with EnableObservability recording every send and phase.
// Compare the two sub-benchmark times; TestObsDisabledOverheadBudget
// enforces the disabled-path budget in the test suite.
func BenchmarkObsDisabledOverhead(b *testing.B) {
	const n, k, P = 1 << 18, 2000, 16
	inputs := randSparseInputs(31*P, n, k, P)
	run := func(b *testing.B, observe bool) {
		for i := 0; i < b.N; i++ {
			// Fresh world per op so the enabled arm's span buffers do not
			// accumulate across iterations and skew the comparison.
			w := comm.NewWorld(P, simnet.Aries)
			if observe {
				w.EnableObservability()
			}
			comm.Run(w, func(p *comm.Proc) any {
				return core.Allreduce(p, inputs[p.Rank()],
					core.Options{Algorithm: core.SSARSplitAllgather})
			})
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, false) })
	b.Run("enabled", func(b *testing.B) { run(b, true) })
}

// TestObsDisabledOverheadBudget enforces the observability acceptance:
// with no hub attached, the instrumentation left in the hot paths must
// cost under 1% of the P=16 split-phase merge allreduce it rides in. The
// per-hook disabled cost (one nil field check, measured in a rank
// goroutine) is multiplied by a deliberately generous hook count per
// call — every send plus every phase bracket at P=16 stays well under
// 16·P — and, like TestSketchOverheadBudget, the 1% budget is enforced
// at 10× slack so a noisy CI machine cannot flake the suite while a
// regression that puts real work (an allocation, a lock) on the disabled
// path still fails loudly. Zero-allocation of the same path is asserted
// exactly in internal/comm's TestDisabledObsZeroAllocs.
func TestObsDisabledOverheadBudget(t *testing.T) {
	const n, k, P, reps = 1 << 18, 2000, 16, 20
	inputs := randSparseInputs(31*P, n, k, P)
	w := comm.NewWorld(P, simnet.Aries)
	call := func() {
		comm.Run(w, func(p *comm.Proc) any {
			return core.Allreduce(p, inputs[p.Rank()],
				core.Options{Algorithm: core.SSARSplitAllgather})
		})
	}
	call() // warm scratch and scheduler state
	start := time.Now()
	for i := 0; i < reps; i++ {
		call()
	}
	perCall := time.Since(start) / reps

	// Disabled hook cost, measured where the hooks actually run: inside a
	// rank goroutine of a world that never called EnableObservability.
	const hookReps = 1 << 20
	var hooks time.Duration
	comm.Run(w, func(p *comm.Proc) any {
		if p.Rank() != 0 {
			return nil
		}
		begin := time.Now()
		for i := 0; i < hookReps; i++ {
			p.SpanBegin("probe")
			p.SpanEnd()
		}
		hooks = time.Since(begin)
		return nil
	})
	perHook := hooks / (2 * hookReps)
	const hooksPerCall = 16 * P
	estimated := perHook * hooksPerCall
	ratio := float64(estimated) / float64(perCall)
	t.Logf("disabled hooks ≈ %.3f%% of merge call (%v/hook × %d hooks vs %v/call)",
		ratio*100, perHook, hooksPerCall, perCall)
	if ratio > 0.10 {
		t.Fatalf("disabled observability costs %.2f%% of the split-phase merge call; budget is 1%% (enforced here at 10x slack)", ratio*100)
	}
}

// BenchmarkAblationQuantBits measures the DSAR allreduce at 2/4/8-bit
// quantization versus full precision.
func BenchmarkAblationQuantBits(b *testing.B) {
	const n, P = 1 << 15, 8
	rng := rand.New(rand.NewSource(7))
	inputs := make([]*stream.Vector, P)
	for r := range inputs {
		vals := make([]float64, n)
		for i := range vals {
			if rng.Float64() < 0.3 {
				vals[i] = rng.NormFloat64()
			}
		}
		inputs[r] = stream.FromDense(vals, stream.OpSum)
	}
	run := func(b *testing.B, q *quant.Config) {
		w := comm.NewWorld(P, simnet.GigE)
		for i := 0; i < b.N; i++ {
			comm.Run(w, func(p *comm.Proc) any {
				return core.Allreduce(p, inputs[p.Rank()], core.Options{
					Algorithm: core.DSARSplitAllgather, Quant: q, Seed: 1,
				})
			})
		}
		b.ReportMetric(w.MaxTime()*1e3, "simms/op")
	}
	b.Run("fp64", func(b *testing.B) { run(b, nil) })
	for _, bits := range []int{8, 4, 2} {
		b.Run(fmt.Sprintf("%dbit", bits), func(b *testing.B) {
			run(b, &quant.Config{Bits: bits, Bucket: 1024, Norm: quant.NormMax})
		})
	}
}

// BenchmarkAblationBucket varies the TopK bucket size (selection
// granularity, §8.3).
func BenchmarkAblationBucket(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	v := make([]float64, 1<<20)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	for _, bucket := range []int{128, 512, 1024} {
		b.Run(fmt.Sprintf("bucket=%d", bucket), func(b *testing.B) {
			k := bucket / 128 // constant selected fraction
			for i := 0; i < b.N; i++ {
				topk.SparsifyBuckets(v, bucket, k)
			}
		})
	}
}

// BenchmarkAblationNetworkProfile locates the rec-double vs
// split-allgather crossover across network profiles (α/β ratios).
func BenchmarkAblationNetworkProfile(b *testing.B) {
	const n, P, k = 1 << 18, 8, 4000
	rng := rand.New(rand.NewSource(11))
	inputs := make([]*stream.Vector, P)
	for r := range inputs {
		idx := make([]int32, 0, k)
		seen := map[int32]bool{}
		val := make([]float64, 0, k)
		for len(idx) < k {
			ix := int32(rng.Intn(n))
			if !seen[ix] {
				seen[ix] = true
				idx = append(idx, ix)
				val = append(val, rng.NormFloat64())
			}
		}
		inputs[r] = stream.NewSparse(n, idx, val, stream.OpSum)
	}
	for _, prof := range []simnet.Profile{simnet.Aries, simnet.InfiniBandFDR, simnet.GigE} {
		for _, alg := range []core.Algorithm{core.SSARRecDouble, core.SSARSplitAllgather} {
			b.Run(prof.Name+"/"+alg.String(), func(b *testing.B) {
				w := comm.NewWorld(P, prof)
				for i := 0; i < b.N; i++ {
					comm.Run(w, func(p *comm.Proc) any {
						return core.Allreduce(p, inputs[p.Rank()], core.Options{Algorithm: alg})
					})
				}
				b.ReportMetric(w.MaxTime()*1e6, "simµs/op")
			})
		}
	}
}

// BenchmarkAblationErrorFeedback compares TopK training with and without
// the error-feedback residual; the metric is final top-1 accuracy (the
// convergence cost of dropping feedback).
func BenchmarkAblationErrorFeedback(b *testing.B) {
	run := func(b *testing.B, disable bool) {
		const P = 4
		ds := data.SyntheticDense(data.DenseConfig{Rows: 600, Dim: 24, Classes: 4, Sep: 3, Seed: 5})
		var top1 float64
		for i := 0; i < b.N; i++ {
			w := comm.NewWorld(P, simnet.Aries)
			results := comm.Run(w, func(p *comm.Proc) []train.Point {
				task := &train.MLPTask{
					Net:   nn.ResidualMLP(33, 24, 32, 1, 4, 1),
					Shard: ds.Shard(p.Rank(), P),
				}
				return train.Run(p, task, train.Config{
					Method: train.MethodTopK, LR: 0.0125, BatchPerNode: 32,
					Epochs: 4, Bucket: 512, K: 8,
					Algorithm: core.SSARRecDouble, Seed: 1,
					DisableErrorFeedback: disable,
				})
			})
			top1 = results[0][len(results[0])-1].Top1
		}
		b.ReportMetric(top1, "final-top1")
	}
	b.Run("with-feedback", func(b *testing.B) { run(b, false) })
	b.Run("without-feedback", func(b *testing.B) { run(b, true) })
}
