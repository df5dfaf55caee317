package experiments

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/simnet"
)

func TestRunMicrobenchProducesStableStats(t *testing.T) {
	cfg := MicrobenchConfig{
		N: 1 << 14, Density: 0.01, P: 4,
		Profile: simnet.Aries, Gens: 2, Runs: 2, Seed: 1,
	}
	row := RunMicrobench(cfg, core.SSARRecDouble)
	if row.Median <= 0 {
		t.Fatal("median time must be positive")
	}
	if row.Q25 > row.Median || row.Median > row.Q75 {
		t.Fatalf("quantiles out of order: %g %g %g", row.Q25, row.Median, row.Q75)
	}
	// Virtual-clock timings are deterministic given the same data, so the
	// IQR must be tight.
	if row.Q75-row.Q25 > 0.01*row.Median {
		t.Fatalf("virtual-clock IQR unexpectedly wide: [%g, %g]", row.Q25, row.Q75)
	}
	if row.ResultNNZ <= 0 {
		t.Fatal("result nnz missing")
	}
}

func TestFig3OrderingAtPaperOperatingPoints(t *testing.T) {
	// At the paper's operating point (high dimension, 0.78% density,
	// growing P) the sparse algorithms must beat the dense baselines by a
	// wide margin — the headline of Figure 3.
	rows := Fig3NodeSweep(1<<18, 0.0078, []int{8}, simnet.Aries, 1, 1)
	byAlg := map[string]MicrobenchRow{}
	for _, r := range rows {
		byAlg[r.Algorithm] = r
	}
	sparseBest := math.Min(byAlg[core.SSARRecDouble.String()].Median, byAlg[core.SSARSplitAllgather.String()].Median)
	denseBest := math.Min(byAlg[core.DenseRabenseifner.String()].Median, byAlg[core.DenseRing.String()].Median)
	if denseBest/sparseBest < 5 {
		t.Fatalf("sparse best %g vs dense best %g: speedup %.1fx, want ≥5x",
			sparseBest, denseBest, denseBest/sparseBest)
	}
}

func TestFig3DensitySweepCrossover(t *testing.T) {
	// As density rises toward 25%, the sparse advantage must shrink: DSAR
	// is capped at 2/κ (Lemma 5.2) and dense algorithms become
	// competitive — the right panel's convergence of curves.
	lo := Fig3DensitySweep(1<<16, 8, []float64{0.0005}, simnet.GigE, 1, 1)
	hi := Fig3DensitySweep(1<<16, 8, []float64{0.25}, simnet.GigE, 1, 1)
	ratio := func(rows []MicrobenchRow) float64 {
		byAlg := map[string]MicrobenchRow{}
		for _, r := range rows {
			byAlg[r.Algorithm] = r
		}
		return byAlg[core.DenseRabenseifner.String()].Median / byAlg[core.SSARSplitAllgather.String()].Median
	}
	if rLo, rHi := ratio(lo), ratio(hi); rLo <= rHi {
		t.Fatalf("sparse advantage must shrink with density: %.2fx at 0.05%% vs %.2fx at 25%%", rLo, rHi)
	}
}

func TestFig1GridMatchesClosedForm(t *testing.T) {
	rows := Fig1Grid(270000, []int{2, 64}, []float64{0.05})
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	// 5% per node at 64 nodes: essentially dense (Figure 1's message).
	for _, r := range rows {
		if r.P == 64 && r.Analytic < 0.9 {
			t.Fatalf("P=64 d=5%%: analytic density %g, want >0.9", r.Analytic)
		}
		if r.P == 2 && r.Analytic > 0.12 {
			t.Fatalf("P=2 d=5%%: analytic density %g, want ≤~0.1", r.Analytic)
		}
	}
}

func TestFig1EmpiricalGradientsClusterBelowUniform(t *testing.T) {
	rows := Fig1Empirical([]int{2, 8}, []float64{0.03}, 3)
	prev := 0.0
	for _, r := range rows {
		if r.Empirical <= 0 || r.Empirical > 1 {
			t.Fatalf("empirical density %g out of range", r.Empirical)
		}
		// Real gradients share hot coordinates across nodes, so measured
		// fill-in must not exceed the uniform worst case by much.
		if r.Empirical > r.Analytic*1.15 {
			t.Fatalf("P=%d: empirical %g far above uniform analytic %g", r.P, r.Empirical, r.Analytic)
		}
		// The union contains each node's full selection, so empirical
		// density must be at least ~the per-node selected fraction (TopK
		// selects ceil(d·512)/512 per bucket; allow bucket-boundary slack).
		if r.Empirical < 0.8*r.PerNodeDensity {
			t.Fatalf("P=%d: empirical %g below per-node density %g — degenerate selection", r.P, r.Empirical, r.PerNodeDensity)
		}
		// Fill-in grows with P.
		if r.Empirical < prev {
			t.Fatalf("P=%d: empirical density decreased", r.P)
		}
		prev = r.Empirical
	}
}

func TestFig7TableShape(t *testing.T) {
	rows := Fig7Table([]int{1, 8, 64, 512}, []int{2, 8, 32})
	if len(rows) != 12 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.K == 512 && math.Abs(r.Growth-1) > 1e-9 {
			t.Fatalf("k=N growth = %g, want 1", r.Growth)
		}
		// k=1 growth approaches P (slightly below due to collisions).
		if r.K == 1 && (r.Growth > float64(r.P) || r.Growth < 0.94*float64(r.P)) {
			t.Fatalf("k=1 growth = %g, want ≈P=%d", r.Growth, r.P)
		}
	}
}

func TestTable2CaseShowsSparseAdvantage(t *testing.T) {
	cases := DefaultTable2Cases(0.01)
	// Run a Greina-GigE row, where the paper reports the largest speedups.
	var tc Table2Case
	for _, c := range cases {
		if c.System == "Greina (GigE)" && c.Dataset == "URL" {
			tc = c
			break
		}
	}
	tc.Nodes = 4 // keep the smoke test fast
	row := RunTable2Case(tc, 2, 1)
	if row.Speedup <= 1 {
		t.Fatalf("end-to-end speedup %.2fx, want >1x", row.Speedup)
	}
	if row.CommSpeedup <= row.Speedup {
		t.Fatal("communication speedup should exceed end-to-end speedup")
	}
	if row.FinalAccuracy < 0.7 {
		t.Fatalf("training did not converge: accuracy %g", row.FinalAccuracy)
	}
}

func TestSCDExperiment(t *testing.T) {
	res := RunSCDExperiment(0.005, 2, 1)
	if res.Speedup <= 1 || res.CommSpeedup <= 1 {
		t.Fatalf("SCD sparse allgather must win: speedup %.2fx comm %.2fx", res.Speedup, res.CommSpeedup)
	}
}

func TestSparkComparisonOrdering(t *testing.T) {
	res := RunSparkComparison(0.01, 1, 1)
	// §8.2 ordering: Spark-like ≫ dense MPI ≫ sparse, and the sparse-vs-
	// Spark comm gap exceeds the dense-vs-Spark gap.
	if !(res.SparkComm > res.DenseComm && res.DenseComm > res.SparseComm) {
		t.Fatalf("comm ordering violated: spark %g dense %g sparse %g",
			res.SparkComm, res.DenseComm, res.SparseComm)
	}
	if res.SparseVsSparkComm <= res.DenseVsSparkComm {
		t.Fatal("sparse must gain more over Spark than dense does")
	}
	if res.DenseVsSparkComm < 3 {
		t.Fatalf("dense-vs-Spark comm factor %.1fx, want ≥3x", res.DenseVsSparkComm)
	}
}

func TestFig4aSmoke(t *testing.T) {
	series := Fig4aCIFAR(DNNScale{Rows: 400, Epochs: 2, P: 4}, 1)
	if len(series) != 3 {
		t.Fatalf("want 3 series, got %d", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 2 {
			t.Fatalf("%s: want 2 epochs", s.Label)
		}
		last := s.Points[len(s.Points)-1]
		if last.Top1 <= 0.1 { // must beat 10-class chance
			t.Fatalf("%s: top-1 %g not above chance", s.Label, last.Top1)
		}
	}
}

func TestFig6ScalabilityMonotone(t *testing.T) {
	series := Fig6ASR(DNNScale{Rows: 320, Epochs: 1, P: 2}, 1)
	pts := Scalability(series[1:]) // TopK runs only
	if len(pts) != 3 {
		t.Fatalf("want 3 scalability points, got %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Speedup <= pts[i-1].Speedup {
			t.Fatalf("scalability not monotone: %+v", pts)
		}
	}
}

func TestTable3Hyperparameters(t *testing.T) {
	// Paper Table 3: CIFAR batch 256; ImageNet 512; ATIS 560; selections
	// quoted in §8.3/§8.4: 8 or 16/512 CIFAR (4-bit), 2/512 ATIS, 1/512
	// wide ResNets, 4/512 ASR.
	cifar, ok := Table3For("CIFAR-10")
	if !ok || cifar.GlobalBatchSize != 256 || cifar.K != 8 || cifar.Bucket != 512 || cifar.QuantBits != 4 {
		t.Fatalf("CIFAR row mismatch: %+v", cifar)
	}
	imgnet, _ := Table3For("ImageNet-1K")
	if imgnet.GlobalBatchSize != 512 || imgnet.K != 1 {
		t.Fatalf("ImageNet row mismatch: %+v", imgnet)
	}
	atis, _ := Table3For("ATIS")
	if atis.GlobalBatchSize != 560 || atis.K != 2 {
		t.Fatalf("ATIS row mismatch: %+v", atis)
	}
	asr, _ := Table3For("ASR (proprietary)")
	if asr.K != 4 || asr.Bucket != 512 {
		t.Fatalf("ASR row mismatch: %+v", asr)
	}
	if _, ok := Table3For("MNIST"); ok {
		t.Fatal("unexpected dataset")
	}
}
