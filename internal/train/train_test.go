package train

import (
	"math"
	"testing"

	"repro/internal/adapt"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/simnet"
	"repro/internal/topk"
)

var testNet = simnet.Profile{Name: "test", Alpha: 1e-6, BetaPerByte: 1e-10,
	GammaPerElem: 1e-10, SparseComputeFactor: 4}

func denseBlobTask(rank, P int) *MLPTask {
	ds := data.SyntheticDense(data.DenseConfig{Rows: 800, Dim: 24, Classes: 4, Sep: 3, Seed: 5})
	return &MLPTask{
		Net:   nn.ResidualMLP(33, 24, 32, 1, 4, 1),
		Shard: ds.Shard(rank, P),
	}
}

func runTraining(t *testing.T, P int, cfg Config, mk func(rank int) Task) [][]Point {
	t.Helper()
	w := comm.NewWorld(P, testNet)
	return comm.Run(w, func(p *comm.Proc) []Point {
		return Run(p, mk(p.Rank()), cfg)
	})
}

func TestDenseTrainingConverges(t *testing.T) {
	P := 4
	hist := runTraining(t, P, Config{
		Method: MethodDense, LR: 0.05, Momentum: 0.9,
		BatchPerNode: 32, Epochs: 6, Seed: 1,
	}, func(rank int) Task { return denseBlobTask(rank, P) })
	final := hist[0][len(hist[0])-1]
	if final.Top1 < 0.9 {
		t.Fatalf("dense final top-1 %g, want ≥0.9", final.Top1)
	}
	if final.Loss >= hist[0][0].Loss {
		t.Fatal("loss did not decrease")
	}
}

func TestTopKTrainingConverges(t *testing.T) {
	P := 4
	hist := runTraining(t, P, Config{
		Method: MethodTopK, LR: 0.05 / 4, // Algorithm 1 applies the sum
		BatchPerNode: 32, Epochs: 8,
		Bucket: 512, K: 16, Algorithm: core.SSARRecDouble, Seed: 1,
	}, func(rank int) Task { return denseBlobTask(rank, P) })
	final := hist[0][len(hist[0])-1]
	if final.Top1 < 0.85 {
		t.Fatalf("TopK final top-1 %g, want ≥0.85", final.Top1)
	}
}

func TestQuantizedTopKSGDConvergence(t *testing.T) {
	// Theorem 4.1 empirical check: Quantized TopK SGD on a smooth
	// non-convex objective (the MLP) must drive the loss down and reach
	// accuracy comparable to dense training (Figure 4's finding: within
	// ~1%). We allow a modest gap on this small instance.
	P := 4
	dense := runTraining(t, P, Config{
		Method: MethodDense, LR: 0.05, BatchPerNode: 32, Epochs: 8, Seed: 2,
	}, func(rank int) Task { return denseBlobTask(rank, P) })
	quantized := runTraining(t, P, Config{
		Method: MethodTopK, LR: 0.05 / 4, BatchPerNode: 32, Epochs: 8,
		Bucket: 512, K: 16, QuantBits: 4,
		Algorithm: core.DSARSplitAllgather, Seed: 2,
	}, func(rank int) Task { return denseBlobTask(rank, P) })
	d := dense[0][len(dense[0])-1]
	q := quantized[0][len(quantized[0])-1]
	if q.Top1 < d.Top1-0.08 {
		t.Fatalf("quantized TopK top-1 %g vs dense %g: gap too large", q.Top1, d.Top1)
	}
	if q.Loss >= quantized[0][0].Loss {
		t.Fatal("quantized TopK loss did not decrease")
	}
}

func TestTopKSendsFarFewerBytes(t *testing.T) {
	// §8.3: the ATIS LSTM's 80MB/step full-precision exchange shrinks to
	// <0.5MB with TopK. Check the per-rank payload ratio here.
	P := 4
	dense := runTraining(t, P, Config{
		Method: MethodDense, LR: 0.05, BatchPerNode: 16, Epochs: 1,
		StepsPerEpoch: 5, Seed: 3,
	}, func(rank int) Task { return denseBlobTask(rank, P) })
	sparse := runTraining(t, P, Config{
		Method: MethodTopK, LR: 0.0125, BatchPerNode: 16, Epochs: 1,
		StepsPerEpoch: 5, Bucket: 512, K: 4,
		Algorithm: core.SSARRecDouble, Seed: 3,
	}, func(rank int) Task { return denseBlobTask(rank, P) })
	dBytes, sBytes := dense[0][0].BytesSent, sparse[0][0].BytesSent
	if ratio := float64(dBytes) / float64(sBytes); ratio < 20 {
		t.Fatalf("TopK payload reduction %.1fx, want ≥20x (dense %d vs sparse %d bytes)", ratio, dBytes, sBytes)
	}
}

func TestBMUFConvergesAndSyncsLess(t *testing.T) {
	P := 4
	hist := runTraining(t, P, Config{
		Method: MethodBMUF, LR: 0.05, Momentum: 0.9,
		BatchPerNode: 32, Epochs: 8,
		BMUFBlockSteps: 5, BMUFMomentum: 0.5, Seed: 4,
	}, func(rank int) Task { return denseBlobTask(rank, P) })
	final := hist[0][len(hist[0])-1]
	if final.Top1 < 0.85 {
		t.Fatalf("BMUF final top-1 %g, want ≥0.85", final.Top1)
	}
	// BMUF syncs every 5 steps → ~5x less comm time than per-step dense.
	dense := runTraining(t, P, Config{
		Method: MethodDense, LR: 0.05, Momentum: 0.9,
		BatchPerNode: 32, Epochs: 8, Seed: 4,
	}, func(rank int) Task { return denseBlobTask(rank, P) })
	if hist[0][7].CommTime >= dense[0][7].CommTime {
		t.Fatal("BMUF must spend less time communicating than per-step dense SGD")
	}
}

func TestReplicasStayConsistent(t *testing.T) {
	P := 4
	for _, method := range []Method{MethodDense, MethodTopK} {
		cfg := Config{
			Method: method, LR: 0.02, BatchPerNode: 16, Epochs: 2,
			Bucket: 256, K: 8, Algorithm: core.SSARSplitAllgather, Seed: 6,
		}
		hist := runTraining(t, P, cfg, func(rank int) Task { return denseBlobTask(rank, P) })
		for r := 1; r < P; r++ {
			for e := range hist[r] {
				if math.Abs(hist[r][e].Loss-hist[0][e].Loss) > 1e-9 {
					t.Fatalf("method=%s rank=%d epoch=%d: replica loss diverged", method, r, e)
				}
			}
		}
	}
}

func TestLSTMTaskDistributedTraining(t *testing.T) {
	P := 2
	ds := data.SyntheticSequences(data.SequenceConfig{
		Rows: 400, Vocab: 60, Classes: 6, MinLen: 5, MaxLen: 10, Seed: 7,
	})
	hist := runTraining(t, P, Config{
		Method: MethodTopK, LR: 0.5, BatchPerNode: 16, Epochs: 6,
		Bucket: 256, K: 32, Algorithm: core.SSARRecDouble, Seed: 8,
	}, func(rank int) Task {
		return &LSTMTask{
			Model: nn.NewLSTMClassifier(21, 60, 10, 20, 6),
			Shard: ds.Shard(rank, P),
		}
	})
	final := hist[0][len(hist[0])-1]
	first := hist[0][0]
	if final.Loss >= first.Loss {
		t.Fatalf("LSTM TopK loss did not decrease (%g → %g)", first.Loss, final.Loss)
	}
	if final.Top1 < 0.5 {
		t.Fatalf("LSTM TopK top-1 %g, want ≥0.5 on 6 classes", final.Top1)
	}
}

func TestSimulatedTimeScalesWithDevice(t *testing.T) {
	P := 2
	run := func(dev simnet.Device) float64 {
		hist := runTraining(t, P, Config{
			Method: MethodDense, LR: 0.05, BatchPerNode: 32, Epochs: 1,
			StepsPerEpoch: 3, Device: dev, Seed: 9,
		}, func(rank int) Task { return denseBlobTask(rank, P) })
		return hist[0][0].Time
	}
	fast, slow := run(simnet.GPUV100), run(simnet.GPUK80)
	if fast >= slow {
		t.Fatalf("V100 epoch (%g) must be faster than K80 (%g)", fast, slow)
	}
}

func TestEvalSamplesCap(t *testing.T) {
	P := 2
	hist := runTraining(t, P, Config{
		Method: MethodDense, LR: 0.05, BatchPerNode: 16, Epochs: 1,
		StepsPerEpoch: 2, EvalSamples: 10, Seed: 10,
	}, func(rank int) Task { return denseBlobTask(rank, P) })
	if len(hist[0]) != 1 {
		t.Fatal("missing history point")
	}
	if hist[0][0].Top1 < 0 || hist[0][0].Top1 > 1 {
		t.Fatal("accuracy out of range")
	}
}

func TestLayerWiseMatchesFusedConvergence(t *testing.T) {
	// Layer-wise nonblocking exchange selects TopK per layer rather than
	// globally per bucket, so trajectories differ slightly — but both
	// must converge, stay replica-consistent, and move equal payloads for
	// bucketed selection.
	P := 4
	base := Config{
		Method: MethodTopK, LR: 0.0125, BatchPerNode: 32, Epochs: 6,
		Bucket: 256, K: 8, Algorithm: core.SSARRecDouble, Seed: 11,
	}
	fused := runTraining(t, P, base, func(rank int) Task { return denseBlobTask(rank, P) })
	layered := base
	layered.LayerWise = true
	layerwise := runTraining(t, P, layered, func(rank int) Task { return denseBlobTask(rank, P) })

	f := fused[0][len(fused[0])-1]
	l := layerwise[0][len(layerwise[0])-1]
	if l.Top1 < 0.85 {
		t.Fatalf("layer-wise final top-1 %g, want ≥0.85", l.Top1)
	}
	if l.Top1 < f.Top1-0.1 {
		t.Fatalf("layer-wise top-1 %g far below fused %g", l.Top1, f.Top1)
	}
	for r := 1; r < P; r++ {
		if math.Abs(layerwise[r][0].Loss-layerwise[0][0].Loss) > 1e-9 {
			t.Fatal("layer-wise replicas diverged")
		}
	}
}

func TestLayerWiseOverlapReducesCommTime(t *testing.T) {
	// With several layers and a latency-heavy network, overlapping the
	// per-layer collectives must beat running them back to back; compare
	// against a 1-layer (fully fused) model where overlap cannot help.
	P := 4
	cfg := Config{
		Method: MethodTopK, LR: 0.0125, BatchPerNode: 16, Epochs: 1,
		StepsPerEpoch: 4, Bucket: 128, K: 4,
		Algorithm: core.SSARRecDouble, Seed: 13, LayerWise: true,
	}
	hist := runTraining(t, P, cfg, func(rank int) Task { return denseBlobTask(rank, P) })
	fusedCfg := cfg
	fusedCfg.LayerWise = false
	fused := runTraining(t, P, fusedCfg, func(rank int) Task { return denseBlobTask(rank, P) })
	// Layer-wise issues more messages but overlaps them; comm time must
	// stay within 2x of fused (back-to-back would be ~#layers x).
	if hist[0][0].CommTime > 2*fused[0][0].CommTime {
		t.Fatalf("layer-wise comm %g vs fused %g: overlap not effective",
			hist[0][0].CommTime, fused[0][0].CommTime)
	}
}

func TestExtractSpanLeavesOtherLayersUntouched(t *testing.T) {
	// Direct unit check on the span extraction used by layer-wise mode.
	r := topk.NewResidual(10)
	r.Accumulate([]float64{9, 8, 7, 6, 5, 4, 3, 2, 1, 0.5}, 1)
	out := r.ExtractSpan(2, 6, 0, 2)
	if out.NNZ() != 2 || out.Get(2) != 7 || out.Get(3) != 6 {
		t.Fatalf("span extraction wrong: %v", out)
	}
	if r.Norm() == 0 {
		t.Fatal("residual outside the span must remain")
	}
	// Entries outside [2,6) must be untouched.
	check := r.ExtractSpan(0, 2, 0, 2)
	if check.Get(0) != 9 || check.Get(1) != 8 {
		t.Fatal("entries outside the first span were modified")
	}
}

func TestLRSchedules(t *testing.T) {
	step := StepDecay(10, 30, 60)
	if step(0) != 1 || step(29) != 1 {
		t.Fatal("step decay fired early")
	}
	if got := step(30); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("step(30) = %g, want 0.1", got)
	}
	if got := step(60); math.Abs(got-0.01) > 1e-12 {
		t.Fatalf("step(60) = %g, want 0.01", got)
	}
	inv := InvSqrtDecay()
	if inv(0) != 1 {
		t.Fatal("invsqrt(0) != 1")
	}
	if got := inv(3); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("invsqrt(3) = %g, want 0.5", got)
	}
	// Diminishing, as Theorem 4.1 requires.
	for e := 1; e < 50; e++ {
		if inv(e) >= inv(e-1) {
			t.Fatal("invsqrt not diminishing")
		}
	}
}

func TestScheduledTrainingConverges(t *testing.T) {
	P := 4
	hist := runTraining(t, P, Config{
		Method: MethodDense, LR: 0.1, Momentum: 0.9,
		BatchPerNode: 32, Epochs: 8,
		LRSchedule: StepDecay(5, 4), Seed: 15,
	}, func(rank int) Task { return denseBlobTask(rank, P) })
	final := hist[0][len(hist[0])-1]
	if final.Top1 < 0.9 {
		t.Fatalf("scheduled training top-1 %g, want ≥0.9", final.Top1)
	}
}

// TestTopKAdaptiveTraining drives the runtime adaptation layer from the
// TopK SGD loop — the canonical adaptive workload: residual density and
// clustering drift as training progresses. The adaptive run must converge
// like the static one, keep replicas consistent, and actually exercise
// the decision layer (a concrete algorithm held, calibration samples
// consumed).
func TestTopKAdaptiveTraining(t *testing.T) {
	P := 4
	w := comm.NewWorldHier(P, simnet.TwoLevel(2, simnet.NVLinkLike, simnet.Aries, 1))
	ctrls := make([]*adapt.Controller, P)
	for r := range ctrls {
		ctrls[r] = adapt.NewController(adapt.Config{})
	}
	adapt.Calibrate(w, ctrls)
	hist := comm.Run(w, func(p *comm.Proc) []Point {
		cfg := Config{
			Method: MethodTopK, LR: 0.05 / 4,
			BatchPerNode: 32, Epochs: 8,
			Bucket: 512, K: 16, Algorithm: core.Auto, Seed: 1,
			Adapt: ctrls[p.Rank()],
		}
		return Run(p, denseBlobTask(p.Rank(), P), cfg)
	})
	final := hist[0][len(hist[0])-1]
	if final.Top1 < 0.85 {
		t.Fatalf("adaptive TopK final top-1 %g, want ≥0.85", final.Top1)
	}
	for r := 1; r < P; r++ {
		for e := range hist[r] {
			if hist[r][e].Loss != hist[0][e].Loss || hist[r][e].Top1 != hist[0][e].Top1 {
				t.Fatalf("rank %d epoch %d history diverged from rank 0 — replicas inconsistent", r, e)
			}
		}
	}
	alg, _ := ctrls[0].Choice()
	if alg == core.Auto {
		t.Fatal("controller never resolved a concrete algorithm")
	}
	if ctrls[0].Calibrator().Samples(0) == 0 {
		t.Fatal("no calibration samples consumed during training")
	}
	for r := 1; r < P; r++ {
		algR, lvR := ctrls[r].Choice()
		alg0, lv0 := ctrls[0].Choice()
		if algR != alg0 || lvR != lv0 {
			t.Fatalf("rank %d controller holds %s@%d, rank 0 %s@%d — must agree", r, algR, lvR, alg0, lv0)
		}
	}
}

// TestLayerWiseAdaptiveTraining: the layer-wise path must route through
// the adaptation controller too (Controller.Plan — one fused decision per
// step on the parent proc), not silently fall back to static Auto. The
// run must converge, keep replicas consistent, and leave every rank's
// controller holding the same concrete choice.
func TestLayerWiseAdaptiveTraining(t *testing.T) {
	P := 4
	w := comm.NewWorldHier(P, simnet.TwoLevel(2, simnet.NVLinkLike, simnet.Aries, 1))
	ctrls := make([]*adapt.Controller, P)
	for r := range ctrls {
		ctrls[r] = adapt.NewController(adapt.Config{})
	}
	adapt.Calibrate(w, ctrls)
	hist := comm.Run(w, func(p *comm.Proc) []Point {
		cfg := Config{
			Method: MethodTopK, LR: 0.0125,
			BatchPerNode: 32, Epochs: 6,
			Bucket: 256, K: 8, Algorithm: core.Auto, Seed: 11,
			LayerWise: true, Adapt: ctrls[p.Rank()],
		}
		return Run(p, denseBlobTask(p.Rank(), P), cfg)
	})
	final := hist[0][len(hist[0])-1]
	if final.Top1 < 0.85 {
		t.Fatalf("layer-wise adaptive final top-1 %g, want ≥0.85", final.Top1)
	}
	for r := 1; r < P; r++ {
		for e := range hist[r] {
			if hist[r][e].Loss != hist[0][e].Loss || hist[r][e].Top1 != hist[0][e].Top1 {
				t.Fatalf("rank %d epoch %d diverged — layer-wise adaptive replicas inconsistent", r, e)
			}
		}
	}
	alg0, lv0 := ctrls[0].Choice()
	if alg0 == core.Auto {
		t.Fatal("layer-wise path bypassed the controller: Auto never resolved")
	}
	for r := 1; r < P; r++ {
		algR, lvR := ctrls[r].Choice()
		if algR != alg0 || lvR != lv0 {
			t.Fatalf("rank %d holds %s@%d, rank 0 %s@%d", r, algR, lvR, alg0, lv0)
		}
	}
}

func TestBucketedTrainingConvergesAndStaysConsistent(t *testing.T) {
	// Bucketed-overlap exchange (Config.BucketCoords) selects TopK per
	// layer like LayerWise but fuses consecutive layers into scheduler
	// buckets; it must converge like the per-layer loop and keep replicas
	// bit-consistent, with and without the adaptive per-bucket planner.
	P := 4
	base := Config{
		Method: MethodTopK, LR: 0.0125, BatchPerNode: 32, Epochs: 6,
		Bucket: 256, K: 8, Algorithm: core.SSARRecDouble, Seed: 11,
		BucketCoords: 200, // fuses the residual MLP's small layers
	}
	run := func(cfg Config, adaptive bool) [][]Point {
		if !adaptive {
			return runTraining(t, P, cfg, func(rank int) Task { return denseBlobTask(rank, P) })
		}
		w := comm.NewWorld(P, testNet)
		return comm.Run(w, func(p *comm.Proc) []Point {
			c := cfg
			c.Algorithm = core.Auto
			c.Chunks = core.AutoChunks
			c.Adapt = adapt.NewController(adapt.Config{})
			return Run(p, denseBlobTask(p.Rank(), P), c)
		})
	}
	for _, adaptive := range []bool{false, true} {
		hist := run(base, adaptive)
		last := hist[0][len(hist[0])-1]
		if last.Top1 < 0.85 {
			t.Fatalf("adaptive=%v: bucketed final top-1 %g, want >=0.85", adaptive, last.Top1)
		}
		for r := 1; r < P; r++ {
			for i := range hist[r] {
				if math.Abs(hist[r][i].Loss-hist[0][i].Loss) > 1e-9 {
					t.Fatalf("adaptive=%v: bucketed replicas diverged at point %d", adaptive, i)
				}
			}
		}
	}
}
