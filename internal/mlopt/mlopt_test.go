package mlopt

import (
	"math"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/simnet"
)

var testNet = simnet.Profile{Name: "test", Alpha: 1e-6, BetaPerByte: 1e-10,
	GammaPerElem: 1e-10, SparseComputeFactor: 4}

func testDataset() *data.SparseDataset {
	return data.SyntheticSparse(data.SparseConfig{
		Rows: 2000, Dim: 5000, NNZPerRow: 25,
		HotFraction: 0.05, ClusterBias: 0.8, NoiseRate: 0.01, Seed: 11,
	})
}

// wideDataset has URL-like dimension/sample ratios: minibatch gradients
// stay genuinely sparse (<5% density).
func wideDataset() *data.SparseDataset {
	return data.SyntheticSparse(data.SparseConfig{
		Rows: 2000, Dim: 50000, NNZPerRow: 25,
		HotFraction: 0.02, ClusterBias: 0.8, NoiseRate: 0.01, Seed: 11,
	})
}

func TestLossValuesAndDerivatives(t *testing.T) {
	// Logistic at margin 0: loss = ln 2, derivative = −1/2.
	if got := Logistic.Value(0); math.Abs(got-math.Ln2) > 1e-12 {
		t.Fatalf("logistic(0) = %g, want ln2", got)
	}
	if got := Logistic.DMargin(0); math.Abs(got+0.5) > 1e-12 {
		t.Fatalf("logistic'(0) = %g, want -0.5", got)
	}
	// Hinge: flat past margin 1, slope −1 before.
	if Hinge.Value(2) != 0 || Hinge.DMargin(2) != 0 {
		t.Fatal("hinge must vanish past margin 1")
	}
	if Hinge.Value(0) != 1 || Hinge.DMargin(0) != -1 {
		t.Fatal("hinge at margin 0 wrong")
	}
	// Logistic must be numerically stable at extreme margins.
	if v := Logistic.Value(1000); v != 0 && !(v > 0 && v < 1e-300) {
		t.Fatalf("logistic(1000) = %g, want ~0", v)
	}
	if v := Logistic.Value(-50); math.Abs(v-50) > 1 {
		t.Fatalf("logistic(-50) = %g, want ≈50", v)
	}
}

func TestLossDerivativeMatchesFiniteDifference(t *testing.T) {
	for _, l := range []Loss{Logistic, Hinge} {
		for _, m := range []float64{-3, -0.5, 0.3, 0.99, 2.5} {
			h := 1e-6
			fd := (l.Value(m+h) - l.Value(m-h)) / (2 * h)
			if math.Abs(fd-l.DMargin(m)) > 1e-5 {
				t.Fatalf("%s at m=%g: analytic %g vs finite-diff %g", l, m, l.DMargin(m), fd)
			}
		}
	}
}

func TestSGDConvergesSparseAndDense(t *testing.T) {
	ds := testDataset()
	P := 4
	for _, mode := range []CommMode{CommDense, CommSparse} {
		w := comm.NewWorld(P, testNet)
		results := comm.Run(w, func(p *comm.Proc) []EpochStats {
			return TrainSGD(p, ds.Shard(p.Rank(), P), SGDConfig{
				Loss: Logistic, LR: 1.0, BatchPerNode: 100, Epochs: 10,
				Mode: mode, Algorithm: core.SSARRecDouble, Seed: 3,
			})
		})
		final := results[0][len(results[0])-1]
		if final.Accuracy < 0.9 {
			t.Fatalf("mode=%d: final accuracy %g, want ≥0.9", mode, final.Accuracy)
		}
		// Loss must be decreasing overall.
		first := results[0][0]
		if final.Loss >= first.Loss {
			t.Fatalf("mode=%d: loss did not decrease (%g → %g)", mode, first.Loss, final.Loss)
		}
		// All ranks must report identical stats (consistent replicas).
		for r := 1; r < P; r++ {
			last := results[r][len(results[r])-1]
			if math.Abs(last.Accuracy-final.Accuracy) > 1e-12 || math.Abs(last.Loss-final.Loss) > 1e-12 {
				t.Fatalf("mode=%d: rank %d stats diverge", mode, r)
			}
		}
	}
}

// TestSGDUnevenShardsFinish: 402 rows on 4 ranks shard as 100 and 101
// rows, one and two batches of 100, so the ranks must agree on the step
// count or block forever in mismatched collectives.
func TestSGDUnevenShardsFinish(t *testing.T) {
	ds := data.SyntheticSparse(data.SparseConfig{Rows: 402, Dim: 1000, NNZPerRow: 10, Seed: 11})
	const P = 4
	done := make(chan []EpochStats, 1)
	go func() {
		done <- comm.Run(comm.NewWorld(P, testNet), func(p *comm.Proc) []EpochStats {
			return TrainSGD(p, ds.Shard(p.Rank(), P), SGDConfig{
				Loss: Logistic, LR: 1.0, BatchPerNode: 100, Epochs: 1,
				Mode: CommSparse, Algorithm: core.SSARRecDouble, Seed: 3,
			})
		})[0]
	}()
	select {
	case stats := <-done:
		if len(stats) != 1 {
			t.Fatalf("want 1 epoch, got %d", len(stats))
		}
	case <-time.After(time.Minute):
		t.Fatal("TrainSGD on uneven shards did not finish: ranks disagree on the step count")
	}
}

func TestSGDSparseAndDenseAgree(t *testing.T) {
	// Lossless sparse communication: the sparse-comm run must produce the
	// same learning trajectory as the dense baseline (same batches, exact
	// sums up to float associativity — compare loosely).
	ds := testDataset()
	P := 4
	run := func(mode CommMode) []EpochStats {
		w := comm.NewWorld(P, testNet)
		results := comm.Run(w, func(p *comm.Proc) []EpochStats {
			return TrainSGD(p, ds.Shard(p.Rank(), P), SGDConfig{
				Loss: Hinge, LR: 0.2, BatchPerNode: 50, Epochs: 3,
				Mode: mode, Algorithm: core.SSARSplitAllgather, Seed: 5,
			})
		})
		return results[0]
	}
	dense, sparse := run(CommDense), run(CommSparse)
	for e := range dense {
		if math.Abs(dense[e].Loss-sparse[e].Loss) > 1e-6 {
			t.Fatalf("epoch %d: dense loss %g vs sparse loss %g", e, dense[e].Loss, sparse[e].Loss)
		}
	}
}

func TestSGDSparseCommFasterOnSparseData(t *testing.T) {
	// The Table 2 claim: on sparse data the SparCML exchange beats the
	// dense baseline in communication time.
	ds := wideDataset()
	P := 8
	commT := func(mode CommMode) float64 {
		w := comm.NewWorld(P, simnet.GigE)
		results := comm.Run(w, func(p *comm.Proc) []EpochStats {
			return TrainSGD(p, ds.Shard(p.Rank(), P), SGDConfig{
				Loss: Logistic, LR: 0.5, BatchPerNode: 100, Epochs: 1,
				Mode: mode, Algorithm: core.SSARRecDouble, Seed: 7,
			})
		})
		return results[0][0].CommTime
	}
	dense, sparse := commT(CommDense), commT(CommSparse)
	if sparse >= dense {
		t.Fatalf("sparse comm (%g) not faster than dense (%g)", sparse, dense)
	}
	if dense/sparse < 2 {
		t.Fatalf("sparse comm speedup %.2f, want ≥2x on this instance", dense/sparse)
	}
}

func TestSCDConvergesSparseAndDense(t *testing.T) {
	ds := data.SyntheticSparse(data.SparseConfig{
		Rows: 1000, Dim: 800, NNZPerRow: 30,
		HotFraction: 0.2, ClusterBias: 0.7, NoiseRate: 0.01, Seed: 13,
	})
	P := 4
	for _, sparse := range []bool{true, false} {
		w := comm.NewWorld(P, testNet)
		results := comm.Run(w, func(p *comm.Proc) []EpochStats {
			return TrainSCD(p, ds.Shard(p.Rank(), P), SCDConfig{
				Loss: Logistic, LR: 6, CoordsPerIter: 50,
				ItersPerEpoch: 40, Epochs: 5, Sparse: sparse, Seed: 17,
			})
		})
		final := results[0][len(results[0])-1]
		if final.Accuracy < 0.85 {
			t.Fatalf("sparse=%v: final accuracy %g, want ≥0.85", sparse, final.Accuracy)
		}
	}
}

func TestSCDSparseAllgatherFasterThanDense(t *testing.T) {
	// §8.2: sparse allgather gave a 5.3× communication speedup over the
	// dense allgather on the URL run. Check the direction and a ≥2× gap.
	ds := data.SyntheticSparse(data.SparseConfig{
		Rows: 500, Dim: 20000, NNZPerRow: 20,
		HotFraction: 0.1, ClusterBias: 0.5, NoiseRate: 0.01, Seed: 19,
	})
	P := 8
	commT := func(sparse bool) float64 {
		w := comm.NewWorld(P, simnet.GigE)
		results := comm.Run(w, func(p *comm.Proc) []EpochStats {
			return TrainSCD(p, ds.Shard(p.Rank(), P), SCDConfig{
				Loss: Logistic, LR: 2, CoordsPerIter: 100,
				ItersPerEpoch: 10, Epochs: 1, Sparse: sparse, Seed: 23,
			})
		})
		return results[0][0].CommTime
	}
	sparse, dense := commT(true), commT(false)
	if sparse >= dense || dense/sparse < 2 {
		t.Fatalf("sparse allgather comm %g vs dense %g (%.1fx), want ≥2x", sparse, dense, dense/sparse)
	}
}

func TestSCDMarginCacheConsistency(t *testing.T) {
	// The incremental margin cache must agree with recomputing w·x from
	// scratch — checked implicitly by convergence, and explicitly here by
	// verifying that replicas agree (any cache drift desynchronizes loss).
	ds := data.SyntheticSparse(data.SparseConfig{
		Rows: 400, Dim: 600, NNZPerRow: 15, NoiseRate: 0, Seed: 29,
	})
	P := 4
	w := comm.NewWorld(P, testNet)
	results := comm.Run(w, func(p *comm.Proc) []EpochStats {
		return TrainSCD(p, ds.Shard(p.Rank(), P), SCDConfig{
			Loss: Logistic, LR: 3, CoordsPerIter: 40,
			ItersPerEpoch: 15, Epochs: 2, Sparse: true, Seed: 31,
		})
	})
	for r := 1; r < P; r++ {
		for e := range results[r] {
			if math.Abs(results[r][e].Loss-results[0][e].Loss) > 1e-9 {
				t.Fatalf("rank %d epoch %d: loss diverged", r, e)
			}
		}
	}
}

func TestEvaluateEmptyShard(t *testing.T) {
	empty := &data.SparseDataset{Dim: 10, RowStart: []int32{0}}
	loss, acc := Evaluate(make([]float64, 10), empty, Logistic)
	if loss != 0 || acc != 0 {
		t.Fatal("empty shard must evaluate to zeros")
	}
}

func TestAsyncAggregationConvergesAndOverlaps(t *testing.T) {
	ds := testDataset()
	P := 4
	run := func(async bool) []EpochStats {
		w := comm.NewWorld(P, simnet.GigE)
		results := comm.Run(w, func(p *comm.Proc) []EpochStats {
			return TrainSGD(p, ds.Shard(p.Rank(), P), SGDConfig{
				Loss: Logistic, LR: 1.0, BatchPerNode: 100, Epochs: 6,
				Mode: CommSparse, Algorithm: core.SSARRecDouble,
				Async: async, Seed: 3,
			})
		})
		return results[0]
	}
	sync, async := run(false), run(true)
	// Staleness of one step must not prevent convergence.
	if final := async[len(async)-1]; final.Accuracy < 0.88 {
		t.Fatalf("async final accuracy %g, want ≥0.88", final.Accuracy)
	}
	// Overlap must reduce total epoch time on a slow network.
	var syncT, asyncT float64
	for i := range sync {
		syncT += sync[i].Time
		asyncT += async[i].Time
	}
	if asyncT >= syncT {
		t.Fatalf("async total time %g not faster than sync %g", asyncT, syncT)
	}
}

func TestAsyncDenseModeMatchesLossless(t *testing.T) {
	// Async with the dense algorithm must still converge (the pipeline is
	// algorithm-agnostic).
	ds := testDataset()
	P := 2
	w := comm.NewWorld(P, testNet)
	results := comm.Run(w, func(p *comm.Proc) []EpochStats {
		return TrainSGD(p, ds.Shard(p.Rank(), P), SGDConfig{
			Loss: Logistic, LR: 1.0, BatchPerNode: 100, Epochs: 6,
			Mode: CommDense, Async: true, Seed: 5,
		})
	})
	if final := results[0][len(results[0])-1]; final.Accuracy < 0.88 {
		t.Fatalf("async dense accuracy %g, want ≥0.88", final.Accuracy)
	}
}
