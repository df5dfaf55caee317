package train

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
)

// TestMLPTaskStepAllocatesNothing: a warm MLPTask.Step allocates nothing,
// and neither does an Eval over the same rows, top-5 count included.
func TestMLPTaskStepAllocatesNothing(t *testing.T) {
	task := denseBlobTask(0, 1)
	idx := []int{3, 1}
	task.Step(idx)
	allocs := testing.AllocsPerRun(20, func() {
		task.ZeroGrads()
		task.Step(idx)
	})
	if allocs != 0 {
		t.Fatalf("a warm MLPTask.Step allocates %.1f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { task.Eval(idx) }); allocs != 0 {
		t.Fatalf("a warm MLPTask.Eval allocates %.1f times, want 0", allocs)
	}
}

func TestEvalBetweenStepsLeavesGradientsUnchanged(t *testing.T) {
	// Eval at batch 8 grows every workspace past the training batch of 2;
	// the steps after it must not see the larger batch.
	evaluated, plain := denseBlobTask(0, 1), denseBlobTask(0, 1)
	for i, idx := range [][]int{{5, 9}, {11, 2}, {7, 7}} {
		if i == 1 {
			evaluated.Eval([]int{0, 1, 2, 3, 4, 5, 6, 7})
		}
		lossE, correctE := evaluated.Step(idx)
		lossP, correctP := plain.Step(idx)
		if math.Float64bits(lossE) != math.Float64bits(lossP) || correctE != correctP {
			t.Fatalf("step %d: loss %v/%d after Eval, %v/%d without", i, lossE, correctE, lossP, correctP)
		}
	}
	for i, g := range plain.Grads() {
		if math.Float64bits(evaluated.Grads()[i]) != math.Float64bits(g) {
			t.Fatalf("grad %d = %v after Eval, %v without", i, evaluated.Grads()[i], g)
		}
	}
}

func TestEmptyShardRankTrains(t *testing.T) {
	// Three rows over four ranks: rank 0's shard is empty, so every step and
	// every evaluation it runs is a zero-sample batch.
	P := 4
	ds := data.SyntheticDense(data.DenseConfig{Rows: 3, Dim: 6, Classes: 3, Sep: 3, Seed: 8})
	tasks := make([]*MLPTask, P)
	for r := range tasks {
		tasks[r] = &MLPTask{Net: nn.ResidualMLP(4, 6, 8, 1, 3, 1), Shard: ds.Shard(r, P)}
	}
	if tasks[0].NumSamples() != 0 {
		t.Fatalf("rank 0 holds %d rows, want an empty shard", tasks[0].NumSamples())
	}
	hist := runTraining(t, P, Config{
		Method: MethodTopK, LR: 0.01, BatchPerNode: 2, Epochs: 2, StepsPerEpoch: 3,
		Bucket: 16, K: 4, Algorithm: core.Auto, BucketCoords: 64, Seed: 9,
	}, func(rank int) Task { return tasks[rank] })
	for r := range hist {
		for e, pt := range hist[r] {
			if math.IsNaN(pt.Loss) || pt.Loss <= 0 || pt.Loss != hist[0][e].Loss {
				t.Fatalf("rank %d epoch %d: loss %v, rank 0 has %v", r, e, pt.Loss, hist[0][e].Loss)
			}
		}
		for i, v := range tasks[r].Params() {
			if v != tasks[0].Params()[i] {
				t.Fatalf("rank %d: parameter %d diverged from rank 0", r, i)
			}
		}
	}
}
