package experiments

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/simnet"
	"repro/internal/train"
)

// DNNRow is one epoch of one training curve of Figures 4–6: loss and
// accuracy versus simulated time. The DNN sweeps shrink the paper's
// experiments to CPU sizes (-rows, -epochs, and -p ranks standing in for
// its GPU counts) while keeping the model family, the sparsity fractions
// and the node-count ratios.
type DNNRow struct {
	Series string `json:"series"`
	P      int    `json:"p"`
	Params int    `json:"params"`
	Epoch  int    `json:"epoch"`
	// SimSeconds and CommSeconds are cumulative simulated time, in total
	// and in collectives.
	SimSeconds  float64 `json:"sim_seconds"`
	CommSeconds float64 `json:"comm_seconds"`
	Loss        float64 `json:"loss"`
	Top1        float64 `json:"top1"`
	Top5        float64 `json:"top5"`
	// BytesSent is rank 0's cumulative modeled gradient payload.
	BytesSent int64 `json:"bytes_sent"`
}

// Fig4aCIFAR reproduces Figure 4a: training accuracy of TopK (k/512 with
// 4-bit QSGD) versus full dense SGD on the CIFAR-shaped task, using a
// residual MLP in place of ResNet-110. Returns dense, k=8/512 and k=16/512
// curves.
func Fig4aCIFAR(sc Params, seed int64) []DNNRow {
	ds := data.SyntheticDense(data.DenseConfig{Rows: sc.Rows, Dim: 64, Classes: 10, Sep: 2.2, Seed: seed})
	mkTask := func(rank int) train.Task {
		return &train.MLPTask{
			Net:   nn.ResidualMLP(seed+77, 64, 96, 3, 10, 1),
			Shard: ds.Shard(rank, sc.P),
		}
	}
	base := train.Config{
		LR: 0.05, BatchPerNode: 32, Epochs: sc.Epochs,
		Device: simnet.GPUP100, EvalSamples: 256, Seed: seed,
	}
	// Momentum 0.9 multiplies the dense arm's step on the mean gradient by
	// 10, so LR/10 takes the TopK arms' effective step (LR/P on the sum);
	// at LR itself the dense loss diverges to NaN within eight epochs.
	dense := base
	dense.Method = train.MethodDense
	dense.LR = base.LR / 10
	dense.Momentum = 0.9
	rows := runDNN("dense 32-bit", sc.P, simnet.Aries, dense, mkTask)

	for _, k := range []int{8, 16} {
		topk := base
		topk.Method = train.MethodTopK
		topk.LR = base.LR / float64(sc.P)
		topk.Bucket, topk.K = 512, k
		topk.QuantBits = 4
		topk.Algorithm = core.Auto
		rows = append(rows, runDNN(fmt.Sprintf("topk %d/512 + 4-bit", k), sc.P, simnet.Aries, topk, mkTask)...)
	}
	return rows
}

// Fig4bATIS reproduces Figure 4b: LSTM training accuracy on the
// ATIS-shaped intent task, dense versus TopK k=2/512 (no quantization).
func Fig4bATIS(sc Params, seed int64) []DNNRow {
	cfg := data.ATISShape(1)
	cfg.Rows = sc.Rows
	ds := data.SyntheticSequences(cfg)
	mkTask := func(rank int) train.Task {
		return &train.LSTMTask{
			Model: nn.NewLSTMClassifier(seed+5, cfg.Vocab, 24, 48, cfg.Classes),
			Shard: ds.Shard(rank, sc.P),
		}
	}
	base := train.Config{
		LR: 0.5, BatchPerNode: 16, Epochs: sc.Epochs,
		Device: simnet.GPUP100, EvalSamples: 200, Seed: seed,
	}
	dense := base
	dense.Method = train.MethodDense
	rows := runDNN("dense 32-bit", sc.P, simnet.Aries, dense, mkTask)

	topk := base
	topk.Method = train.MethodTopK
	topk.LR = base.LR / float64(sc.P)
	topk.Bucket, topk.K = 512, 2
	topk.Algorithm = core.Auto
	return append(rows, runDNN("topk 2/512", sc.P, simnet.Aries, topk, mkTask)...)
}

// Fig5Wide reproduces Figure 5: top-1/top-5 train error of a 4×-wide
// residual network under TopK k=1/512 versus the dense baseline on the
// ImageNet-shaped task (1000 classes).
func Fig5Wide(sc Params, seed int64) []DNNRow {
	ds := data.SyntheticDense(data.ImageNetShape(sc.Rows))
	widthFactor := 4
	mkTask := func(rank int) train.Task {
		return &train.MLPTask{
			// 4× width multiplies trunk parameters ~16×; the huge classifier
			// head (width×1000) dominates, as the paper observes for wide
			// ResNets ("this speedup is due almost entirely to ... the last
			// fully-connected layer").
			Net:   nn.ResidualMLP(seed+11, ds.Dim(), 32, 2, 1000, widthFactor),
			Shard: ds.Shard(rank, sc.P),
		}
	}
	base := train.Config{
		LR: 0.02, BatchPerNode: 8, Epochs: sc.Epochs,
		Device: simnet.GPUP100, EvalSamples: 256, Seed: seed,
	}
	dense := base
	dense.Method = train.MethodDense
	dense.Momentum = 0.9
	rows := runDNN("dense 32-bit", sc.P, simnet.Aries, dense, mkTask)

	topk := base
	topk.Method = train.MethodTopK
	topk.LR = 2 * base.LR / float64(sc.P)
	topk.Bucket, topk.K = 512, 1
	topk.Algorithm = core.Auto
	return append(rows, runDNN("topk 1/512", sc.P, simnet.Aries, topk, mkTask)...)
}

// ScalabilityPoint is one point of Figure 6b: the simulated time a TopK
// configuration of Fig6ASR takes to complete the run, and its speedup over
// the smallest one.
type ScalabilityPoint struct {
	Label      string  `json:"configuration"`
	P          int     `json:"p"`
	SimSeconds float64 `json:"sim_seconds"`
	Speedup    float64 `json:"speedup"`
}

// Fig6ASR reproduces Figure 6: the ASR production workload. The baseline
// is BMUF at the smallest node count; TopK k=4/512 runs at 2×, 4×, and 8×
// that scale (standing in for the paper's 32/64/128 GPUs vs the 16-GPU
// baseline), on an InfiniBand cluster of V100-rate devices. It returns the
// training curves (6a) and the TopK runs' scalability (6b).
func Fig6ASR(sc Params, seed int64) ([]DNNRow, []ScalabilityPoint) {
	cfg := data.ASRShape(sc.Rows)
	ds := data.SyntheticSequences(cfg)
	mk := func(P int) func(rank int) train.Task {
		return func(rank int) train.Task {
			return &train.LSTMTask{
				Model: nn.NewLSTMClassifier(seed+23, cfg.Vocab, 24, 48, cfg.Classes),
				Shard: ds.Shard(rank, P),
			}
		}
	}

	// Effective (not peak) V100 throughput for small-batch LSTM training:
	// recurrent steps serialize, so utilization is a few percent of peak.
	// Using the effective rate keeps the modeled compute/communication
	// ratio realistic for this workload.
	lstmDevice := simnet.Device{Name: "V100-lstm-eff", FlopsPerSec: 6e11}

	// Strong scaling, as in the paper: "we keep a fixed global batch size
	// of 512 samples, which is the same as for sequential training". At
	// our reduced dataset scale the global batch is 256.
	const globalBatch = 256

	// BMUF baseline at the smallest scale (the paper: "training on 4
	// nodes, 16 GPUs in total ... employing a carefully-tuned instance of
	// block-momentum SGD"; higher node counts diverged for it).
	bmuf := train.Config{
		Method: train.MethodBMUF, LR: 0.5, Momentum: 0.9,
		BatchPerNode: globalBatch / sc.P, Epochs: sc.Epochs,
		BMUFBlockSteps: 8, BMUFMomentum: 0.5,
		Device: lstmDevice, EvalSamples: 200, Seed: seed,
	}
	rows := runDNN("BMUF baseline", sc.P, simnet.InfiniBandFDR, bmuf, mk(sc.P))

	var scaling []ScalabilityPoint
	for _, mult := range []int{2, 4, 8} {
		P := sc.P * mult
		// The paper transmits k=4/512; at our reduced parameter count that
		// leaves too few coordinates per step, so we keep the same *selected
		// fraction of the update mass* with k=8/512 and a sum-scaled LR.
		topk := train.Config{
			Method: train.MethodTopK, LR: 2.0 / float64(P),
			BatchPerNode: max(1, globalBatch/P), Epochs: sc.Epochs,
			Bucket: 512, K: 8, Algorithm: core.Auto,
			Device: lstmDevice, EvalSamples: 200, Seed: seed,
		}
		curve := runDNN(fmt.Sprintf("SparCML topk 4/512, %dx GPUs", mult*2), P, simnet.InfiniBandFDR, topk, mk(P))
		rows = append(rows, curve...)
		end := curve[len(curve)-1]
		scaling = append(scaling, ScalabilityPoint{Label: end.Series, P: P, SimSeconds: end.SimSeconds})
	}
	for i := range scaling {
		scaling[i].Speedup = scaling[0].SimSeconds / scaling[i].SimSeconds
	}
	return rows, scaling
}

// runDNN trains on a P-rank world and returns rank 0's curve.
func runDNN(name string, P int, profile simnet.Profile, cfg train.Config, mk func(rank int) train.Task) []DNNRow {
	w := comm.NewWorld(P, profile)
	results := comm.Run(w, func(p *comm.Proc) []train.Point {
		return train.Run(p, mk(p.Rank()), cfg)
	})
	params := len(mk(0).Params())
	rows := make([]DNNRow, len(results[0]))
	for i, pt := range results[0] {
		rows[i] = DNNRow{Series: name, P: P, Params: params, Epoch: pt.Epoch,
			SimSeconds: pt.Time, CommSeconds: pt.CommTime, Loss: pt.Loss,
			Top1: pt.Top1, Top5: pt.Top5, BytesSent: pt.BytesSent}
	}
	return rows
}
