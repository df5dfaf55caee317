package train

import (
	"repro/internal/data"
	"repro/internal/nn"
)

// MLPTask adapts a residual MLP over a dense dataset shard to the Task
// interface (the CIFAR-10 and ImageNet-shaped experiments). Step and Eval
// reuse the task's batch rows, labels and dL/dLogits, so once they have
// seen the largest batch a training step allocates nothing.
type MLPTask struct {
	Net   *nn.Net
	Shard *data.DenseDataset

	x       [][]float64
	y       []int
	dLogits nn.Workspace
}

// NumSamples returns the shard size.
func (t *MLPTask) NumSamples() int { return t.Shard.Rows() }

// Params returns the model's flat parameter buffer.
func (t *MLPTask) Params() []float64 { return t.Net.Params() }

// Grads returns the model's flat gradient buffer.
func (t *MLPTask) Grads() []float64 { return t.Net.Grads() }

// ZeroGrads clears the gradient buffer.
func (t *MLPTask) ZeroGrads() { t.Net.ZeroGrads() }

// batch points the task's reused rows and labels at the given shard rows.
func (t *MLPTask) batch(idx []int) ([][]float64, []int) {
	if cap(t.x) < len(idx) {
		t.x = make([][]float64, len(idx))
		t.y = make([]int, len(idx))
	}
	x, y := t.x[:len(idx)], t.y[:len(idx)]
	for i, s := range idx {
		x[i] = t.Shard.X[s]
		y[i] = t.Shard.Y[s]
	}
	return x, y
}

// Step runs one forward+backward pass over the given shard rows.
func (t *MLPTask) Step(idx []int) (float64, int) {
	x, y := t.batch(idx)
	loss, dLogits, correct := nn.SoftmaxCEInto(&t.dLogits, t.Net.Forward(x), y)
	t.Net.Backward(dLogits)
	return loss, correct
}

// Eval runs forward only, returning summed loss and top-1/top-5 counts.
func (t *MLPTask) Eval(idx []int) (float64, int, int) {
	x, y := t.batch(idx)
	logits := t.Net.Forward(x)
	loss, _, top1 := nn.SoftmaxCEInto(&t.dLogits, logits, y)
	top5 := nn.TopKCorrect(logits, y, 5)
	return loss * float64(len(idx)), top1, top5
}

// FlopsPerSample delegates to the network.
func (t *MLPTask) FlopsPerSample() float64 { return t.Net.FlopsPerSample() }

// LayerSpans exposes the network's per-layer parameter ranges for
// layer-wise and bucketed exchange (Config.BucketCoords).
func (t *MLPTask) LayerSpans() [][2]int { return t.Net.LayerSpans() }

// LSTMTask adapts an LSTM classifier over a sequence dataset shard to the
// Task interface (the ATIS and ASR-shaped experiments).
type LSTMTask struct {
	Model *nn.LSTMClassifier
	Shard *data.SequenceDataset
	// MeanLen is used for FLOP modeling; computed lazily.
	meanLen float64
}

// NumSamples returns the shard size.
func (t *LSTMTask) NumSamples() int { return t.Shard.Rows() }

// Params returns the model's flat parameter buffer.
func (t *LSTMTask) Params() []float64 { return t.Model.Params() }

// Grads returns the model's flat gradient buffer.
func (t *LSTMTask) Grads() []float64 { return t.Model.Grads() }

// ZeroGrads clears the gradient buffer.
func (t *LSTMTask) ZeroGrads() { t.Model.ZeroGrads() }

// Step runs one forward+backward pass over the given shard sequences.
func (t *LSTMTask) Step(idx []int) (float64, int) {
	seqs := make([][]int, len(idx))
	y := make([]int, len(idx))
	for i, s := range idx {
		seqs[i] = t.Shard.Seqs[s]
		y[i] = t.Shard.Y[s]
	}
	return t.Model.Step(seqs, y)
}

// Eval runs forward only, returning summed loss and top-1/top-5 counts.
func (t *LSTMTask) Eval(idx []int) (float64, int, int) {
	seqs := make([][]int, len(idx))
	y := make([]int, len(idx))
	for i, s := range idx {
		seqs[i] = t.Shard.Seqs[s]
		y[i] = t.Shard.Y[s]
	}
	loss, top1 := t.Model.Eval(seqs, y)
	// Top-5 is not meaningful for the small intent spaces; reuse top-1.
	return loss * float64(len(idx)), top1, top1
}

// FlopsPerSample models compute as flops-per-token times the mean length.
func (t *LSTMTask) FlopsPerSample() float64 {
	if t.meanLen == 0 {
		total := 0
		for _, s := range t.Shard.Seqs {
			total += len(s)
		}
		if t.Shard.Rows() > 0 {
			t.meanLen = float64(total) / float64(t.Shard.Rows())
		} else {
			t.meanLen = 1
		}
	}
	return t.Model.FlopsPerToken() * t.meanLen
}
