package nn

import "math"

// SoftmaxCE computes the mean softmax cross-entropy loss of a batch of
// logits against integer labels, the gradient dL/dLogits (already averaged
// over the batch), and the top-1 correct count.
func SoftmaxCE(logits [][]float64, labels []int) (loss float64, dLogits [][]float64, correct int) {
	return SoftmaxCEInto(new(Workspace), logits, labels)
}

// SoftmaxCEInto is SoftmaxCE with dL/dLogits written to rows of ws, which
// stay valid until ws is next used.
func SoftmaxCEInto(ws *Workspace, logits [][]float64, labels []int) (loss float64, dLogits [][]float64, correct int) {
	if len(logits) != len(labels) {
		panic("nn: batch size mismatch")
	}
	dLogits = ws.Rows(len(logits), width("SoftmaxCE", logits))
	batch := float64(len(logits))
	for s, z := range logits {
		y := labels[s]
		if y < 0 || y >= len(z) {
			panic("nn: label out of range")
		}
		// Stable log-sum-exp.
		maxZ := math.Inf(-1)
		argmax := 0
		for i, v := range z {
			if v > maxZ {
				maxZ, argmax = v, i
			}
		}
		sum := 0.0
		for _, v := range z {
			sum += math.Exp(v - maxZ)
		}
		logSum := maxZ + math.Log(sum)
		loss += (logSum - z[y]) / batch
		if argmax == y {
			correct++
		}
		d := dLogits[s]
		for i, v := range z {
			d[i] = math.Exp(v-logSum) / batch
		}
		d[y] -= 1 / batch
	}
	return loss, dLogits, correct
}

// TopKCorrect counts samples whose label is among the k largest logits —
// the top-5 metric of the ImageNet experiments (Figure 5). A label ranks
// behind every larger logit and every equal one of a lower class, the order
// a stable sort by decreasing logit gives, so counting them ranks it
// without sorting or allocating.
func TopKCorrect(logits [][]float64, labels []int, k int) int {
	correct := 0
	for s, z := range logits {
		l := labels[s]
		ahead := 0
		for i, x := range z {
			if x > z[l] || x == z[l] && i < l {
				ahead++
			}
		}
		if ahead < k {
			correct++
		}
	}
	return correct
}

// SGDMomentum is the classic heavy-ball optimizer used by the paper's
// baselines: v ← μ·v − lr·g; w ← w + v.
type SGDMomentum struct {
	// LR is the learning rate.
	LR float64
	// Momentum is the heavy-ball coefficient μ (0 disables).
	Momentum float64
	velocity []float64
}

// Step applies one update to params given grads.
func (o *SGDMomentum) Step(params, grads []float64) {
	if o.velocity == nil {
		o.velocity = make([]float64, len(params))
	}
	for i := range params {
		o.velocity[i] = o.Momentum*o.velocity[i] - o.LR*grads[i]
		params[i] += o.velocity[i]
	}
}
