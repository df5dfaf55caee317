// Package nn is a small from-scratch neural-network stack standing in for
// CNTK (paper §7): dense layers, ReLU, residual blocks (the structural
// idea of ResNets, at MLP scale), an LSTM sequence classifier, softmax
// cross-entropy, and SGD with momentum. All parameters and gradients of a
// model live in single flat buffers so distributed training can hand the
// whole gradient to a collective in one call — the same "tensor fusion"
// SparCML performs (§9).
//
// The paper's networks (ResNet-110, wide ResNets, attention LSTMs) are
// replaced by width- and depth-scaled residual MLPs and LSTMs: the
// phenomena reproduced — TopK error-feedback convergence, gradient
// fill-in, compute/communication ratios — depend on parameter count,
// gradient sparsity and the optimizer, which these models parameterize
// directly.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Layer is one differentiable stage of a feedforward Net. Layers are
// stateful across Forward/Backward (they cache activations) and are owned
// by exactly one Net on one rank.
type Layer interface {
	// NumParams returns the layer's parameter count.
	NumParams() int
	// Init writes initial parameter values into its slice of the flat
	// buffer.
	Init(params []float64, rng *rand.Rand)
	// Forward consumes a batch of activations and returns the outputs,
	// caching whatever Backward needs.
	Forward(params []float64, x [][]float64) [][]float64
	// Backward consumes dL/dOut, accumulates parameter gradients into its
	// slice of the flat gradient buffer, and returns dL/dIn.
	Backward(params, grads []float64, dOut [][]float64) [][]float64
	// FlopsPerSample estimates multiply-add work per sample for one
	// forward+backward pass (compute-time modeling).
	FlopsPerSample() float64
}

// Net is a feedforward network over flat parameter and gradient buffers.
type Net struct {
	layers []Layer
	offs   []int
	params []float64
	grads  []float64
	flops  float64
}

// NewNet assembles the layers and initializes parameters deterministically
// from the seed (all data-parallel replicas use the same seed, so models
// start identical without a broadcast).
func NewNet(seed int64, layers ...Layer) *Net {
	n := &Net{layers: layers}
	total := 0
	for _, l := range layers {
		n.offs = append(n.offs, total)
		total += l.NumParams()
		n.flops += l.FlopsPerSample()
	}
	n.params = make([]float64, total)
	n.grads = make([]float64, total)
	rng := rand.New(rand.NewSource(seed))
	for i, l := range layers {
		l.Init(n.params[n.offs[i]:n.offs[i]+l.NumParams()], rng)
	}
	return n
}

// Params returns the flat parameter buffer (live; optimizers mutate it).
func (n *Net) Params() []float64 { return n.params }

// Grads returns the flat gradient buffer (live).
func (n *Net) Grads() []float64 { return n.grads }

// ZeroGrads clears the gradient buffer.
func (n *Net) ZeroGrads() {
	for i := range n.grads {
		n.grads[i] = 0
	}
}

// NumParams returns the total parameter count.
func (n *Net) NumParams() int { return len(n.params) }

// LayerSpans returns the [offset, offset+len) range of each parameterized
// layer within the flat buffers, in network order. Used for layer-wise
// gradient exchange ("communication is done layer-wise using non-blocking
// calls", paper §8.3) and tensor-fusion decisions.
func (n *Net) LayerSpans() [][2]int {
	var spans [][2]int
	for i, l := range n.layers {
		if np := l.NumParams(); np > 0 {
			spans = append(spans, [2]int{n.offs[i], n.offs[i] + np})
		}
	}
	return spans
}

// FlopsPerSample estimates forward+backward work per sample.
func (n *Net) FlopsPerSample() float64 { return n.flops }

// Forward runs the batch through all layers and returns the logits.
func (n *Net) Forward(x [][]float64) [][]float64 {
	for i, l := range n.layers {
		x = l.Forward(n.params[n.offs[i]:n.offs[i]+l.NumParams()], x)
	}
	return x
}

// Backward propagates dL/dLogits back through all layers, accumulating
// parameter gradients.
func (n *Net) Backward(dOut [][]float64) {
	for i := len(n.layers) - 1; i >= 0; i-- {
		l := n.layers[i]
		dOut = l.Backward(n.params[n.offs[i]:n.offs[i]+l.NumParams()], n.grads[n.offs[i]:n.offs[i]+l.NumParams()], dOut)
	}
}

// Dense is a fully connected layer y = W·x + b with W ∈ R^{out×in}.
type Dense struct {
	In, Out int
	lastX   [][]float64
}

// NewDense constructs a Dense layer.
func NewDense(in, out int) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: invalid Dense %dx%d", in, out))
	}
	return &Dense{In: in, Out: out}
}

// NumParams returns out·in weights plus out biases.
func (d *Dense) NumParams() int { return d.Out*d.In + d.Out }

// Init applies He initialization (appropriate for ReLU networks).
func (d *Dense) Init(params []float64, rng *rand.Rand) {
	std := math.Sqrt(2 / float64(d.In))
	for i := 0; i < d.Out*d.In; i++ {
		params[i] = rng.NormFloat64() * std
	}
	// Biases start at zero (already zeroed).
}

// Forward computes the affine map for each sample.
func (d *Dense) Forward(params []float64, x [][]float64) [][]float64 {
	d.lastX = x
	w := params[:d.Out*d.In]
	b := params[d.Out*d.In:]
	out := make([][]float64, len(x))
	for s, xs := range x {
		if len(xs) != d.In {
			panic(fmt.Sprintf("nn: Dense expects %d inputs, got %d", d.In, len(xs)))
		}
		ys := make([]float64, d.Out)
		for o := 0; o < d.Out; o++ {
			row := w[o*d.In : (o+1)*d.In]
			sum := b[o]
			for i, xi := range xs {
				sum += row[i] * xi
			}
			ys[o] = sum
		}
		out[s] = ys
	}
	return out
}

// Backward accumulates dW += dOutᵀ·x, db += dOut and returns dX = Wᵀ·dOut.
func (d *Dense) Backward(params, grads []float64, dOut [][]float64) [][]float64 {
	w := params[:d.Out*d.In]
	gw := grads[:d.Out*d.In]
	gb := grads[d.Out*d.In:]
	dX := make([][]float64, len(dOut))
	for s, dy := range dOut {
		xs := d.lastX[s]
		dx := make([]float64, d.In)
		for o := 0; o < d.Out; o++ {
			g := dy[o]
			if g == 0 {
				continue
			}
			row := w[o*d.In : (o+1)*d.In]
			grow := gw[o*d.In : (o+1)*d.In]
			for i := range xs {
				grow[i] += g * xs[i]
				dx[i] += g * row[i]
			}
			gb[o] += g
		}
		dX[s] = dx
	}
	return dX
}

// FlopsPerSample counts ~2 multiply-adds per weight forward and 4 backward.
func (d *Dense) FlopsPerSample() float64 { return 6 * float64(d.Out*d.In) }

// ReLU is the rectifier activation.
type ReLU struct {
	lastX [][]float64
}

// NewReLU constructs a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// NumParams returns 0.
func (r *ReLU) NumParams() int { return 0 }

// Init is a no-op.
func (r *ReLU) Init([]float64, *rand.Rand) {}

// Forward applies max(0, x).
func (r *ReLU) Forward(_ []float64, x [][]float64) [][]float64 {
	r.lastX = x
	out := make([][]float64, len(x))
	for s, xs := range x {
		ys := make([]float64, len(xs))
		for i, v := range xs {
			if v > 0 {
				ys[i] = v
			}
		}
		out[s] = ys
	}
	return out
}

// Backward masks the incoming gradient by the activation pattern.
func (r *ReLU) Backward(_, _ []float64, dOut [][]float64) [][]float64 {
	dX := make([][]float64, len(dOut))
	for s, dy := range dOut {
		xs := r.lastX[s]
		dx := make([]float64, len(dy))
		for i := range dy {
			if xs[i] > 0 {
				dx[i] = dy[i]
			}
		}
		dX[s] = dx
	}
	return dX
}

// FlopsPerSample is negligible; counted as 0.
func (r *ReLU) FlopsPerSample() float64 { return 0 }

// Residual wraps an inner stack with an identity skip connection
// y = x + f(x), the defining structure of ResNets. Inner input and output
// dimensions must match.
type Residual struct {
	inner []Layer
	offs  []int
	total int
}

// NewResidual constructs a residual block over the inner layers.
func NewResidual(inner ...Layer) *Residual {
	r := &Residual{inner: inner}
	for _, l := range inner {
		r.offs = append(r.offs, r.total)
		r.total += l.NumParams()
	}
	return r
}

// NumParams returns the inner layers' total parameter count.
func (r *Residual) NumParams() int { return r.total }

// Init initializes the inner layers.
func (r *Residual) Init(params []float64, rng *rand.Rand) {
	for i, l := range r.inner {
		l.Init(params[r.offs[i]:r.offs[i]+l.NumParams()], rng)
	}
}

// Forward computes x + f(x).
func (r *Residual) Forward(params []float64, x [][]float64) [][]float64 {
	y := x
	for i, l := range r.inner {
		y = l.Forward(params[r.offs[i]:r.offs[i]+l.NumParams()], y)
	}
	out := make([][]float64, len(x))
	for s := range x {
		if len(y[s]) != len(x[s]) {
			panic("nn: residual inner output dimension mismatch")
		}
		ys := make([]float64, len(x[s]))
		for i := range ys {
			ys[i] = x[s][i] + y[s][i]
		}
		out[s] = ys
	}
	return out
}

// Backward propagates through the inner stack and adds the skip gradient.
func (r *Residual) Backward(params, grads []float64, dOut [][]float64) [][]float64 {
	dInner := dOut
	for i := len(r.inner) - 1; i >= 0; i-- {
		l := r.inner[i]
		dInner = l.Backward(params[r.offs[i]:r.offs[i]+l.NumParams()], grads[r.offs[i]:r.offs[i]+l.NumParams()], dInner)
	}
	dX := make([][]float64, len(dOut))
	for s := range dOut {
		dx := make([]float64, len(dOut[s]))
		for i := range dx {
			dx[i] = dOut[s][i] + dInner[s][i]
		}
		dX[s] = dx
	}
	return dX
}

// FlopsPerSample sums the inner layers.
func (r *Residual) FlopsPerSample() float64 {
	f := 0.0
	for _, l := range r.inner {
		f += l.FlopsPerSample()
	}
	return f
}

// ResidualMLP builds a ResNet-style classifier: an input projection to
// `width`, `blocks` residual blocks of two width×width dense layers with
// ReLU, and a classifier head. widthFactor scales the trunk width, the
// knob the wide-ResNet experiments turn (§8.4: "the number of channels in
// each block is multiplied by a constant factor").
func ResidualMLP(seed int64, inputDim, width, blocks, classes int, widthFactor int) *Net {
	if widthFactor < 1 {
		widthFactor = 1
	}
	w := width * widthFactor
	layers := []Layer{NewDense(inputDim, w), NewReLU()}
	for b := 0; b < blocks; b++ {
		layers = append(layers, NewResidual(
			NewDense(w, w), NewReLU(), NewDense(w, w),
		), NewReLU())
	}
	layers = append(layers, NewDense(w, classes))
	return NewNet(seed, layers...)
}
