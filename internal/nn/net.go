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
//
// A batch a layer returns belongs to the layer: it is one of the layer's
// reused workspaces and stays valid only until that layer's next call.
// Forward keeps its input x until the matching Backward, so the caller
// leaves x unchanged until then. Every row of a batch has the same width;
// a ragged batch panics.
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

// Workspace is a reusable [batch][width] buffer: one backing array that
// grows to the largest batch it has seen. The zero value is ready.
type Workspace struct {
	buf  []float64
	rows [][]float64
}

// Rows returns n rows of the given width over the workspace's storage,
// valid until the next Rows call. Their contents are whatever the last
// caller left there.
func (w *Workspace) Rows(n, width int) [][]float64 {
	if n*width > len(w.buf) {
		w.buf = make([]float64, n*width)
	}
	if n > len(w.rows) {
		w.rows = make([][]float64, n)
	}
	rows := w.rows[:n]
	for s := range rows {
		rows[s] = w.buf[s*width : (s+1)*width : (s+1)*width]
	}
	return rows
}

// width returns the common row width of a batch (0 for an empty one) and
// panics, naming the layer, if the rows differ.
func width(layer string, x [][]float64) int {
	if len(x) == 0 {
		return 0
	}
	w := len(x[0])
	for s, xs := range x {
		if len(xs) != w {
			panic(fmt.Sprintf("nn: %s got a ragged batch: row %d has width %d, row 0 has %d", layer, s, len(xs), w))
		}
	}
	return w
}

// checkGrad panics, naming the layer, unless dOut has one row per sample of
// the forward batch x and every row has width w.
func checkGrad(layer string, dOut, x [][]float64, w int) {
	if len(dOut) != len(x) {
		panic(fmt.Sprintf("nn: %s backward got %d rows for a forward batch of %d", layer, len(dOut), len(x)))
	}
	for s, dy := range dOut {
		if len(dy) != w {
			panic(fmt.Sprintf("nn: %s backward row %d has width %d, want %d", layer, s, len(dy), w))
		}
	}
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

// Forward runs the batch through all layers and returns the logits. Under
// the Layer contract the logits stay valid until the next Forward, and x
// must stay unchanged until the matching Backward.
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
	In, Out  int
	lastX    [][]float64
	fwd, bwd Workspace
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

// Forward computes the affine map for each sample, four output rows per
// pass over the sample's input. Each row keeps its own accumulator, summed
// over i = 0…In−1 in order, so every output is bit-identical to a
// one-row-at-a-time dot product.
func (d *Dense) Forward(params []float64, x [][]float64) [][]float64 {
	d.lastX = x
	in := d.In
	w := params[:d.Out*in]
	b := params[d.Out*in:]
	out := d.fwd.Rows(len(x), d.Out)
	for s, xs := range x {
		if len(xs) != in {
			panic(fmt.Sprintf("nn: Dense expects %d inputs, got %d", in, len(xs)))
		}
		xs = xs[:in]
		ys := out[s]
		o := 0
		for ; o+4 <= d.Out; o += 4 {
			r0 := w[o*in:][:in]
			r1 := w[(o+1)*in:][:in]
			r2 := w[(o+2)*in:][:in]
			r3 := w[(o+3)*in:][:in]
			s0, s1, s2, s3 := b[o], b[o+1], b[o+2], b[o+3]
			for i, xi := range xs {
				s0 += r0[i] * xi
				s1 += r1[i] * xi
				s2 += r2[i] * xi
				s3 += r3[i] * xi
			}
			ys[o], ys[o+1], ys[o+2], ys[o+3] = s0, s1, s2, s3
		}
		for ; o < d.Out; o++ {
			row := w[o*in:][:in]
			sum := b[o]
			for i, xi := range xs {
				sum += row[i] * xi
			}
			ys[o] = sum
		}
	}
	return out
}

// Backward accumulates dW += dOutᵀ·x, db += dOut and returns dX = Wᵀ·dOut.
// Outputs are the outer loop and samples the inner one, so a weight row and
// its gradient row are loaded once per batch. Each gradient element still
// sums its samples in order and each dX element its outputs in order, so
// the result is bit-identical to the sample-major loop.
func (d *Dense) Backward(params, grads []float64, dOut [][]float64) [][]float64 {
	checkGrad("Dense", dOut, d.lastX, d.Out)
	in := d.In
	w := params[:d.Out*in]
	gw := grads[:d.Out*in]
	gb := grads[d.Out*in:]
	dX := d.bwd.Rows(len(dOut), in)
	for _, dx := range dX {
		clear(dx)
	}
	for o := 0; o < d.Out; o++ {
		row := w[o*in:][:in]
		grow := gw[o*in:][:in]
		for s, dy := range dOut {
			g := dy[o]
			if g == 0 {
				continue
			}
			xs := d.lastX[s][:in]
			dx := dX[s][:in]
			for i, xi := range xs {
				grow[i] += g * xi
				dx[i] += g * row[i]
			}
			gb[o] += g
		}
	}
	return dX
}

// FlopsPerSample counts ~2 multiply-adds per weight forward and 4 backward.
func (d *Dense) FlopsPerSample() float64 { return 6 * float64(d.Out*d.In) }

// ReLU is the rectifier activation.
type ReLU struct {
	lastX    [][]float64
	fwd, bwd Workspace
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
	out := r.fwd.Rows(len(x), width("ReLU", x))
	for s, xs := range x {
		ys := out[s][:len(xs)]
		for i, v := range xs {
			if v > 0 {
				ys[i] = v
			} else {
				ys[i] = 0
			}
		}
	}
	return out
}

// Backward masks the incoming gradient by the activation pattern.
func (r *ReLU) Backward(_, _ []float64, dOut [][]float64) [][]float64 {
	w := width("ReLU", r.lastX)
	checkGrad("ReLU", dOut, r.lastX, w)
	dX := r.bwd.Rows(len(dOut), w)
	for s, dy := range dOut {
		xs := r.lastX[s][:len(dy)]
		dx := dX[s][:len(dy)]
		for i, g := range dy {
			if xs[i] > 0 {
				dx[i] = g
			} else {
				dx[i] = 0
			}
		}
	}
	return dX
}

// FlopsPerSample is negligible; counted as 0.
func (r *ReLU) FlopsPerSample() float64 { return 0 }

// Residual wraps an inner stack with an identity skip connection
// y = x + f(x), the defining structure of ResNets. Inner input and output
// dimensions must match.
type Residual struct {
	inner    []Layer
	offs     []int
	total    int
	fwd, bwd Workspace
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
	w := width("Residual", x)
	y := x
	for i, l := range r.inner {
		y = l.Forward(params[r.offs[i]:r.offs[i]+l.NumParams()], y)
	}
	out := r.fwd.Rows(len(x), w)
	for s, xs := range x {
		if len(y[s]) != w {
			panic("nn: residual inner output dimension mismatch")
		}
		ys := y[s][:len(xs)]
		zs := out[s][:len(xs)]
		for i, v := range xs {
			zs[i] = v + ys[i]
		}
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
	dX := r.bwd.Rows(len(dOut), width("Residual", dOut))
	for s, dy := range dOut {
		di := dInner[s][:len(dy)]
		dx := dX[s][:len(dy)]
		for i, g := range dy {
			dx[i] = g + di[i]
		}
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
