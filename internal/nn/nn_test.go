package nn

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestSoftmaxCEProperties(t *testing.T) {
	logits := [][]float64{{2, 1, 0.5}, {-1, 3, 0}}
	labels := []int{0, 1}
	loss, dLogits, correct := SoftmaxCE(logits, labels)
	if loss <= 0 {
		t.Fatalf("loss = %g, want positive", loss)
	}
	if correct != 2 {
		t.Fatalf("correct = %d, want 2", correct)
	}
	// Gradient rows must sum to zero (softmax minus one-hot).
	for s, d := range dLogits {
		sum := 0.0
		for _, v := range d {
			sum += v
		}
		if math.Abs(sum) > 1e-12 {
			t.Fatalf("sample %d: gradient sums to %g", s, sum)
		}
	}
	// The label coordinate must have negative gradient.
	if dLogits[0][0] >= 0 || dLogits[1][1] >= 0 {
		t.Fatal("label coordinates must have negative gradient")
	}
}

func TestSoftmaxCEStableAtExtremeLogits(t *testing.T) {
	loss, d, _ := SoftmaxCE([][]float64{{1000, -1000, 0}}, []int{0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss = %g", loss)
	}
	for _, v := range d[0] {
		if math.IsNaN(v) {
			t.Fatal("NaN gradient at extreme logits")
		}
	}
}

func TestTopKCorrect(t *testing.T) {
	logits := [][]float64{{5, 4, 3, 2, 1}, {1, 2, 3, 4, 5}}
	labels := []int{2, 0}
	if got := TopKCorrect(logits, labels, 1); got != 0 {
		t.Fatalf("top1 = %d, want 0", got)
	}
	if got := TopKCorrect(logits, labels, 3); got != 1 {
		t.Fatalf("top3 = %d, want 1 (sample 0's label ranks 3rd)", got)
	}
	if got := TopKCorrect(logits, labels, 5); got != 2 {
		t.Fatalf("top5 = %d, want 2", got)
	}
}

// mlpLoss computes the scalar loss of a net on a fixed batch, for finite
// differences.
func mlpLoss(n *Net, x [][]float64, y []int) float64 {
	loss, _, _ := SoftmaxCE(n.Forward(x), y)
	return loss
}

func TestMLPGradientMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := NewNet(7,
		NewDense(5, 8), NewReLU(),
		NewResidual(NewDense(8, 8), NewReLU(), NewDense(8, 8)), NewReLU(),
		NewDense(8, 3),
	)
	batch := 4
	x := make([][]float64, batch)
	y := make([]int, batch)
	for s := range x {
		x[s] = make([]float64, 5)
		for i := range x[s] {
			x[s][i] = rng.NormFloat64()
		}
		y[s] = rng.Intn(3)
	}
	n.ZeroGrads()
	loss, dLogits, _ := SoftmaxCE(n.Forward(x), y)
	if loss <= 0 {
		t.Fatal("degenerate loss")
	}
	n.Backward(dLogits)
	analytic := append([]float64(nil), n.Grads()...)

	params := n.Params()
	h := 1e-6
	// Spot-check a spread of parameters across all layers.
	for trial := 0; trial < 60; trial++ {
		i := rng.Intn(len(params))
		orig := params[i]
		params[i] = orig + h
		up := mlpLoss(n, x, y)
		params[i] = orig - h
		down := mlpLoss(n, x, y)
		params[i] = orig
		fd := (up - down) / (2 * h)
		if math.Abs(fd-analytic[i]) > 1e-4*(1+math.Abs(fd)) {
			t.Fatalf("param %d: analytic %g vs finite-diff %g", i, analytic[i], fd)
		}
	}
}

func TestLSTMGradientMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewLSTMClassifier(11, 12, 4, 5, 3)
	seqs := [][]int{{1, 5, 3, 7}, {2, 0, 11}}
	labels := []int{0, 2}

	m.ZeroGrads()
	m.Step(seqs, labels)
	analytic := append([]float64(nil), m.Grads()...)

	evalLoss := func() float64 {
		loss, _ := m.Eval(seqs, labels)
		return loss
	}
	params := m.Params()
	h := 1e-6
	for trial := 0; trial < 80; trial++ {
		i := rng.Intn(len(params))
		orig := params[i]
		params[i] = orig + h
		up := evalLoss()
		params[i] = orig - h
		down := evalLoss()
		params[i] = orig
		fd := (up - down) / (2 * h)
		if math.Abs(fd-analytic[i]) > 1e-4*(1+math.Abs(fd)) {
			t.Fatalf("param %d: analytic %g vs finite-diff %g", i, analytic[i], fd)
		}
	}
}

func TestLSTMGradientCoversAllParameterGroups(t *testing.T) {
	// Every parameter group (embedding, Wx, Wh, b, head) must receive
	// nonzero gradient from a generic batch.
	m := NewLSTMClassifier(3, 10, 4, 6, 4)
	m.ZeroGrads()
	m.Step([][]int{{1, 2, 3, 4, 5}, {9, 8, 7}}, []int{0, 3})
	groups := map[string][2]int{
		"embedding": {m.offE, m.offWx},
		"Wx":        {m.offWx, m.offWh},
		"Wh":        {m.offWh, m.offB},
		"b":         {m.offB, m.offWout},
		"Wout":      {m.offWout, m.offBout},
		"bout":      {m.offBout, m.total},
	}
	for name, span := range groups {
		nonzero := false
		for i := span[0]; i < span[1]; i++ {
			if m.grads[i] != 0 {
				nonzero = true
				break
			}
		}
		if !nonzero {
			t.Errorf("parameter group %s received zero gradient", name)
		}
	}
}

func TestMLPLearnsXORLikeTask(t *testing.T) {
	// A nonlinear task a linear model cannot solve: XOR of two inputs.
	rng := rand.New(rand.NewSource(3))
	n := NewNet(5, NewDense(2, 16), NewReLU(), NewDense(16, 2))
	opt := &SGDMomentum{LR: 0.1, Momentum: 0.9}
	var loss float64
	for step := 0; step < 500; step++ {
		x := make([][]float64, 32)
		y := make([]int, 32)
		for s := range x {
			a, b := rng.Intn(2), rng.Intn(2)
			x[s] = []float64{float64(a), float64(b)}
			y[s] = a ^ b
		}
		n.ZeroGrads()
		var d [][]float64
		loss, d, _ = SoftmaxCE(n.Forward(x), y)
		n.Backward(d)
		opt.Step(n.Params(), n.Grads())
	}
	if loss > 0.1 {
		t.Fatalf("final XOR loss %g, want <0.1", loss)
	}
}

func TestLSTMLearnsOrderSensitiveTask(t *testing.T) {
	// Classify whether token 1 appears before token 2 — impossible for a
	// bag-of-words model, so success requires working recurrence.
	rng := rand.New(rand.NewSource(4))
	m := NewLSTMClassifier(6, 8, 6, 12, 2)
	opt := &SGDMomentum{LR: 0.2, Momentum: 0.9}
	gen := func() ([]int, int) {
		length := 4 + rng.Intn(4)
		seq := make([]int, length)
		for i := range seq {
			seq[i] = 3 + rng.Intn(5) // background tokens 3..7
		}
		i, j := rng.Intn(length), rng.Intn(length)
		for i == j {
			j = rng.Intn(length)
		}
		if i > j {
			i, j = j, i
		}
		if rng.Intn(2) == 0 {
			seq[i], seq[j] = 1, 2
			return seq, 0
		}
		seq[i], seq[j] = 2, 1
		return seq, 1
	}
	var correct, total int
	for step := 0; step < 400; step++ {
		seqs := make([][]int, 16)
		labels := make([]int, 16)
		for s := range seqs {
			seqs[s], labels[s] = gen()
		}
		m.ZeroGrads()
		_, c := m.Step(seqs, labels)
		opt.Step(m.Params(), m.Grads())
		if step >= 350 {
			correct += c
			total += 16
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.9 {
		t.Fatalf("order-task accuracy %g, want ≥0.9", acc)
	}
}

func TestNetDeterministicInit(t *testing.T) {
	a := ResidualMLP(9, 10, 16, 2, 4, 1)
	b := ResidualMLP(9, 10, 16, 2, 4, 1)
	for i := range a.Params() {
		if a.Params()[i] != b.Params()[i] {
			t.Fatal("same seed must produce identical parameters")
		}
	}
	c := ResidualMLP(10, 10, 16, 2, 4, 1)
	same := true
	for i := range a.Params() {
		if a.Params()[i] != c.Params()[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds must differ")
	}
}

func TestResidualMLPWidthFactorScalesParams(t *testing.T) {
	base := ResidualMLP(1, 100, 32, 3, 10, 1)
	wide := ResidualMLP(1, 100, 32, 3, 10, 4)
	// Trunk params scale ~quadratically with width factor.
	ratio := float64(wide.NumParams()) / float64(base.NumParams())
	if ratio < 8 || ratio > 16 {
		t.Fatalf("4x width factor changed params by %.1fx, want ~8-16x", ratio)
	}
}

func TestSGDMomentumMatchesManual(t *testing.T) {
	opt := &SGDMomentum{LR: 0.1, Momentum: 0.5}
	p := []float64{1}
	opt.Step(p, []float64{1}) // v = -0.1; p = 0.9
	opt.Step(p, []float64{1}) // v = -0.05-0.1 = -0.15; p = 0.75
	if math.Abs(p[0]-0.75) > 1e-12 {
		t.Fatalf("p = %g, want 0.75", p[0])
	}
}

func TestDenseRejectsWrongInputSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n := NewNet(1, NewDense(3, 2))
	n.Forward([][]float64{{1, 2}})
}

func TestEmptyBatchGivesEmptyResults(t *testing.T) {
	// A rank whose data shard is empty still runs a zero-sample batch, after
	// workspaces have been sized by earlier batches and before any has.
	n := NewNet(1, NewDense(3, 4), NewReLU(), NewResidual(NewDense(4, 4), NewReLU(), NewDense(4, 4)), NewDense(4, 2))
	for _, warm := range []bool{false, true} {
		if warm {
			x := [][]float64{{1, -2, 3}, {0.5, 0, -1}}
			_, d, _ := SoftmaxCE(n.Forward(x), []int{0, 1})
			n.Backward(d)
		}
		logits := n.Forward(nil)
		loss, d, correct := SoftmaxCE(logits, nil)
		n.Backward(d)
		if len(logits) != 0 || len(d) != 0 || loss != 0 || correct != 0 {
			t.Fatalf("warm=%v: empty batch gave %d logits, %d gradient rows, loss %g, %d correct", warm, len(logits), len(d), loss, correct)
		}
	}
}

func TestRaggedBatchesPanic(t *testing.T) {
	ragged := [][]float64{{1, 2, 3, 4}, {1, 2}}
	cases := map[string]func(){
		"Dense forward":    func() { NewDense(4, 2).Forward(make([]float64, 10), ragged) },
		"ReLU forward":     func() { NewReLU().Forward(nil, ragged) },
		"Residual forward": func() { NewResidual(NewReLU()).Forward(nil, ragged) },
		"SoftmaxCE":        func() { SoftmaxCE(ragged, []int{0, 0}) },
		"Dense backward": func() {
			d := NewDense(2, 4)
			params := make([]float64, d.NumParams())
			d.Forward(params, [][]float64{{1, 2}, {3, 4}})
			d.Backward(params, make([]float64, d.NumParams()), ragged)
		},
		"ReLU backward": func() {
			r := NewReLU()
			r.Forward(nil, [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}})
			r.Backward(nil, nil, ragged)
		},
		"Residual backward": func() {
			r := NewResidual(NewReLU())
			r.Forward(nil, [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}})
			r.Backward(nil, nil, ragged)
		},
		"batch mismatch": func() {
			r := NewReLU()
			r.Forward(nil, [][]float64{{1, 2}})
			r.Backward(nil, nil, [][]float64{{1, 2}, {3, 4}})
		},
	}
	for name, call := range cases {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "nn: ") {
					t.Errorf("%s: panic %q, want an nn: message", name, msg)
				}
			}()
			call()
		}()
	}
}

func TestFlopsAccounting(t *testing.T) {
	n := NewNet(1, NewDense(10, 20), NewReLU(), NewDense(20, 5))
	want := 6.0 * (10*20 + 20*5)
	if got := n.FlopsPerSample(); got != want {
		t.Fatalf("FlopsPerSample = %g, want %g", got, want)
	}
	m := NewLSTMClassifier(1, 10, 4, 8, 3)
	if m.FlopsPerToken() <= 0 {
		t.Fatal("LSTM flops must be positive")
	}
}
