package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/pin"
)

// refDenseForward is Dense.Forward as first written: one output row per
// pass over the input. It is the reference the blocked kernel must match.
func refDenseForward(d *Dense, params []float64, x [][]float64) [][]float64 {
	w := params[:d.Out*d.In]
	b := params[d.Out*d.In:]
	out := make([][]float64, len(x))
	for s, xs := range x {
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

// refDenseBackward is Dense.Backward as first written: samples outermost,
// outputs inside. It is the reference the output-major kernel must match.
func refDenseBackward(d *Dense, params, grads []float64, x, dOut [][]float64) [][]float64 {
	w := params[:d.Out*d.In]
	gw := grads[:d.Out*d.In]
	gb := grads[d.Out*d.In:]
	dX := make([][]float64, len(dOut))
	for s, dy := range dOut {
		xs := x[s]
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

// sameBits reports whether a and b are the same float64 bit for bit, with
// every NaN equal to every other: x86 returns the payload of whichever NaN
// operand comes first, and the compiler may order a commutative operation's
// operands either way, so payloads are not part of the kernels' contract.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// sameRows reports the first element where got and want differ.
func sameRows(what string, got, want [][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for s := range want {
		if len(got[s]) != len(want[s]) {
			return fmt.Errorf("%s[%d]: width %d, want %d", what, s, len(got[s]), len(want[s]))
		}
		for i := range want[s] {
			if !sameBits(got[s][i], want[s][i]) {
				return fmt.Errorf("%s[%d][%d] = %v (%#x), want %v (%#x)", what, s, i,
					got[s][i], math.Float64bits(got[s][i]), want[s][i], math.Float64bits(want[s][i]))
			}
		}
	}
	return nil
}

// denseCase draws the parameters, a batch of inputs and a batch of output
// gradients of a Dense(in, out), every value from next.
func denseCase(in, out, batch int, next func() float64) (params []float64, x, dOut [][]float64) {
	params = make([]float64, out*in+out)
	for i := range params {
		params[i] = next()
	}
	x = make([][]float64, batch)
	dOut = make([][]float64, batch)
	for s := range x {
		x[s] = make([]float64, in)
		for i := range x[s] {
			x[s][i] = next()
		}
		dOut[s] = make([]float64, out)
		for o := range dOut[s] {
			dOut[s][o] = next()
		}
	}
	return params, x, dOut
}

// checkDense runs d and the reference kernels on the same inputs, each
// accumulating into its own copy of grads, and reports the first output,
// input-gradient or parameter-gradient element that differs. d is reused
// across calls, so its workspaces arrive dirty from earlier batches.
func checkDense(d *Dense, params, grads []float64, x, dOut [][]float64) error {
	wantGrads := append([]float64(nil), grads...)
	gotGrads := append([]float64(nil), grads...)
	if err := sameRows("Forward", d.Forward(params, x), refDenseForward(d, params, x)); err != nil {
		return err
	}
	if err := sameRows("Backward", d.Backward(params, gotGrads, dOut), refDenseBackward(d, params, wantGrads, x, dOut)); err != nil {
		return err
	}
	return sameRows("grads", [][]float64{gotGrads}, [][]float64{wantGrads})
}

// kernelSpecials are the values the kernels must treat exactly as the
// reference does: zeros of both signs (a zero output gradient is skipped),
// infinities, NaN, the smallest denormal and a value near overflow.
var kernelSpecials = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, 1e308}

func TestDenseKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	// sprinkle draws a normal value, or with probability 1/every one of the
	// first n specials.
	sprinkle := func(every, n int) func() float64 {
		return func() float64 {
			if rng.Intn(every) == 0 {
				return kernelSpecials[rng.Intn(n)]
			}
			return rng.NormFloat64()
		}
	}
	modes := []struct {
		name string
		next func() float64
	}{
		{"plain", rng.NormFloat64},
		{"zeros", sprinkle(4, 2)},
		{"specials", sprinkle(16, len(kernelSpecials))},
	}
	for _, in := range []int{1, 7, 64} {
		for _, out := range []int{1, 2, 3, 4, 5, 6, 7, 8, 13} {
			for _, mode := range modes {
				d := NewDense(in, out)
				grads := make([]float64, d.NumParams())
				for i := range grads {
					grads[i] = rng.NormFloat64()
				}
				for _, batch := range []int{8, 0, 1, 3, 2, 8} {
					params, x, dOut := denseCase(in, out, batch, mode.next)
					if err := checkDense(d, params, grads, x, dOut); err != nil {
						t.Fatalf("Dense(%d, %d) %s batch %d: %v", in, out, mode.name, batch, err)
					}
				}
			}
		}
	}
}

func FuzzDenseKernelEquivalence(f *testing.F) {
	f.Add(uint8(7), uint8(5), uint8(3), int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint8(64), uint8(8), uint8(8), int64(2), []byte{})
	f.Add(uint8(1), uint8(3), uint8(0), int64(3), []byte{9, 9, 1})
	f.Fuzz(func(t *testing.T, in, out, batch uint8, seed int64, picks []byte) {
		// Each pick byte chooses the next value: below len(kernelSpecials)
		// it is that special, otherwise a normal draw from the seed.
		rng := rand.New(rand.NewSource(seed))
		next := func() float64 {
			if len(picks) > 0 {
				p := int(picks[0])
				picks = picks[1:]
				if p < len(kernelSpecials) {
					return kernelSpecials[p]
				}
			}
			return rng.NormFloat64()
		}
		d := NewDense(1+int(in)%70, 1+int(out)%20)
		grads := make([]float64, d.NumParams())
		for _, b := range []int{int(batch) % 10, int(batch/16) % 10} {
			params, x, dOut := denseCase(d.In, d.Out, b, next)
			if err := checkDense(d, params, grads, x, dOut); err != nil {
				t.Fatalf("Dense(%d, %d) batch %d: %v", d.In, d.Out, b, err)
			}
		}
	})
}

// TestResidualMLPDigest pins three accumulated forward+backward passes of a
// ResidualMLP whose widths cover every Out mod 4, at batches that shrink and
// grow its workspaces: the loss bits of each pass and the final gradient.
// The ledger entry nn/residual-mlp was recorded with the one-row-per-pass,
// sample-major kernels and per-call allocations, so it holds the blocked
// kernels and reused workspaces to the same bits.
func TestResidualMLPDigest(t *testing.T) {
	pin.Prefix(t, "nn/residual-mlp")
	net := ResidualMLP(11, 13, 10, 2, 7, 1)
	rng := rand.New(rand.NewSource(12))
	h := pin.New()
	for _, batch := range []int{5, 2, 8} {
		x := make([][]float64, batch)
		y := make([]int, batch)
		for s := range x {
			x[s] = make([]float64, 13)
			for i := range x[s] {
				x[s][i] = rng.NormFloat64()
			}
			y[s] = rng.Intn(7)
		}
		loss, dLogits, _ := SoftmaxCE(net.Forward(x), y)
		net.Backward(dLogits)
		binary.Write(h, binary.LittleEndian, loss)
	}
	binary.Write(h, binary.LittleEndian, net.Grads())
	pin.Check(t, "nn/residual-mlp", h)
}
