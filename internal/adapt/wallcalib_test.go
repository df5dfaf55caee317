package adapt

import (
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// calibratedRing runs 24 ring rounds alternating ~4 MB and ~100 B messages
// on w with calibration enabled and returns the per-rank calibrators the
// send hook fed: the size spread that makes a measured slope's sign robust
// to scheduler noise.
func calibratedRing(w *comm.World) []*LinkCalibrator {
	calibs := calibrators(w)
	big := make([]float64, 1<<19)
	comm.Run(w, func(p *comm.Proc) int {
		rank, n := p.Rank(), p.Size()
		for round := 0; round < 24; round++ {
			payload := big[:16]
			if round%2 == 0 {
				payload = big
			}
			p.Send((rank+1)%n, round, payload, len(payload)*8)
			p.Recv((rank-1+n)%n, round)
		}
		return 0
	})
	return calibs
}

// TestWallClockLinkFit: measured α–β belongs to the transport that moves
// bytes. On loopback TCP the send hook reports the wall duration of
// framing and writing every message, and the calibrator must recover a
// usable affine fit from them — positive per-byte slope, non-negative
// intercept.
func TestWallClockLinkFit(t *testing.T) {
	const P = 4
	w, err := comm.NewWorldTCP(P, simnet.Aries, comm.TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for r, c := range calibratedRing(w) {
		if got := c.Samples(0); got != 24 {
			t.Fatalf("rank %d: %d samples, want 24", r, got)
		}
		alpha, beta, ok := c.Fit(0)
		if !ok {
			t.Fatalf("rank %d: no usable fit from measured wall durations", r)
		}
		if beta <= 0 || alpha < 0 {
			t.Fatalf("rank %d: fit alpha=%g beta=%g", r, alpha, beta)
		}
	}
}

// TestGoroutineHandoverHasNoLinkFit: the goroutine backend hands payloads
// over by reference, so every reported transfer has zero duration and
// there is no link to measure — Fit must refuse, which is what makes a
// Controller on this backend price with its static profile
// (TestControllerOnGoroutineTransport).
func TestGoroutineHandoverHasNoLinkFit(t *testing.T) {
	const P = 4
	for r, c := range calibratedRing(comm.NewWorld(P, simnet.Aries).UseGoroutineTransport()) {
		if got := c.Samples(0); got != 24 {
			t.Fatalf("rank %d: %d samples, want 24", r, got)
		}
		if alpha, beta, ok := c.Fit(0); ok {
			t.Fatalf("rank %d: fitted alpha=%g beta=%g from zero-duration handovers", r, alpha, beta)
		}
	}
}

// TestControllerOnGoroutineTransport runs the full adaptive loop on the
// real backend: sketch → measured-scenario agreement → ChooseAutoLevels →
// hysteresis → collective, with link calibration warming up from measured
// transfers. The decision must be a concrete algorithm, all ranks must
// agree on it, and results must equal the static reference.
func TestControllerOnGoroutineTransport(t *testing.T) {
	const (
		P = 8
		n = 1 << 14
		k = 400
	)
	w := comm.NewWorld(P, simnet.Aries).UseGoroutineTransport()
	controllers := make([]*Controller, P)
	for r := range controllers {
		controllers[r] = NewController(Config{})
	}
	Calibrate(w, controllers)
	rng := rand.New(rand.NewSource(21))
	inputs := make([]*stream.Vector, P)
	for r := range inputs {
		idx := rng.Perm(n)[:k]
		sortInts(idx)
		ii := make([]int32, k)
		vv := make([]float64, k)
		for i, ix := range idx {
			ii[i] = int32(ix)
			vv[i] = float64(1+rng.Intn(8)) / 8
		}
		inputs[r] = stream.NewSparse(n, ii, vv, stream.OpSum)
	}

	static := comm.Run(w, func(p *comm.Proc) []float64 {
		return core.Allreduce(p, inputs[p.Rank()], core.Options{Algorithm: core.SSARSplitAllgather}).ToDense()
	})
	for call := 0; call < 4; call++ {
		results := comm.Run(w, func(p *comm.Proc) []float64 {
			a := controllers[p.Rank()]
			return a.Allreduce(p, inputs[p.Rank()], core.Options{Algorithm: core.Auto}).ToDense()
		})
		for r := range results {
			for i := range results[r] {
				if results[r][i] != static[0][i] {
					t.Fatalf("call %d rank %d coord %d: adaptive %g, static %g", call, r, i, results[r][i], static[0][i])
				}
			}
		}
	}
	alg0, lvl0 := controllers[0].Choice()
	if alg0 == core.Auto {
		t.Fatalf("controller never resolved Auto")
	}
	for r := 1; r < P; r++ {
		alg, lvl := controllers[r].Choice()
		if alg != alg0 || lvl != lvl0 {
			t.Fatalf("rank %d decided (%v,%d), rank 0 (%v,%d)", r, alg, lvl, alg0, lvl0)
		}
	}
	// Calibration must have consumed measured samples by the last call.
	if got := controllers[0].Calibrator().Samples(0); got == 0 {
		t.Fatalf("no measured samples consumed")
	}
}

// sortInts sorts ascending.
func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// TestCalibrationUnderForkedSends: a rank's forked Procs — two IAllreduce
// in flight on the goroutine transport — fold their sends into the rank's
// calibrator from their own goroutines while the rank's controller reads
// its fit (Fit, and the snapshot a Plan decision prices with). Under -race
// this fails as soon as LinkCalibrator stops locking. Every send is folded
// exactly once.
func TestCalibrationUnderForkedSends(t *testing.T) {
	const P = 4
	w := comm.NewWorld(P, simnet.Aries).UseGoroutineTransport()
	ctrls := make([]*Controller, P)
	for r := range ctrls {
		ctrls[r] = NewController(Config{})
	}
	Calibrate(w, ctrls)
	inputs := calibInputs(23, 1<<14, 400, P)
	comm.Run(w, func(p *comm.Proc) any {
		a := ctrls[p.Rank()]
		v := inputs[p.Rank()]
		reqs := []*core.Request{
			core.IAllreduce(p, v, core.Options{Algorithm: core.SSARSplitAllgather}),
			core.IAllreduce(p, v, core.Options{Algorithm: core.SSARRecDouble}),
		}
		for i := 0; i < 64; i++ {
			a.Calibrator().Fit(0)
		}
		a.Plan(p, v, core.Options{})
		for _, r := range reqs {
			r.Wait(p)
		}
		return nil
	})
	folded := 0
	for _, a := range ctrls {
		folded += a.Calibrator().Samples(0)
	}
	if int64(folded) != w.TotalMessages() {
		t.Fatalf("calibrators folded %d sends, the world sent %d", folded, w.TotalMessages())
	}
}
