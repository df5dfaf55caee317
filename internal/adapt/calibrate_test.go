package adapt

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// relClose reports |a−b|/|b| ≤ tol (b non-zero).
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Abs(b)
}

// calibInputs builds P deterministic sparse vectors.
func calibInputs(seed int64, n, k, P int) []*stream.Vector {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*stream.Vector, P)
	for r := range out {
		out[r] = genSupport(rng, n, k, "uniform")
	}
	return out
}

// calibrators enables calibration on w through the one production path
// (Calibrate, one controller per rank) and returns the per-rank
// calibrators the send hook feeds.
func calibrators(w *comm.World) []*LinkCalibrator {
	ctrls := make([]*Controller, w.Size())
	calibs := make([]*LinkCalibrator, w.Size())
	for r := range ctrls {
		ctrls[r] = NewController(Config{})
	}
	Calibrate(w, ctrls)
	for r, c := range ctrls {
		calibs[r] = c.Calibrator()
	}
	return calibs
}

// TestCalibratorRecoversFlatProfile: on a flat world the level-0 fit must
// recover the profile's α and β essentially exactly — the simulator
// charges exactly the affine law the calibrator fits.
func TestCalibratorRecoversFlatProfile(t *testing.T) {
	// A deliberately non-standard profile: hand-set constants the
	// calibrator has never seen.
	prof := simnet.Profile{Name: "weird", Alpha: 7.7e-6, BetaPerByte: 3.3e-10,
		GammaPerElem: 2.5e-10, SparseComputeFactor: 4}
	P := 8
	w := comm.NewWorld(P, prof)
	calibs := calibrators(w)
	inputs := calibInputs(11, 1<<16, 500, P)
	comm.Run(w, func(p *comm.Proc) any {
		for i := 0; i < 3; i++ {
			core.Allreduce(p, inputs[p.Rank()], core.Options{Algorithm: core.SSARSplitAllgather})
		}
		return nil
	})
	for r, c := range calibs {
		alpha, beta, ok := c.Fit(0)
		if !ok {
			t.Fatalf("rank %d: fit not ok after %d samples", r, c.Samples(0))
		}
		if !relClose(alpha, prof.Alpha, 1e-6) || !relClose(beta, prof.BetaPerByte, 1e-6) {
			t.Fatalf("rank %d fit (%.3g, %.3g), want (%.3g, %.3g)", r, alpha, beta, prof.Alpha, prof.BetaPerByte)
		}
	}
}

// TestCalibratorRecoversPerLevel: on a two-level topology with a NIC
// serialization cap, the level-0 and level-1 fits must recover the intra
// and inter profiles — including dividing the recorded contention factor
// back out of the bandwidth term.
func TestCalibratorRecoversPerLevel(t *testing.T) {
	topo := simnet.TwoLevel(4, simnet.NVLinkLike, simnet.Aries, 1)
	P := 16
	w := comm.NewWorldHier(P, topo)
	calibs := calibrators(w)
	inputs := calibInputs(13, 1<<16, 800, P)
	comm.Run(w, func(p *comm.Proc) any {
		for i := 0; i < 3; i++ {
			core.Allreduce(p, inputs[p.Rank()], core.Options{Algorithm: core.SSARSplitAllgather})
		}
		return nil
	})
	for r, c := range calibs {
		a0, b0, ok0 := c.Fit(0)
		a1, b1, ok1 := c.Fit(1)
		if !ok0 || !ok1 {
			t.Fatalf("rank %d: fits not ok (level0 %v over %d, level1 %v over %d)",
				r, ok0, c.Samples(0), ok1, c.Samples(1))
		}
		if !relClose(a0, simnet.NVLinkLike.Alpha, 1e-6) || !relClose(b0, simnet.NVLinkLike.BetaPerByte, 1e-6) {
			t.Fatalf("rank %d level-0 fit (%.3g, %.3g), want NVLink (%.3g, %.3g)",
				r, a0, b0, simnet.NVLinkLike.Alpha, simnet.NVLinkLike.BetaPerByte)
		}
		if !relClose(a1, simnet.Aries.Alpha, 1e-6) || !relClose(b1, simnet.Aries.BetaPerByte, 1e-6) {
			t.Fatalf("rank %d level-1 fit (%.3g, %.3g), want Aries (%.3g, %.3g)",
				r, a1, b1, simnet.Aries.Alpha, simnet.Aries.BetaPerByte)
		}
	}
}

// TestCalibratorDegenerate: without spread in message sizes α and β are
// not separable and the fit must refuse.
func TestCalibratorDegenerate(t *testing.T) {
	var c LinkCalibrator
	for i := 0; i < 32; i++ {
		c.Observe(comm.TraceEvent{
			Src: 0, Dst: 1, Bytes: 1000, NICFactor: 1,
			SendTime: float64(i), Arrival: float64(i) + 1e-5,
		})
	}
	if _, _, ok := c.Fit(0); ok {
		t.Fatal("fit over size-degenerate samples must not be ok")
	}
	if _, _, ok := c.Fit(3); ok {
		t.Fatal("fit of an unobserved level must not be ok")
	}
}

// TestCalibratorFoldsEachSendOnce: a calibrator fed across several Runs
// holds every send exactly once — no history is re-read, so nothing is
// double-counted or lost between decisions — and the fit over all of them
// still recovers the profile exactly.
func TestCalibratorFoldsEachSendOnce(t *testing.T) {
	w := comm.NewWorld(2, simnet.Aries)
	c := calibrators(w)[0]
	// Distinct per-round payload sizes keep the least-squares fit
	// non-degenerate (α and β separable).
	rounds := make([][]*stream.Vector, 8)
	for i := range rounds {
		rounds[i] = calibInputs(19+int64(i), 1<<12, 60+40*i, 2)
	}
	run := func(lo, hi int) {
		comm.Run(w, func(p *comm.Proc) any {
			for i := lo; i < hi; i++ {
				core.Allreduce(p, rounds[i][p.Rank()], core.Options{Algorithm: core.SSARRecDouble})
			}
			return nil
		})
	}
	run(0, 2)
	before := c.Samples(0)
	if before == 0 {
		t.Fatal("expected samples from the first Run")
	}
	run(2, 8)
	if got, want := c.Samples(0), 4*before; got != want {
		t.Fatalf("after 8 rounds the fit holds %d samples, want exactly %d (4x the first 2 rounds')", got, want)
	}
	alpha, beta, ok := c.Fit(0)
	if !ok || !relClose(alpha, simnet.Aries.Alpha, 1e-6) || !relClose(beta, simnet.Aries.BetaPerByte, 1e-6) {
		t.Fatalf("fit (%.3g, %.3g, ok=%v) should recover Aries exactly", alpha, beta, ok)
	}
}
