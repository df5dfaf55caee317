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
	tr := w.EnableTrace()
	inputs := calibInputs(11, 1<<16, 500, P)
	fits := comm.Run(w, func(p *comm.Proc) [2]float64 {
		c := NewLinkCalibrator(p.WorldRank())
		for i := 0; i < 3; i++ {
			core.Allreduce(p, inputs[p.Rank()], core.Options{Algorithm: core.SSARSplitAllgather})
			c.ConsumeOwn(tr)
		}
		alpha, beta, ok := c.Fit(0)
		if !ok {
			t.Errorf("rank %d: fit not ok after %d samples", p.Rank(), c.Samples(0))
		}
		return [2]float64{alpha, beta}
	})
	for r, f := range fits {
		if !relClose(f[0], prof.Alpha, 1e-6) || !relClose(f[1], prof.BetaPerByte, 1e-6) {
			t.Fatalf("rank %d fit (%.3g, %.3g), want (%.3g, %.3g)", r, f[0], f[1], prof.Alpha, prof.BetaPerByte)
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
	tr := w.EnableTrace()
	inputs := calibInputs(13, 1<<16, 800, P)
	type fit struct{ a0, b0, a1, b1 float64 }
	fits := comm.Run(w, func(p *comm.Proc) fit {
		c := NewLinkCalibrator(p.WorldRank())
		for i := 0; i < 3; i++ {
			core.Allreduce(p, inputs[p.Rank()], core.Options{Algorithm: core.SSARSplitAllgather})
			c.ConsumeOwn(tr)
		}
		a0, b0, ok0 := c.Fit(0)
		a1, b1, ok1 := c.Fit(1)
		if !ok0 || !ok1 {
			t.Errorf("rank %d: fits not ok (level0 %v over %d, level1 %v over %d)",
				p.Rank(), ok0, c.Samples(0), ok1, c.Samples(1))
		}
		return fit{a0, b0, a1, b1}
	})
	for r, f := range fits {
		if !relClose(f.a0, simnet.NVLinkLike.Alpha, 1e-6) || !relClose(f.b0, simnet.NVLinkLike.BetaPerByte, 1e-6) {
			t.Fatalf("rank %d level-0 fit (%.3g, %.3g), want NVLink (%.3g, %.3g)",
				r, f.a0, f.b0, simnet.NVLinkLike.Alpha, simnet.NVLinkLike.BetaPerByte)
		}
		if !relClose(f.a1, simnet.Aries.Alpha, 1e-6) || !relClose(f.b1, simnet.Aries.BetaPerByte, 1e-6) {
			t.Fatalf("rank %d level-1 fit (%.3g, %.3g), want Aries (%.3g, %.3g)",
				r, f.a1, f.b1, simnet.Aries.Alpha, simnet.Aries.BetaPerByte)
		}
	}
}

// TestCalibratorDegenerate: without spread in message sizes α and β are
// not separable and the fit must refuse.
func TestCalibratorDegenerate(t *testing.T) {
	c := NewLinkCalibrator(0)
	var events []comm.TraceEvent
	for i := 0; i < 32; i++ {
		events = append(events, comm.TraceEvent{
			Src: 0, Dst: 1, Bytes: 1000, NICFactor: 1,
			SendTime: float64(i), Arrival: float64(i) + 1e-5,
		})
	}
	c.ObserveEvents(events)
	if _, _, ok := c.Fit(0); ok {
		t.Fatal("fit over size-degenerate samples must not be ok")
	}
	if _, _, ok := c.Fit(3); ok {
		t.Fatal("fit of an unobserved level must not be ok")
	}
}

// TestCalibratedProfile: the substitution keeps compute terms, folds the
// software terms into the measured constants, and gates on min samples.
func TestCalibratedProfile(t *testing.T) {
	c := NewLinkCalibrator(0)
	alpha, beta := 2e-3, 9e-8
	var events []comm.TraceEvent
	for i := 0; i < 10; i++ {
		bytes := 100 * (i + 1)
		events = append(events, comm.TraceEvent{
			Src: 0, Dst: 1, Bytes: bytes, NICFactor: 1,
			SendTime: float64(i), Arrival: float64(i) + alpha + beta*float64(bytes),
		})
	}
	c.ObserveEvents(events)

	if _, ok := c.CalibratedProfile(simnet.SparkLike, 0, 100); ok {
		t.Fatal("min-samples gate should refuse 10 < 100")
	}
	got, ok := c.CalibratedProfile(simnet.SparkLike, 0, 8)
	if !ok {
		t.Fatal("calibration should be usable with 10 >= 8 samples")
	}
	if !relClose(got.Alpha, alpha, 1e-9) || !relClose(got.BetaPerByte, beta, 1e-9) {
		t.Fatalf("calibrated (%.3g, %.3g), want (%.3g, %.3g)", got.Alpha, got.BetaPerByte, alpha, beta)
	}
	if got.SoftwareOverhead != 0 || got.SoftwarePerByte != 0 {
		t.Fatal("software terms must be folded into the measured constants")
	}
	if got.GammaPerElem != simnet.SparkLike.GammaPerElem ||
		got.SparseComputeFactor != simnet.SparkLike.SparseComputeFactor {
		t.Fatal("compute terms must be kept from the base profile")
	}
}

// TestCalibratorTracerReset: a Reset tracer restarts the consumption
// cursor instead of slicing out of range.
func TestCalibratorTracerReset(t *testing.T) {
	w := comm.NewWorld(2, simnet.Aries)
	tr := w.EnableTrace()
	inputs := calibInputs(17, 1<<12, 100, 2)
	comm.Run(w, func(p *comm.Proc) any {
		return core.Allreduce(p, inputs[p.Rank()], core.Options{Algorithm: core.SSARRecDouble})
	})
	c := NewLinkCalibrator(0)
	c.ConsumeOwn(tr)
	if c.Samples(0) == 0 {
		t.Fatal("expected samples from the first run")
	}
	tr.Reset()
	comm.Run(w, func(p *comm.Proc) any {
		return core.Allreduce(p, inputs[p.Rank()], core.Options{Algorithm: core.SSARRecDouble})
	})
	c.ConsumeOwn(tr) // must not panic; cursor restarts
	if c.Samples(0) == 0 {
		t.Fatal("expected samples after the tracer reset")
	}
}

// TestCalibratorResetAfterRegrowth: a tracer Reset must be detected even
// when the rank has already re-recorded more events than the calibrator's
// cursor — epochs are never mixed into one fit.
func TestCalibratorResetAfterRegrowth(t *testing.T) {
	w := comm.NewWorld(2, simnet.Aries)
	tr := w.EnableTrace()
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
	c := NewLinkCalibrator(0)
	run(0, 2)
	c.ConsumeOwn(tr)
	before := c.Samples(0)
	if before == 0 {
		t.Fatal("expected samples from the first epoch")
	}
	tr.Reset()
	run(2, 8) // regrow PAST the old cursor before the calibrator looks again
	c.ConsumeOwn(tr)
	want := 3 * before // 6 post-reset rounds vs the 2 pre-reset ones
	if got := c.Samples(0); got != want {
		t.Fatalf("post-reset fit holds %d samples, want exactly the %d post-reset ones (no epoch mixing)", got, want)
	}
	alpha, beta, ok := c.Fit(0)
	if !ok || !relClose(alpha, simnet.Aries.Alpha, 1e-6) || !relClose(beta, simnet.Aries.BetaPerByte, 1e-6) {
		t.Fatalf("post-reset fit (%.3g, %.3g, ok=%v) should still recover Aries exactly", alpha, beta, ok)
	}
}
