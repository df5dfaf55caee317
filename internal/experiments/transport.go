package experiments

import (
	"fmt"

	"repro/internal/adapt"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// This file holds the execution-backend comparison behind `sparbench
// -sweep transport`, the CI smoke of the real backends: the same seeded
// allreduce instances run on the simulator and on the real transports
// (in-process goroutine channels, loopback TCP sockets), checking
// bit-identity of the results and reporting measured wall times, plus the
// calibration demo — the adaptive controller running on the goroutine
// backend, fitting genuine α–β link constants from measured transfer
// durations and resolving Auto from them. The wall-clock record of the
// repo is the benchmark under bench/, not this table.

// TransportRow is one (backend, algorithm) cell of the execution-backend
// comparison. Exactly one of SimSeconds/WallSeconds is meaningful: the
// simulator reports deterministic virtual time and zero wall time, the
// real backends report measured wall time and zero virtual time.
type TransportRow struct {
	Transport string
	Algorithm string
	N         int
	P         int
	K         int
	// SimSeconds is the simulator's virtual completion time (deterministic);
	// WallSeconds is the measured wall-clock completion time on a real
	// backend (machine-dependent).
	SimSeconds  float64
	WallSeconds float64
	// BitIdenticalToSim reports whether every rank's dense result equals
	// the simulator's bit for bit (trivially true on the sim row itself).
	BitIdenticalToSim bool
}

// CalibDemo records the wall-clock calibration demo: the adaptive
// controller on the goroutine backend, with the link fit recovered from
// measured transfer durations and the Auto resolution it fed.
type CalibDemo struct {
	Transport string
	P         int
	N         int
	K         int
	Calls     int
	// Samples is how many of rank 0's own measured transfers the
	// calibrator consumed; FitOK whether they yielded a usable affine fit.
	Samples int
	FitOK   bool
	// AlphaSeconds and BetaSecondsPerByte are the fitted link constants
	// (measured wall values — machine-dependent).
	AlphaSeconds       float64
	BetaSecondsPerByte float64
	// Choice is the concrete algorithm Auto resolved to; RanksAgree
	// whether every rank's controller holds the same choice.
	Choice     string
	RanksAgree bool
	// BitIdenticalToStatic reports whether the adaptive results equal a
	// static reference run bit for bit.
	BitIdenticalToStatic bool
}

// transportInputs builds the seeded per-rank inputs shared by every
// backend: one uniform scenario call whose lattice values (odd multiples
// of 1/16) make floating-point accumulation exact, so bit-comparison
// across backends is meaningful.
func transportInputs(seed int64, n, P, k int) []*stream.Vector {
	sc := scenario.Scenario{
		Name: "transport", N: n, P: P, Calls: 1,
		Density: scenario.Const(float64(k) / float64(n)),
	}
	return sc.Generator(scenario.NewKey(seed)).Next()
}

// TransportSweep runs the backend comparison. backends selects the real
// transports to include ("goroutine", "tcp"); the simulator is always the
// reference. The returned error is non-nil only if a TCP world cannot be
// constructed.
func TransportSweep(backends []string) ([]TransportRow, CalibDemo, error) {
	const (
		n = 1 << 16
		P = 8
		k = 1 << 10
	)
	prof := simnet.Aries
	inputs := transportInputs(404, n, P, k)
	algs := []struct {
		alg core.Algorithm
	}{
		{core.SSARRecDouble},
		{core.SSARSplitAllgather},
		{core.DenseRabenseifner},
	}

	runAll := func(w *comm.World) ([][][]float64, []float64) {
		res := make([][][]float64, len(algs))
		times := make([]float64, len(algs))
		for i, a := range algs {
			opts := core.Options{Algorithm: a.alg}
			res[i] = comm.Run(w, func(p *comm.Proc) []float64 {
				return core.Allreduce(p, inputs[p.Rank()], opts).ToDense()
			})
			times[i] = w.MaxTime()
		}
		return res, times
	}

	simW := comm.NewWorld(P, prof)
	ref, simTimes := runAll(simW)

	var rows []TransportRow
	for i, a := range algs {
		rows = append(rows, TransportRow{
			Transport: "sim", Algorithm: a.alg.String(), N: n, P: P, K: k,
			SimSeconds: simTimes[i], BitIdenticalToSim: true,
		})
	}

	sameAsRef := func(res [][][]float64) []bool {
		ok := make([]bool, len(algs))
		for i := range algs {
			ok[i] = true
			for r := range res[i] {
				for c := range res[i][r] {
					if res[i][r][c] != ref[i][r][c] {
						ok[i] = false
					}
				}
			}
		}
		return ok
	}

	for _, backend := range backends {
		var w *comm.World
		switch backend {
		case "goroutine":
			w = comm.NewWorld(P, prof).UseGoroutineTransport()
		case "tcp":
			var err error
			w, err = comm.NewWorldTCP(P, prof, comm.TCPConfig{})
			if err != nil {
				return nil, CalibDemo{}, fmt.Errorf("tcp world: %w", err)
			}
		default:
			return nil, CalibDemo{}, fmt.Errorf("unknown backend %q (want goroutine or tcp)", backend)
		}
		res, wallTimes := runAll(w)
		for i, ok := range sameAsRef(res) {
			rows = append(rows, TransportRow{
				Transport: backend, Algorithm: algs[i].alg.String(), N: n, P: P, K: k,
				WallSeconds: wallTimes[i], BitIdenticalToSim: ok,
			})
		}
		if backend == "tcp" {
			w.Close()
		}
	}

	return rows, calibDemo(), nil
}

// calibDemo runs the adaptive controller on the goroutine backend and
// reports the measured link fit plus the Auto resolution it produced.
func calibDemo() CalibDemo {
	const (
		n     = 1 << 15
		P     = 8
		k     = 700
		calls = 6
	)
	demo := CalibDemo{Transport: "goroutine", P: P, N: n, K: k, Calls: calls}
	inputs := transportInputs(405, n, P, k)

	static := comm.Run(comm.NewWorld(P, simnet.Aries), func(p *comm.Proc) []float64 {
		return core.Allreduce(p, inputs[p.Rank()], core.Options{Algorithm: core.SSARSplitAllgather}).ToDense()
	})

	w := comm.NewWorld(P, simnet.Aries).UseGoroutineTransport()
	tr := w.EnableTrace()
	tr.LimitPerRank(1 << 16)
	ctrls := make([]*adapt.Controller, P)
	for r := range ctrls {
		ctrls[r] = adapt.NewController(adapt.Config{})
		ctrls[r].AttachTracer(tr, r)
	}
	demo.BitIdenticalToStatic = true
	for call := 0; call < calls; call++ {
		res := comm.Run(w, func(p *comm.Proc) []float64 {
			return ctrls[p.Rank()].Allreduce(p, inputs[p.Rank()], core.Options{Algorithm: core.Auto}).ToDense()
		})
		for r := range res {
			for c := range res[r] {
				if res[r][c] != static[0][c] {
					demo.BitIdenticalToStatic = false
				}
			}
		}
	}

	cal := ctrls[0].Calibrator()
	demo.Samples = cal.Samples(0)
	alpha, beta, ok := cal.Fit(0)
	demo.FitOK = ok
	if ok {
		demo.AlphaSeconds, demo.BetaSecondsPerByte = alpha, beta
	}
	alg0, lv0 := ctrls[0].Choice()
	demo.Choice = alg0.String()
	if lv0 > 0 {
		demo.Choice = fmt.Sprintf("%s@%d", alg0, lv0)
	}
	demo.RanksAgree = true
	for r := 1; r < P; r++ {
		alg, lv := ctrls[r].Choice()
		if alg != alg0 || lv != lv0 {
			demo.RanksAgree = false
		}
	}
	return demo
}
