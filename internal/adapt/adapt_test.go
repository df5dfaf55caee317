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

// runAdaptive drives one controller per rank over a per-call input
// schedule and returns rank 0's controller for inspection plus the final
// call's per-rank results.
func runAdaptive(t *testing.T, w *comm.World, cfg Config, schedule [][]*stream.Vector) ([]*Controller, []*stream.Vector) {
	t.Helper()
	ctrls := make([]*Controller, w.Size())
	for r := range ctrls {
		ctrls[r] = NewController(cfg)
	}
	Calibrate(w, ctrls)
	results := comm.Run(w, func(p *comm.Proc) *stream.Vector {
		var last *stream.Vector
		for _, inputs := range schedule {
			last = ctrls[p.Rank()].Allreduce(p, inputs[p.Rank()], core.Options{})
		}
		return last
	})
	return ctrls, results
}

// scheduleOf builds a deterministic call schedule: calls entries of P
// vectors each, with per-call non-zero count and pattern from the
// callbacks.
func scheduleOf(seed int64, n, P, calls int, kAt func(call int) int, patternAt func(call int) string) [][]*stream.Vector {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]*stream.Vector, calls)
	for c := range out {
		out[c] = make([]*stream.Vector, P)
		for r := 0; r < P; r++ {
			out[c][r] = genSupport(rng, n, kAt(c), patternAt(c))
		}
	}
	return out
}

// TestAdaptiveMatchesStaticOnStationaryUniform: on a stationary uniform
// workload the adaptive controller must settle on exactly the static
// Auto choice and produce identical reductions.
func TestAdaptiveMatchesStaticOnStationaryUniform(t *testing.T) {
	P, n, k := 8, 1<<16, 1200
	sched := scheduleOf(31, n, P, 6, func(int) int { return k }, func(int) string { return "uniform" })

	w := comm.NewWorld(P, simnet.Aries)
	ctrls, got := runAdaptive(t, w, Config{}, sched)

	wantAlg, _, _ := core.ChooseAutoLevels(core.CostScenario{N: n, P: P, K: sched[5][0].NNZ(), Profile: simnet.Aries})
	alg, levels := ctrls[0].Choice()
	if alg != wantAlg || levels != 0 {
		t.Fatalf("adaptive settled on %s@%d, static Auto picks %s", alg, levels, wantAlg)
	}
	if ctrls[0].Support() != core.SupportUniform {
		t.Fatal("uniform workload must keep the uniform support model")
	}

	// Same final-call reduction as the static path.
	ws := comm.NewWorld(P, simnet.Aries)
	want := comm.Run(ws, func(p *comm.Proc) *stream.Vector {
		return core.Allreduce(p, sched[5][p.Rank()], core.Options{})
	})
	for r := range got {
		gd, wd := got[r].ToDense(), want[r].ToDense()
		for i := range gd {
			if math.Float64bits(gd[i]) != math.Float64bits(wd[i]) {
				t.Fatalf("rank %d result differs from static at %d", r, i)
			}
		}
	}
}

// TestAdaptiveDetectsClusteredGateFlip reproduces the ROADMAP scenario
// the subsystem exists for: clustered inputs near the δ gate, where the
// uniform worst case routes Auto to the dense-result family although the
// actual union stays sparse. The controller must detect the clustering
// and settle on a sparse-result algorithm.
func TestAdaptiveDetectsClusteredGateFlip(t *testing.T) {
	P, n, k := 16, 1<<16, 5000
	sched := scheduleOf(37, n, P, 8, func(int) int { return k }, func(int) string { return "clustered" })

	staticAlg, _, _ := core.ChooseAutoLevels(core.CostScenario{N: n, P: P, K: k, Profile: simnet.Aries})
	if staticAlg != core.DSARSplitAllgather {
		t.Fatalf("precondition: static uniform Auto should pick the dense family here, got %s", staticAlg)
	}

	w := comm.NewWorld(P, simnet.Aries)
	ctrls, results := runAdaptive(t, w, Config{}, sched)
	alg, _ := ctrls[0].Choice()
	if alg != core.SSARRecDouble && alg != core.SSARSplitAllgather {
		t.Fatalf("adaptive should settle on a sparse-result algorithm, got %s", alg)
	}
	if ctrls[0].Support() != core.SupportClustered {
		t.Fatal("controller should have switched to the clustered support model")
	}
	if ctrls[0].ClusteredCalls() == 0 {
		t.Fatal("no decided call used the clustered model")
	}

	// Correctness: the adaptive result equals the chained reference up to
	// summation order (recursive doubling folds in tree order).
	ref := sched[len(sched)-1][0].Clone()
	for _, v := range sched[len(sched)-1][1:] {
		ref.Add(v)
	}
	rd, gd := ref.ToDense(), results[0].ToDense()
	for i := range rd {
		if math.Abs(rd[i]-gd[i]) > 1e-9*(1+math.Abs(rd[i])) {
			t.Fatalf("adaptive result differs from reference at %d: %v vs %v", i, gd[i], rd[i])
		}
	}
}

// TestHysteresisRampBounded: a monotonic density ramp crossing several
// decision regimes must produce a bounded number of switches — each
// regime boundary is crossed once, with no thrash at the boundaries.
func TestHysteresisRampBounded(t *testing.T) {
	P, n, calls := 8, 1<<16, 48
	kAt := func(c int) int {
		// Exponential ramp 64 → ~26k: traverses rec-double, split
		// allgather, and the dense-regime DSAR.
		return int(64 * math.Pow(1.14, float64(c)))
	}
	sched := scheduleOf(41, n, P, calls, kAt, func(int) string { return "uniform" })
	w := comm.NewWorld(P, simnet.Aries)
	ctrls, _ := runAdaptive(t, w, Config{}, sched)

	if sw := ctrls[0].Switches(); sw == 0 || sw > 4 {
		t.Fatalf("ramp should switch a small positive number of times, got %d", sw)
	}
	alg, _ := ctrls[0].Choice()
	if alg != core.DSARSplitAllgather {
		t.Fatalf("ramp should end in the dense regime, got %s", alg)
	}
	t.Logf("ramp: %d switches, final %s", ctrls[0].Switches(), alg)
}

// TestHysteresisStepConverges: a step change in the workload must move
// the choice within HoldCalls+1 decided calls and then hold it — and the
// controllers on every rank must agree call by call.
func TestHysteresisStepConverges(t *testing.T) {
	P, n := 8, 1<<16
	kLow, kHigh := 200, 24000 // sparse-regime vs dense-regime shapes
	const step, calls = 6, 16
	kAt := func(c int) int {
		if c < step {
			return kLow
		}
		return kHigh
	}
	sched := scheduleOf(43, n, P, calls, kAt, func(int) string { return "uniform" })

	tr := comm.NewWorld(P, simnet.Aries)
	cfg := Config{}.withDefaults()
	ctrls := make([]*Controller, P)
	for r := range ctrls {
		ctrls[r] = NewController(cfg)
	}
	type choice struct {
		alg core.Algorithm
		lv  int
	}
	// Pre-allocated so each rank only ever touches its own slot.
	perCall := make([][]choice, calls)
	for c := range perCall {
		perCall[c] = make([]choice, P)
	}
	comm.Run(tr, func(p *comm.Proc) any {
		for c := 0; c < calls; c++ {
			ctrls[p.Rank()].Allreduce(p, sched[c][p.Rank()], core.Options{})
			alg, lv := ctrls[p.Rank()].Choice()
			perCall[c][p.Rank()] = choice{alg, lv}
		}
		return nil
	})

	for c := 0; c < calls; c++ {
		for r := 1; r < P; r++ {
			if perCall[c][r] != perCall[c][0] {
				t.Fatalf("call %d: rank %d chose %v, rank 0 chose %v — ranks must agree",
					c, r, perCall[c][r], perCall[c][0])
			}
		}
	}
	before := perCall[step-1][0]
	var converged int = -1
	for c := step; c < calls; c++ {
		if perCall[c][0] != before {
			converged = c - step + 1
			break
		}
	}
	if converged < 0 {
		t.Fatal("choice never moved after the step change")
	}
	if converged > cfg.HoldCalls+1 {
		t.Fatalf("converged %d calls after the step, want within HoldCalls+1 = %d", converged, cfg.HoldCalls+1)
	}
	after := perCall[calls-1][0]
	for c := step + converged; c < calls; c++ {
		if perCall[c][0] != after {
			t.Fatalf("choice thrashed after convergence at call %d", c)
		}
	}
	if sw := ctrls[0].Switches(); sw != 1 {
		t.Fatalf("a single step change should produce exactly 1 switch, got %d", sw)
	}
	t.Logf("step converged in %d calls: %v → %v", converged, before.alg, after.alg)
}

// TestAdaptivePinnedAlgorithmPassthrough: a pinned algorithm bypasses the
// decision layer but still runs correctly.
func TestAdaptivePinnedAlgorithmPassthrough(t *testing.T) {
	P, n := 4, 1<<12
	sched := scheduleOf(47, n, P, 1, func(int) int { return 100 }, func(int) string { return "uniform" })
	w := comm.NewWorld(P, simnet.Aries)
	_, results := runAdaptiveWithOpts(t, w, sched, core.Options{Algorithm: core.RingSparse})
	ref := sched[0][0].Clone()
	for _, v := range sched[0][1:] {
		ref.Add(v)
	}
	if !results[0].Equal(ref) {
		t.Fatal("pinned-algorithm result differs from reference")
	}
}

func runAdaptiveWithOpts(t *testing.T, w *comm.World, schedule [][]*stream.Vector, opts core.Options) ([]*Controller, []*stream.Vector) {
	t.Helper()
	P := w.Size()
	ctrls := make([]*Controller, P)
	for r := range ctrls {
		ctrls[r] = NewController(Config{})
	}
	results := comm.Run(w, func(p *comm.Proc) *stream.Vector {
		var last *stream.Vector
		for _, inputs := range schedule {
			last = ctrls[p.Rank()].Allreduce(p, inputs[p.Rank()], opts)
		}
		return last
	})
	return ctrls, results
}

// TestAdaptiveOnHierarchyWorld: the controller must run (and agree) on an
// N-level hierarchy world, picking a sparse-result algorithm with a depth,
// and the calibrator must see per-level samples.
func TestAdaptiveOnHierarchyWorld(t *testing.T) {
	P := 32
	h := simnet.DragonflyLike(4, 4)
	sched := scheduleOf(53, 1<<18, P, 5, func(int) int { return 120 }, func(int) string { return "uniform" })
	w := comm.NewWorldHier(P, h)
	ctrls, results := runAdaptive(t, w, Config{}, sched)

	alg, levels := ctrls[0].Choice()
	if alg != core.SSARRecDouble && alg != core.SSARSplitAllgather {
		t.Fatalf("latency-bound sparse instance on a Dragonfly world should pick an SSAR algorithm, got %s@%d", alg, levels)
	}
	if levels < 2 {
		t.Fatalf("hierarchical pick should carry a depth >= 2, got %d", levels)
	}
	ref := sched[4][0].Clone()
	for _, v := range sched[4][1:] {
		ref.Add(v)
	}
	if !results[0].Equal(ref) {
		t.Fatal("hierarchy-world adaptive result differs from reference")
	}
	if ctrls[0].Calibrator().Samples(0) == 0 {
		t.Fatal("calibrator should have consumed level-0 transfers")
	}
}
