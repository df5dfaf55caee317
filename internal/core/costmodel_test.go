package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/density"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// simulateUniform is simulateUniformHier at full depth on *topo, or on the
// flat network of prof when topo is nil — the CostScenario.Hier encoding.
func simulateUniform(t *testing.T, n, k, P int, topo *simnet.Hierarchy, prof simnet.Profile, alg Algorithm) float64 {
	t.Helper()
	h := simnet.Flat(prof)
	if topo != nil {
		h = *topo
	}
	return simulateUniformHier(t, n, k, P, h, 0, alg)
}

// simulateUniformHier runs one allreduce of the given uniform-sparse
// instance on a world of h at an explicit recursion depth and returns the
// simulated completion time.
func simulateUniformHier(t *testing.T, n, k, P int, h simnet.Hierarchy, levels int, alg Algorithm) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n) + int64(k)*31 + int64(P)*7))
	inputs := make([]*stream.Vector, P)
	for r := range inputs {
		inputs[r] = randSparse(rng, n, k)
	}
	w := comm.NewWorldHier(P, h)
	comm.Run(w, func(p *comm.Proc) any {
		return Allreduce(p, inputs[p.Rank()], Options{Algorithm: alg, Levels: levels})
	})
	return w.MaxTime()
}

// TestPredictTracksSimulator: on uniform supports the model must stay
// within a modest relative error of the simulated time for every priced
// algorithm, across flat, topology, and NIC-contended scenarios. The
// model only needs to *rank* algorithms, but tracking the absolute time
// keeps the formulas honest. Flat recursive doubling is held to one tighter
// band on power-of-two and folded worlds alike: after the Appendix A fold a
// rank stands for more than one input, and a stage count that forgets it
// under-prices every non-power-of-two world (model/sim 0.67–0.83 at
// k ≥ 5000 before the fold-aware count).
func TestPredictTracksSimulator(t *testing.T) {
	topo := simnet.TwoLevel(4, simnet.NVLinkLike, simnet.Aries, 0)
	nic := simnet.TwoLevel(4, simnet.NVLinkLike, simnet.Aries, 1)
	cases := []struct {
		name    string
		n, k, P int
		topo    *simnet.Hierarchy
	}{
		{"flat-small", 1 << 20, 100, 4, nil},
		{"flat-large", 1 << 20, 50000, 4, nil},
		{"flat-overlap", 1 << 16, 3000, 16, nil},
		{"topo-sparse", 1 << 20, 100, 32, &topo},
		{"nic-sparse", 1 << 20, 100, 32, &nic},
		{"nic-dense", 1 << 16, 40000, 16, &nic},
	}
	algs := []Algorithm{SSARRecDouble, SSARSplitAllgather, DSARSplitAllgather, HierSSAR, HierDSAR}
	for _, tc := range cases {
		s := CostScenario{N: tc.n, P: tc.P, K: tc.k, Profile: simnet.Aries, Hier: tc.topo}
		if tc.topo == nil {
			s.Profile = testProfile
		}
		for _, alg := range algs {
			model := PredictSeconds(alg, s)
			sim := simulateUniform(t, tc.n, tc.k, tc.P, tc.topo, s.Profile, alg)
			if model <= 0 || sim <= 0 {
				t.Fatalf("%s/%s: non-positive time (model=%g sim=%g)", tc.name, alg, model, sim)
			}
			if r := math.Abs(model-sim) / sim; r > 0.35 {
				t.Errorf("%s/%s: model %.3gs vs sim %.3gs (rel err %.0f%%)",
					tc.name, alg, model, sim, r*100)
			}
		}
	}
	for _, P := range []int{2, 3, 4, 6, 8, 12, 16, 24} {
		for _, k := range []int{100, 5000, 40000} {
			s := CostScenario{N: 1 << 20, P: P, K: k, Profile: simnet.Aries}
			model := PredictSeconds(SSARRecDouble, s)
			sim := simulateUniform(t, s.N, k, P, nil, simnet.Aries, SSARRecDouble)
			if r := math.Abs(model-sim) / sim; r > 0.15 {
				t.Errorf("rec-double P=%d k=%d: model %.3gs vs sim %.3gs (model/sim %.2f)", P, k, model, sim, model/sim)
			}
		}
	}
}

// TestPredictTracksSimulator3Level: the level-aware closed forms must
// track the simulator on a 3-level DragonflyLike machine too, for every
// priced algorithm at every recursion depth.
func TestPredictTracksSimulator3Level(t *testing.T) {
	h := simnet.DragonflyLike(4, 4)
	cases := []struct {
		name    string
		n, k, P int
	}{
		{"dfly-sparse", 1 << 20, 100, 64},
		{"dfly-dense", 1 << 16, 40000, 64},
		{"dfly-ragged", 1 << 18, 2000, 27},
	}
	for _, tc := range cases {
		s := CostScenario{N: tc.n, P: tc.P, K: tc.k, Profile: simnet.AriesGlobal, Hier: &h}
		for _, alg := range []Algorithm{SSARRecDouble, SSARSplitAllgather, DSARSplitAllgather} {
			model := PredictSeconds(alg, s)
			sim := simulateUniformHier(t, tc.n, tc.k, tc.P, h, 0, alg)
			if r := math.Abs(model-sim) / sim; r > 0.35 {
				t.Errorf("%s/%s: model %.3gs vs sim %.3gs (rel err %.0f%%)", tc.name, alg, model, sim, r*100)
			}
		}
		for _, alg := range []Algorithm{HierSSAR, HierDSAR} {
			for _, levels := range []int{2, 3} {
				sc := s
				sc.Levels = levels
				model := PredictSeconds(alg, sc)
				sim := simulateUniformHier(t, tc.n, tc.k, tc.P, h, levels, alg)
				if r := math.Abs(model-sim) / sim; r > 0.35 {
					t.Errorf("%s/%s@%d: model %.3gs vs sim %.3gs (rel err %.0f%%)",
						tc.name, alg, levels, model, sim, r*100)
				}
			}
		}
	}
}

// TestOutermostGroupSizeSpellings: the outermost group spans the world
// whatever its GroupSize says (simnet.Level), so a positive outermost
// GroupSize whose product falls short of the world — 2·2·2 = 8 of 16 ranks
// — must price, choose and simulate exactly like the idiomatic 0. The
// model used to drop the eight destinations beyond the "group".
func TestOutermostGroupSizeSpellings(t *testing.T) {
	spelled := func(top int) simnet.Hierarchy {
		return simnet.Hierarchy{Levels: []simnet.Level{
			{GroupSize: 2, Profile: simnet.NVLinkLike, Serial: 1},
			{GroupSize: 2, Profile: simnet.Aries, Serial: 2},
			{GroupSize: top, Profile: simnet.AriesGlobal},
		}}
	}
	zero, two := spelled(0), spelled(2)
	for _, k := range []int{100, 10000} {
		a := CostScenario{N: 1 << 14, P: 16, K: k, Profile: simnet.AriesGlobal, Hier: &zero, Chunks: AutoChunks}
		b := a
		b.Hier = &two
		for _, alg := range []Algorithm{SSARRecDouble, SSARSplitAllgather, DSARSplitAllgather, HierSSAR, HierDSAR} {
			if ta, tb := PredictSeconds(alg, a), PredictSeconds(alg, b); ta != tb {
				t.Errorf("k=%d %s: model %g with GroupSize 0, %g with GroupSize 2", k, alg, ta, tb)
			}
			if sa, sb := simulateUniformHier(t, a.N, k, a.P, zero, 0, alg), simulateUniformHier(t, a.N, k, a.P, two, 0, alg); sa != sb {
				t.Errorf("k=%d %s: simulated %g with GroupSize 0, %g with GroupSize 2", k, alg, sa, sb)
			}
		}
		aa, al, ac := ChooseAutoLevels(a)
		ba, bl, bc := ChooseAutoLevels(b)
		if aa != ba || al != bl || ac != bc {
			t.Errorf("k=%d: Auto picks %s@%d/%d with GroupSize 0, %s@%d/%d with GroupSize 2", k, aa, al, ac, ba, bl, bc)
		}
	}
}

// TestAutoMatchesEmpiricalCheapest is the acceptance-criterion check: in
// scenarios where the old topology-presence heuristic picks the wrong
// algorithm, the cost-model Auto must pick the one that is actually
// cheapest in simulation.
func TestAutoMatchesEmpiricalCheapest(t *testing.T) {
	topo := simnet.TwoLevel(4, simnet.NVLinkLike, simnet.Aries, 0)
	nic := simnet.TwoLevel(4, simnet.NVLinkLike, simnet.Aries, 1)
	cases := []struct {
		name    string
		n, k, P int
		topo    simnet.Hierarchy
		old     Algorithm // what the PR-1 topology-presence heuristic chose
	}{
		// Sparse regime on an uncontended topology: old heuristic always
		// went hierarchical; flat rec-double is empirically cheaper.
		{"sparse-uncontended", 1 << 20, 100, 32, topo, HierSSAR},
		// Dense regime under NIC serialization: old heuristic always went
		// flat DSAR; the hierarchical DSAR is empirically cheaper.
		{"dense-contended", 1 << 16, 40000, 16, nic, DSARSplitAllgather},
	}
	for _, tc := range cases {
		s := CostScenario{N: tc.n, P: tc.P, K: tc.k, Profile: simnet.Aries, Hier: &tc.topo}
		choice := ChooseAuto(s)
		if choice == tc.old {
			t.Fatalf("%s: cost model chose %s, same as the old heuristic — scenario no longer discriminates",
				tc.name, choice)
		}
		candidates := []Algorithm{SSARRecDouble, SSARSplitAllgather, DSARSplitAllgather, HierSSAR, HierDSAR}
		cheapest, cheapestT := Algorithm(-1), math.Inf(1)
		times := map[Algorithm]float64{}
		for _, alg := range candidates {
			sim := simulateUniform(t, tc.n, tc.k, tc.P, &tc.topo, simnet.Aries, alg)
			times[alg] = sim
			if sim < cheapestT {
				cheapest, cheapestT = alg, sim
			}
		}
		if choice != cheapest {
			t.Fatalf("%s: Auto chose %s (sim %.3gs) but %s is cheapest (sim %.3gs)",
				tc.name, choice, times[choice], cheapest, cheapestT)
		}
		if times[tc.old] <= cheapestT {
			t.Fatalf("%s: old heuristic's %s is not actually worse (%.3gs vs %.3gs)",
				tc.name, tc.old, times[tc.old], cheapestT)
		}
		t.Logf("%s: auto=%s %.2fµs, old=%s %.2fµs (%.2fx saved)",
			tc.name, choice, cheapestT*1e6, tc.old, times[tc.old]*1e6, times[tc.old]/cheapestT)
	}
}

// TestChooseAutoDeterministicAndFlatSafe: the comparator must be a pure
// function (same scenario → same choice) and must never pick a
// hierarchical algorithm without an exploitable topology.
func TestChooseAutoDeterministicAndFlatSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		s := CostScenario{
			N:       100 + rng.Intn(1<<20),
			P:       1 + rng.Intn(64),
			Profile: simnet.Aries,
		}
		s.K = rng.Intn(s.N + 1)
		if rng.Intn(2) == 0 {
			topo := simnet.TwoLevel(1+rng.Intn(8), simnet.NVLinkLike, simnet.Aries, rng.Intn(3))
			s.Hier = &topo
		}
		a, b := ChooseAuto(s), ChooseAuto(s)
		if a != b {
			t.Fatalf("trial %d: ChooseAuto not deterministic (%s vs %s)", trial, a, b)
		}
		if s.Hier == nil && (a == HierSSAR || a == HierDSAR) {
			t.Fatalf("trial %d: hierarchical algorithm %s chosen on a flat world", trial, a)
		}
	}
}

// TestChooseAutoLevelsDoesNotAllocate: Auto prices every call, so its
// candidate and depth lists live on the stack — on a three-level machine
// (the longest lists), in both regimes, with the chunk search on.
func TestChooseAutoLevelsDoesNotAllocate(t *testing.T) {
	topo := simnet.DragonflyLike(4, 4)
	for _, k := range []int{64, 1 << 15} {
		s := CostScenario{N: 1 << 16, P: 64, K: k, Profile: simnet.Aries, Hier: &topo, Chunks: AutoChunks}
		if allocs := testing.AllocsPerRun(50, func() { ChooseAutoLevels(s) }); allocs != 0 {
			t.Errorf("K=%d: ChooseAutoLevels made %.0f allocations, want 0", k, allocs)
		}
	}
}

// TestPredictSeconds panics on unpriced algorithms and bad scenarios.
func TestPredictSecondsValidation(t *testing.T) {
	s := CostScenario{N: 100, P: 4, K: 10, Profile: simnet.Aries}
	for _, bad := range []func(){
		func() { PredictSeconds(DenseRing, s) },
		func() { PredictSeconds(SSARRecDouble, CostScenario{N: 0, P: 4, K: 1, Profile: simnet.Aries}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			bad()
		}()
	}
}

// TestClusteredSupportModelRemovesSkew quantifies the ROADMAP item this
// knob fixes: on the `clustered` input pattern the uniform-support model
// systematically overestimates fill-in E[K], which skews ChooseAuto's δ
// regime gate toward the dense-result family. The blocked closed form
// tracks the measured union; on a shape near δ the two models route Auto
// to different families, and the clustered model's choice keeps the
// result sparse as it should be.
func TestClusteredSupportModelRemovesSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	n, k, P := 1<<16, 5000, 16

	// Measure the actual union of `clustered`-pattern supports.
	inputs := patterns[3].gen(rng, n, k, P) // the "clustered" pattern
	sets := make([][]int32, P)
	for r, v := range inputs {
		idx, _ := v.Pairs()
		sets[r] = idx
	}
	measured := float64(density.MeasureK(sets))

	uniform := CostScenario{N: n, P: P, K: k, Profile: simnet.Aries}
	clustered := CostScenario{N: n, P: P, K: k, Profile: simnet.Aries, Support: SupportClustered}
	eUni := density.ExpectedKUniform(n, k, P)
	eClu := density.ExpectedKClustered(n, k, P, DefaultHotFraction, DefaultHotMass)

	if eUni < 1.4*measured {
		t.Fatalf("uniform model E[K]=%.0f should clearly overestimate measured %.0f", eUni, measured)
	}
	if rel := math.Abs(eClu-measured) / measured; rel > 0.20 {
		t.Fatalf("clustered model E[K]=%.0f vs measured %.0f (rel err %.0f%%)", eClu, measured, rel*100)
	}
	t.Logf("measured K=%.0f, uniform E[K]=%.0f (%.2fx overestimate), clustered E[K]=%.0f (%.2fx)",
		measured, eUni, eUni/measured, eClu, eClu/measured)

	// The skew is consequential: near δ the uniform gate routes to the
	// dense-result DSAR family while the clustered gate correctly keeps
	// the sparse-result SSAR family.
	delta := stream.Delta(n, stream.DefaultValueBytes)
	if eUni < float64(delta) || eClu >= float64(delta) {
		t.Fatalf("shape no longer straddles δ=%d (uniform %.0f, clustered %.0f)", delta, eUni, eClu)
	}
	if got := ChooseAuto(uniform); got != DSARSplitAllgather {
		t.Fatalf("uniform-model Auto should pick the dense family here, got %s", got)
	}
	switch got := ChooseAuto(clustered); got {
	case SSARRecDouble, SSARSplitAllgather:
		// sparse-result family, as the measured fill-in warrants
	default:
		t.Fatalf("clustered-model Auto should pick a sparse-result algorithm, got %s", got)
	}
	if measured >= float64(delta) {
		t.Fatalf("measured union %.0f is not actually below δ=%d", measured, delta)
	}
}

// TestSupportModelGateBoundary is the boundary-value companion to
// TestClusteredSupportModelRemovesSkew: it locates, by bisection, the
// exact per-rank non-zero count at which each support model's expected
// fill-in crosses δ — the point where the δ regime gate flips Auto from
// the sparse-result to the dense-result family — and pins (a) that the
// flip is a clean boundary (k−1 routes sparse, k routes dense, for both
// models), and (b) the documented skew: the uniform worst case reaches
// the gate at roughly a third of the clustered form's k, the band in
// which the two models disagree about the decision.
func TestSupportModelGateBoundary(t *testing.T) {
	n, P := 1<<16, 16
	delta := stream.Delta(n, stream.DefaultValueBytes)
	gateK := func(support SupportModel) int {
		lo, hi := 1, n // fill is monotone in k; find min k with E[K] >= δ
		for lo < hi {
			mid := (lo + hi) / 2
			var ek float64
			if support == SupportClustered {
				ek = density.ExpectedKClustered(n, mid, P, DefaultHotFraction, DefaultHotMass)
			} else {
				ek = density.ExpectedKUniform(n, mid, P)
			}
			if ek >= float64(delta) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo
	}
	family := func(k int, support SupportModel) string {
		alg := ChooseAuto(CostScenario{N: n, P: P, K: k, Profile: simnet.Aries, Support: support})
		switch alg {
		case DSARSplitAllgather, HierDSAR:
			return "dense"
		default:
			return "sparse"
		}
	}

	kU, kC := gateK(SupportUniform), gateK(SupportClustered)
	if kU >= kC {
		t.Fatalf("uniform gate k=%d must sit below clustered gate k=%d", kU, kC)
	}
	// The uniform form's ~1.65x E[K] overestimate on clustered supports
	// translates to reaching δ at roughly a third of the clustered k here.
	if ratio := float64(kC) / float64(kU); ratio < 1.5 || ratio > 5 {
		t.Fatalf("gate-k ratio %.2f outside the documented skew band [1.5, 5]", ratio)
	}
	// Boundary values: one non-zero below each gate stays sparse, the
	// gate itself flips dense — for the model that owns the gate.
	for _, tc := range []struct {
		support SupportModel
		k       int
		name    string
	}{
		{SupportUniform, kU, "uniform"},
		{SupportClustered, kC, "clustered"},
	} {
		if got := family(tc.k-1, tc.support); got != "sparse" {
			t.Fatalf("%s model at gate-1 (k=%d) routed %s, want sparse", tc.name, tc.k-1, got)
		}
		if got := family(tc.k, tc.support); got != "dense" {
			t.Fatalf("%s model at gate (k=%d) routed %s, want dense", tc.name, tc.k, got)
		}
	}
	// Inside the disagreement band the two models flip the DECISION, not
	// just the estimate: same instance, different family.
	mid := (kU + kC) / 2
	if family(mid, SupportUniform) != "dense" || family(mid, SupportClustered) != "sparse" {
		t.Fatalf("k=%d inside (kU=%d, kC=%d) should split the models' decisions", mid, kU, kC)
	}
	t.Logf("δ=%d: uniform gate k=%d, clustered gate k=%d (ratio %.2f)", delta, kU, kC, float64(kC)/float64(kU))
}

// TestExternalFlowsRaisePredictedCost: modeling co-tenant flows via
// CostScenario.External must strictly raise every contended algorithm's
// predicted time on a serialization-capped hierarchy, monotonically in the
// external count, while an empty or all-zero External prices identically
// to the sole-tenant scenario. Co-tenants are charged wherever a message
// crosses their level, also where the job itself has one participant per
// group (leader phases): the simulator rows below decide that rule, and the
// top phase must follow it in the split sends as in the butterfly stages.
func TestExternalFlowsRaisePredictedCost(t *testing.T) {
	h := simnet.DragonflyLike(4, 2)
	base := CostScenario{N: 1 << 16, P: 32, K: 1 << 12, Profile: simnet.AriesGlobal, Hier: &h}
	algs := []Algorithm{SSARRecDouble, SSARSplitAllgather, DSARSplitAllgather, HierSSAR, HierDSAR}
	for _, alg := range algs {
		sole := PredictSeconds(alg, base)
		zero := base
		zero.External = []int{0, 0, 0}
		if got := PredictSeconds(alg, zero); got != sole {
			t.Fatalf("%v: zero External changed the prediction: %g vs %g", alg, got, sole)
		}
		prev := sole
		for _, ext := range []int{4, 16, 64} {
			sc := base
			sc.External = []int{ext, ext, ext}
			got := PredictSeconds(alg, sc)
			if got <= prev {
				t.Fatalf("%v: External=%d predicted %g, want > %g", alg, ext, got, prev)
			}
			prev = got
		}
	}
	// Ingress caps compound with egress on the same crossed levels.
	capped := simnet.Hierarchy{Levels: append([]simnet.Level(nil), h.Levels...)}
	for i := range capped.Levels {
		capped.Levels[i].IngressSerial = capped.Levels[i].Serial
	}
	for _, alg := range algs {
		eg := base
		eg.External = []int{8, 8, 8}
		in := eg
		in.Hier = &capped
		if got, want := PredictSeconds(alg, in), PredictSeconds(alg, eg); got <= want {
			t.Fatalf("%v: ingress caps predicted %g, want > egress-only %g", alg, got, want)
		}
	}

	// Simulator rows: HierDSAR on the placed world with a constant activity
	// source reporting ext co-tenant flows beside the one leader on every
	// node egress. At depth 2 only the top phase leaves a node (two leaders
	// per group share the level-1 uplink) and the model is exact; at depth 3
	// the level-1 sweeps leave it too, and those the model does not charge
	// for co-tenants yet, so that row keeps the general band. The split-send
	// stage used to skip External at the levels a leader has to itself
	// (model/sim 0.76 at depth 2, 0.51 at depth 3, k = 4096).
	band := map[int]float64{2: 0.05, 3: 0.35}
	slots := make([]int, base.P)
	for i := range slots {
		slots[i] = i
	}
	for _, levels := range []int{2, 3} {
		surcharge := map[int]float64{}
		for _, k := range []int{1 << 8, 1 << 12} {
			rng := rand.New(rand.NewSource(int64(k)))
			inputs := make([]*stream.Vector, base.P)
			for r := range inputs {
				inputs[r] = randSparse(rng, base.N, k)
			}
			sc := base
			sc.K, sc.Levels = k, levels
			sole := PredictSeconds(HierDSAR, sc)
			for _, ext := range []int{8, 32} {
				w := comm.NewWorldPlaced(base.P, h, slots)
				w.SetActivitySource(egressFlows{1 + ext, 4 - levels, 1})
				comm.Run(w, func(p *comm.Proc) any {
					return Allreduce(p, inputs[p.Rank()], Options{Algorithm: HierDSAR, Levels: levels})
				})
				sc.External = []int{ext}
				model, sim := PredictSeconds(HierDSAR, sc), w.MaxTime()
				if r := math.Abs(model-sim) / sim; r > band[levels] {
					t.Errorf("depth %d k=%d External[0]=%d: model %.4gs vs sim %.4gs (model/sim %.2f)",
						levels, k, ext, model, sim, model/sim)
				}
				surcharge[k] = model - sole
			}
		}
		// The dense allgather's share of the surcharge does not depend on K;
		// the split-send slices do, so raising External[0] alone must cost
		// more the more non-zeros the leaders exchange.
		if lo, hi := surcharge[1<<8], surcharge[1<<12]; hi <= 1.01*lo {
			t.Errorf("depth %d: External[0] surcharge %.4gs at k=4096 vs %.4gs at k=256: the split-send term ignores co-tenants",
				levels, hi, lo)
		}
	}
}

// egressFlows is a constant comm.ActivitySource: element l is the flow count
// observed on every level-l group's egress; ingress is uncontended.
type egressFlows []int

func (e egressFlows) EgressFlows(_, level int) int { return e[level] }
func (e egressFlows) IngressFlows(_, _ int) int    { return 1 }
