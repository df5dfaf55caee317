package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/quant"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// testHier3 is a 3-ranks/node, 2-nodes/group three-tier test hierarchy
// with egress caps at both grouped levels.
var testHier3 = simnet.Hierarchy{Levels: []simnet.Level{
	{GroupSize: 3, Profile: simnet.NVLinkLike, Serial: 1},
	{GroupSize: 2, Profile: simnet.Aries, Serial: 1},
	{Profile: simnet.AriesGlobal},
}}

// TestHierRecursiveMatchesFlatOn3Levels is the tentpole acceptance check:
// the three priced algorithms at full depth on a 3-level world must produce
// bit-identical reductions to the flat algorithms on identical inputs
// (dyadic values make float addition exact), across divisible shapes and
// ragged tails at every tier — last node short, last group short, both.
func TestHierRecursiveMatchesFlatOn3Levels(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for _, P := range []int{
		12, 24, // divisible: full nodes, full groups
		13, 17, // ragged last node (and last group)
		15, 21, // full nodes, ragged last group
		7,       // a single ragged group
		5, 3, 2, // degenerate: fewer ranks than one group or one node
	} {
		for _, pat := range patterns {
			n := 300 + rng.Intn(300)
			k := 1 + rng.Intn(n/6)
			inputs := pat.gen(rng, n, k, P)

			flat := comm.NewWorld(P, simnet.Aries)
			wantS := comm.Run(flat, func(p *comm.Proc) []float64 {
				return Allreduce(p, inputs[p.Rank()], Options{Algorithm: SSARSplitAllgather}).ToDense()
			})
			flatD := comm.NewWorld(P, simnet.Aries)
			wantD := comm.Run(flatD, func(p *comm.Proc) []float64 {
				return Allreduce(p, inputs[p.Rank()], Options{Algorithm: DSARSplitAllgather}).ToDense()
			})

			for alg, want := range map[Algorithm][][]float64{SSARRecDouble: wantS, SSARSplitAllgather: wantS, DSARSplitAllgather: wantD} {
				w := comm.NewWorldHier(P, testHier3)
				results := comm.Run(w, func(p *comm.Proc) []float64 {
					return Allreduce(p, inputs[p.Rank()], Options{Algorithm: alg, Levels: AllLevels}).ToDense()
				})
				for r, got := range results {
					for i := range want[0] {
						if got[i] != want[0][i] {
							t.Fatalf("P=%d pattern=%s alg=%s rank=%d coord=%d: hier %g, flat %g",
								P, pat.name, alg, r, i, got[i], want[0][i])
						}
					}
				}
			}
		}
	}
}

// TestHierLevelsOptionTruncates: Options.Levels must truncate the
// recursion depth without changing the result, and on a Dragonfly-like
// machine with constrained top-level links the full 3-level scheme must
// beat both the 2-level truncation and flat at P = 64.
func TestHierLevelsOptionTruncates(t *testing.T) {
	const P = 64
	h := simnet.DragonflyLike(4, 4)
	rng := rand.New(rand.NewSource(11))
	inputs := patterns[0].gen(rng, 1<<16, 400, P)
	want := refSum(inputs)

	times := map[int]float64{}
	for _, levels := range []int{1, 2, 3} {
		w := comm.NewWorldHier(P, h)
		results := comm.Run(w, func(p *comm.Proc) []float64 {
			return Allreduce(p, inputs[p.Rank()], Options{Algorithm: SSARSplitAllgather, Levels: levels}).ToDense()
		})
		for r, got := range results {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("levels=%d rank=%d coord=%d: got %g want %g", levels, r, i, got[i], want[i])
				}
			}
		}
		times[levels] = w.MaxTime()
	}
	if times[3] >= times[2] || times[3] >= times[1] {
		t.Fatalf("3-level scheme (%.2fµs) must beat 2-level (%.2fµs) and flat (%.2fµs) on DragonflyLike at P=%d",
			times[3]*1e6, times[2]*1e6, times[1]*1e6, P)
	}
	t.Logf("P=%d: flat %.2fµs, 2-level %.2fµs, 3-level %.2fµs", P,
		times[1]*1e6, times[2]*1e6, times[3]*1e6)
}

// TestAutoPicksDepthOnDragonfly: on the DragonflyLike preset Auto must
// resolve to the algorithm and depth the level-aware model prices
// cheapest — a hierarchical one — and the end-to-end Auto allreduce must
// stay correct, including on worlds with ragged tiers.
func TestAutoPicksDepthOnDragonfly(t *testing.T) {
	h := simnet.DragonflyLike(4, 4)
	s := CostScenario{N: 1 << 20, P: 64, K: 104, Profile: simnet.AriesGlobal, Hier: &h}
	alg, levels, _ := ChooseAutoLevels(s)
	if levels < 2 {
		t.Fatalf("sparse regime on DragonflyLike should resolve hierarchical, got %s", ChoiceName(alg, levels))
	}
	cheapest, cheapestT := "", math.Inf(1)
	for _, a := range []Algorithm{SSARRecDouble, SSARSplitAllgather} {
		for _, d := range []int{0, 2, 3} {
			sc := s
			sc.Levels = d
			if pt := PredictSeconds(a, sc); pt < cheapestT {
				cheapest, cheapestT = ChoiceName(a, d), pt
			}
		}
	}
	if got := ChoiceName(alg, levels); got != cheapest {
		t.Fatalf("Auto picked %s but the model prices %s cheapest", got, cheapest)
	}

	dense := CostScenario{N: 1 << 16, P: 64, K: 40000, Profile: simnet.AriesGlobal, Hier: &h}
	if alg, lv, _ := ChooseAutoLevels(dense); alg != DSARSplitAllgather || lv != 3 {
		t.Fatalf("dense regime on DragonflyLike should resolve to DSAR at depth 3, got %s", ChoiceName(alg, lv))
	}

	for _, P := range []int{64, 27} { // divisible and ragged at both tiers
		rng := rand.New(rand.NewSource(int64(P)))
		inputs := patterns[0].gen(rng, 2000, 80, P)
		want := refSum(inputs)
		w := comm.NewWorldHier(P, h)
		results := comm.Run(w, func(p *comm.Proc) []float64 {
			return Allreduce(p, inputs[p.Rank()], Options{}).ToDense()
		})
		for r, got := range results {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("Auto P=%d rank=%d coord=%d: got %g want %g", P, r, i, got[i], want[i])
				}
			}
		}
	}
}

// TestHierDSARQuantizedConsistentOn3Levels: QSGD through the 3-level
// recursion must keep every rank bit-identical (each top-leader partition
// is encoded once) and still approximate the true sum.
func TestHierDSARQuantizedConsistentOn3Levels(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for _, P := range []int{12, 14} {
		inputs := make([]*stream.Vector, P)
		for r := range inputs {
			inputs[r] = randSparse(rng, 4096, 600)
		}
		w := comm.NewWorldHier(P, testHier3)
		results := comm.Run(w, func(p *comm.Proc) *stream.Vector {
			return Allreduce(p, inputs[p.Rank()], Options{
				Algorithm: DSARSplitAllgather,
				Levels:    AllLevels,
				Quant:     &quant.Config{Bits: 4, Bucket: 512, Norm: quant.NormMax},
				Seed:      13,
			})
		})
		for r := 1; r < P; r++ {
			if !results[r].Equal(results[0]) {
				t.Fatalf("P=%d: rank %d quantized result differs from rank 0", P, r)
			}
		}
		want := refSum(inputs)
		got := results[0].ToDense()
		var num, den float64
		for i := range want {
			num += (got[i] - want[i]) * (got[i] - want[i])
			den += want[i] * want[i]
		}
		if den == 0 || num/den > 0.05 {
			t.Fatalf("P=%d: quantized relative squared error %g too large", P, num/den)
		}
	}
}

// TestHierInterGroupMessageLocality: counted off the obs send spans of a
// 3-level world, the recursive scheme must send strictly fewer top-level
// (global) messages than the 2-level truncation, which in turn sends fewer
// than flat — the locality the recursion exists to create.
func TestHierInterGroupMessageLocality(t *testing.T) {
	const P = 24
	rng := rand.New(rand.NewSource(43))
	inputs := patterns[0].gen(rng, 1000, 30, P)

	countGlobal := func(levels int) int {
		w := comm.NewWorldHier(P, testHier3)
		hub := w.EnableObservability()
		comm.Run(w, func(p *comm.Proc) any {
			return Allreduce(p, inputs[p.Rank()], Options{Algorithm: SSARSplitAllgather, Levels: levels})
		})
		global := 0
		for _, s := range sendSpans(hub) {
			if s.Attr("level") == "2" {
				global++
			}
		}
		return global
	}

	flat, two, three := countGlobal(1), countGlobal(2), countGlobal(3)
	if !(three < two && two < flat) {
		t.Fatalf("global message counts must shrink with depth: flat=%d 2-level=%d 3-level=%d", flat, two, three)
	}
	t.Logf("global messages: flat=%d, 2-level=%d, 3-level=%d", flat, two, three)
}
