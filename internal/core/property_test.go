package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// Randomized differential test: on arbitrary instances (random dimension,
// node count, per-rank densities, representation mix), all lossless
// algorithms must agree bit-for-bit with each other and with the
// sequential reference. This is the strongest single correctness statement
// about the collectives, complementing the fixed adversarial patterns.
func TestQuickAllAlgorithmsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		P := 2 + rng.Intn(7) // 2..8, includes non-powers of two
		n := 50 + rng.Intn(400)
		inputs := make([]*stream.Vector, P)
		for r := range inputs {
			k := rng.Intn(n/2 + 1)
			inputs[r] = randSparse(rng, n, k)
			if rng.Intn(3) == 0 {
				inputs[r].Densify()
			}
		}
		want := refSum(inputs)
		for _, alg := range allAlgorithms {
			w := comm.NewWorld(P, testProfile)
			results := comm.Run(w, func(p *comm.Proc) *stream.Vector {
				return Allreduce(p, inputs[p.Rank()], Options{Algorithm: alg})
			})
			for _, res := range results {
				got := res.ToDense()
				for i := range want {
					if got[i] != want[i] {
						t.Logf("seed=%d P=%d n=%d alg=%s coord=%d: got %g want %g",
							seed, P, n, alg, i, got[i], want[i])
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestCrossAlgorithmEquivalence is the table-driven equivalence check: for
// every Algorithm, flat and at full depth, on flat and on topology worlds,
// the same randomized sparse inputs across several world sizes must
// produce bit-identical reductions on every rank. Values are dyadic
// rationals, so float addition is exact and any reduction order must agree
// bit-for-bit with the sequential reference.
func TestCrossAlgorithmEquivalence(t *testing.T) {
	worlds := []struct {
		name string
		P    int
		mk   func(P int) *comm.World
	}{
		{"flat/P=2", 2, func(P int) *comm.World { return comm.NewWorld(P, testProfile) }},
		{"flat/P=5", 5, func(P int) *comm.World { return comm.NewWorld(P, testProfile) }},
		{"flat/P=8", 8, func(P int) *comm.World { return comm.NewWorld(P, testProfile) }},
		{"topo/P=8/rpn=4", 8, func(P int) *comm.World { return comm.NewWorldHier(P, testTopo) }},
		{"topo/P=16/rpn=4", 16, func(P int) *comm.World { return comm.NewWorldHier(P, testTopo) }},
		{"topo/P=10/rpn=4", 10, func(P int) *comm.World { return comm.NewWorldHier(P, testTopo) }},
		// NIC-contention worlds: the serialization cap reprices inter-node
		// bandwidth but must never change any reduction bit, including on
		// ragged node counts.
		{"nic/P=16/rpn=4", 16, func(P int) *comm.World { return comm.NewWorldHier(P, contendedTopo) }},
		{"nic/P=10/rpn=4", 10, func(P int) *comm.World { return comm.NewWorldHier(P, contendedTopo) }},
		{"nic/P=7/rpn=3", 7, func(P int) *comm.World {
			return comm.NewWorldHier(P, simnet.TwoLevel(3, simnet.NVLinkLike, simnet.Aries, 2))
		}},
		// Three-level hierarchy worlds (nodes of 3 in groups of 2, capped
		// egress at both tiers): divisible, ragged last node, ragged last
		// group, and ragged at every tier. The per-level serialization
		// reprices bandwidth but must never change any reduction bit.
		{"hier3/P=12", 12, func(P int) *comm.World { return comm.NewWorldHier(P, testHier3) }},
		{"hier3/P=13/ragged-node", 13, func(P int) *comm.World { return comm.NewWorldHier(P, testHier3) }},
		{"hier3/P=9/ragged-group", 9, func(P int) *comm.World { return comm.NewWorldHier(P, testHier3) }},
		{"hier3/P=17/ragged-both", 17, func(P int) *comm.World { return comm.NewWorldHier(P, testHier3) }},
	}
	rng := rand.New(rand.NewSource(12345))
	for _, wc := range worlds {
		t.Run(wc.name, func(t *testing.T) {
			for trial := 0; trial < 3; trial++ {
				n := 100 + rng.Intn(500)
				inputs := make([]*stream.Vector, wc.P)
				for r := range inputs {
					inputs[r] = randSparse(rng, n, rng.Intn(n/3+1))
					if rng.Intn(4) == 0 {
						inputs[r].Densify()
					}
				}
				want := refSum(inputs)
				for _, alg := range allAlgorithms {
					for _, levels := range []int{0, AllLevels} {
						w := wc.mk(wc.P)
						results := comm.Run(w, func(p *comm.Proc) *stream.Vector {
							return Allreduce(p, inputs[p.Rank()], Options{Algorithm: alg, Levels: levels})
						})
						for r, res := range results {
							got := res.ToDense()
							for i := range want {
								if got[i] != want[i] {
									t.Fatalf("trial=%d n=%d alg=%s levels=%d rank=%d coord=%d: got %g want %g",
										trial, n, alg, levels, r, i, got[i], want[i])
								}
							}
						}
					}
				}
			}
		})
	}
}

// Randomized timing sanity: simulated completion time is identical across
// repeated runs of the same instance (determinism of the virtual clock),
// and strictly positive whenever any communication happens.
func TestQuickSimulatedTimeDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		P := 2 + rng.Intn(6)
		n := 100 + rng.Intn(1000)
		inputs := make([]*stream.Vector, P)
		for r := range inputs {
			inputs[r] = randSparse(rng, n, 1+rng.Intn(20))
		}
		alg := allAlgorithms[rng.Intn(len(allAlgorithms))]
		times := make([]float64, 2)
		for trial := range times {
			w := comm.NewWorld(P, testProfile)
			comm.Run(w, func(p *comm.Proc) any {
				return Allreduce(p, inputs[p.Rank()], Options{Algorithm: alg})
			})
			times[trial] = w.MaxTime()
		}
		return times[0] == times[1] && times[0] > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
