package core

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/comm"
	"repro/internal/quant"
	"repro/internal/simnet"
	"repro/internal/stream"
)

var testTopo = simnet.TwoLevel(4, simnet.NVLinkLike, simnet.Aries, 0)

// TestHierSSARMatchesFlat is the acceptance-criterion correctness check:
// both SSAR algorithms at full depth on a topology world must produce
// bit-identical reductions to flat SSAR_Split_allgather on identical inputs
// (dyadic values make float addition exact, so any reduction order must
// agree bit-for-bit).
func TestHierSSARMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, tc := range []struct{ P, rpn int }{
		{8, 2}, {8, 4}, {16, 4}, {32, 4}, // divisible
		{6, 4}, {10, 4}, {7, 3}, // ragged last node
		{4, 4}, {3, 8}, // single node: degrades to flat intra-priced
		{5, 1}, // one rank per node: degrades to flat
	} {
		topo := simnet.TwoLevel(tc.rpn, simnet.NVLinkLike, simnet.Aries, 0)
		for _, pat := range patterns {
			n := 300 + rng.Intn(300)
			k := 1 + rng.Intn(n/6)
			inputs := pat.gen(rng, n, k, tc.P)

			flat := comm.NewWorld(tc.P, simnet.Aries)
			want := comm.Run(flat, func(p *comm.Proc) []float64 {
				return Allreduce(p, inputs[p.Rank()], Options{Algorithm: SSARSplitAllgather}).ToDense()
			})

			for _, alg := range []Algorithm{SSARRecDouble, SSARSplitAllgather} {
				w := comm.NewWorldHier(tc.P, topo)
				results := comm.Run(w, func(p *comm.Proc) []float64 {
					return Allreduce(p, inputs[p.Rank()], Options{Algorithm: alg, Levels: AllLevels}).ToDense()
				})
				for r, got := range results {
					for i := range want[0] {
						if got[i] != want[0][i] {
							t.Fatalf("P=%d rpn=%d pattern=%s %s rank=%d coord=%d: hier %g, flat %g",
								tc.P, tc.rpn, pat.name, alg, r, i, got[i], want[0][i])
						}
					}
				}
			}
		}
	}
}

// TestHierSSARBeatsFlatOnTopology is the acceptance-criterion performance
// check: on the 2-level topology named in the issue (P=32, 4 ranks/node,
// NVLink-like intra + Aries inter), SSAR_Split_allgather at full depth must
// beat the same algorithm run flat entirely on the inter-node profile.
func TestHierSSARBeatsFlatOnTopology(t *testing.T) {
	const (
		P       = 32
		n       = 1 << 20
		density = 1e-4
	)
	rng := rand.New(rand.NewSource(5))
	nf := float64(n)
	k := int(density * nf)
	inputs := make([]*stream.Vector, P)
	for r := range inputs {
		inputs[r] = randSparse(rng, n, k)
	}

	flat := comm.NewWorld(P, simnet.Aries)
	comm.Run(flat, func(p *comm.Proc) any {
		return Allreduce(p, inputs[p.Rank()], Options{Algorithm: SSARSplitAllgather})
	})
	flatTime := flat.MaxTime()

	w := comm.NewWorldHier(P, testTopo)
	comm.Run(w, func(p *comm.Proc) any {
		return Allreduce(p, inputs[p.Rank()], Options{Algorithm: SSARSplitAllgather, Levels: AllLevels})
	})
	hierTime := w.MaxTime()

	if hierTime <= 0 || flatTime <= 0 {
		t.Fatal("simulated times must be positive")
	}
	if hierTime >= flatTime {
		t.Fatalf("depth 2 (%.2fµs) must beat flat SSAR_Split_allgather (%.2fµs) on a 2-level topology",
			hierTime*1e6, flatTime*1e6)
	}
	t.Logf("P=%d n=%d d=%g: hier %.2fµs vs flat %.2fµs (%.2fx)",
		P, n, density, hierTime*1e6, flatTime*1e6, flatTime/hierTime)
}

// TestHierSSARFlatFallback: asking for the full depth on a world with no
// topology must still be correct (it is the flat algorithm).
func TestHierSSARFlatFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, P := range []int{1, 2, 5, 8} {
		inputs := patterns[0].gen(rng, 400, 30, P)
		want := refSum(inputs)
		for _, alg := range []Algorithm{SSARRecDouble, SSARSplitAllgather} {
			results := runAllreduce(t, P, inputs, Options{Algorithm: alg, Levels: AllLevels})
			for r, res := range results {
				got := res.ToDense()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("P=%d %s rank=%d coord=%d: got %g want %g", P, alg, r, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// contendedTopo is testTopo with a fully serializing per-node NIC cap.
var contendedTopo = simnet.TwoLevel(4, simnet.NVLinkLike, simnet.Aries, 1)

// TestAutoCostModelOnTopology: Auto must pick by modeled cost, not by
// topology presence — hierarchical when the NIC cap (or the latency
// structure) makes it cheapest, flat when the flat algorithm genuinely
// wins — and the result must stay correct on ragged node sizes.
func TestAutoCostModelOnTopology(t *testing.T) {
	// Latency-bound sparse instance on a NIC-capped topology: the flat
	// split/rec-double phases pay the contention factor, the hierarchical
	// leader phase (one flow per node) does not → an SSAR at depth 2.
	w := comm.NewWorldHier(32, contendedTopo)
	comm.Run(w, func(p *comm.Proc) any {
		v := randSparse(rand.New(rand.NewSource(int64(p.Rank()))), 1<<20, 100)
		if got, levels, _ := resolve(p, v, Options{}, p.NextTagBase()); got == DSARSplitAllgather || levels != 2 {
			panic("Auto on a contended topology should resolve to an SSAR at depth 2, got " + ChoiceName(got, levels))
		}
		return nil
	})

	// Tiny instance on an uncontended topology: flat rec-double's first
	// stages are already intra-priced and it skips the hierarchical
	// broadcast entirely, so it is empirically cheaper — the old
	// topology-presence heuristic would have gone hierarchical here.
	tiny := comm.NewWorldHier(8, testTopo)
	comm.Run(tiny, func(p *comm.Proc) any {
		v := randSparse(rand.New(rand.NewSource(int64(p.Rank()))), 1000, 20)
		if got, levels, _ := resolve(p, v, Options{}, p.NextTagBase()); got != SSARRecDouble || levels != 0 {
			panic("Auto on a tiny uncontended instance should resolve to flat SSARRecDouble, got " + ChoiceName(got, levels))
		}
		return nil
	})

	// Single-node topology: no hierarchy to exploit, flat cost comparison.
	single := comm.NewWorldHier(4, testTopo)
	comm.Run(single, func(p *comm.Proc) any {
		v := randSparse(rand.New(rand.NewSource(int64(p.Rank()))), 1<<20, 100)
		if got, levels, _ := resolve(p, v, Options{}, p.NextTagBase()); got != SSARRecDouble || levels != 0 {
			panic("Auto on a single-node topology should price flat algorithms, got " + ChoiceName(got, levels))
		}
		return nil
	})

	// Dense regime on a NIC-capped topology: the dense allgather volume
	// through a serialized NIC is what hurts, so DSAR at depth 2 (one flow
	// per node) wins — the old heuristic always chose flat DSAR.
	denseNIC := comm.NewWorldHier(16, contendedTopo)
	comm.Run(denseNIC, func(p *comm.Proc) any {
		v := randSparse(rand.New(rand.NewSource(int64(p.Rank()))), 1<<16, 40000)
		if got, levels, _ := resolve(p, v, Options{}, p.NextTagBase()); got != DSARSplitAllgather || levels != 2 {
			panic("Auto in the contended dense regime should resolve to DSAR at depth 2, got " + ChoiceName(got, levels))
		}
		return nil
	})

	// Dense regime without contention: flat DSAR stays cheapest (the
	// depth-2 run pays an extra dense intra-node broadcast).
	denseW := comm.NewWorldHier(16, testTopo)
	comm.Run(denseW, func(p *comm.Proc) any {
		v := randSparse(rand.New(rand.NewSource(int64(p.Rank()))), 1<<16, 40000)
		if got, levels, _ := resolve(p, v, Options{}, p.NextTagBase()); got != DSARSplitAllgather || levels != 0 {
			panic("Auto in the uncontended dense regime should resolve to flat DSAR, got " + ChoiceName(got, levels))
		}
		return nil
	})

	// End-to-end on ragged worlds under Auto, with and without contention.
	for _, topo := range []simnet.Hierarchy{testTopo, contendedTopo} {
		rng := rand.New(rand.NewSource(23))
		P := 10
		inputs := patterns[0].gen(rng, 500, 40, P)
		want := refSum(inputs)
		wr := comm.NewWorldHier(P, topo)
		results := comm.Run(wr, func(p *comm.Proc) *stream.Vector {
			return Allreduce(p, inputs[p.Rank()], Options{})
		})
		for r, res := range results {
			got := res.ToDense()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("Auto nic=%d P=%d rank=%d coord=%d: got %g want %g",
						topo.Levels[0].Serial, P, r, i, got[i], want[i])
				}
			}
		}
	}
}

// TestLeaderPhaseRunsPinnedAlgorithm: at depth 2 the leaders' top phase is
// the pinned algorithm itself, whatever the data size — there is no size
// agreement and no size rule. 4 nodes of 4 ranks spend 12 messages on each
// sweep, so every algorithm sends 24 plus what it sends flat on a world of
// the 4 leaders, at a leader accumulation below and above 64 KiB on the
// wire; and every result is the exact sum.
func TestLeaderPhaseRunsPinnedAlgorithm(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const P = 16
	for alg := SSARRecDouble; alg <= RingSparse; alg++ {
		leaders := comm.NewWorld(4, simnet.Aries)
		comm.Run(leaders, func(p *comm.Proc) any {
			return Allreduce(p, randSparse(rand.New(rand.NewSource(int64(p.Rank()))), 2000, 100), Options{Algorithm: alg})
		})
		for _, size := range []struct{ n, k int }{
			{2000, 100},    // ≤ 2000 non-zeros per leader: 24 KB on the wire
			{100000, 3000}, // ~11.6k non-zeros per leader: ~140 KB
		} {
			inputs := patterns[0].gen(rng, size.n, size.k, P)
			want := refSum(inputs)
			w := comm.NewWorldHier(P, testTopo)
			results := comm.Run(w, func(p *comm.Proc) *stream.Vector {
				return Allreduce(p, inputs[p.Rank()], Options{Algorithm: alg, Levels: 2})
			})
			if got, flat := w.TotalMessages(), leaders.TotalMessages(); got != 24+flat {
				t.Fatalf("%s n=%d k=%d: %d messages, want 24 + %d (the leaders' phase is not %s)",
					alg, size.n, size.k, got, flat, alg)
			}
			for r, res := range results {
				got := res.ToDense()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s n=%d k=%d rank=%d coord=%d: got %g want %g", alg, size.n, size.k, r, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestHierDSARMatchesFlatDSAR: DSAR at full depth must produce bit-identical dense
// reductions to flat DSAR_Split_allgather on identical inputs, across
// divisible, ragged, degenerate, and NIC-contended node shapes (contention
// only reprices messages; data must be untouched).
func TestHierDSARMatchesFlatDSAR(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for _, tc := range []struct{ P, rpn, nic int }{
		{8, 2, 0}, {8, 4, 0}, {16, 4, 0}, {32, 4, 1}, // divisible
		{6, 4, 0}, {10, 4, 1}, {7, 3, 2}, // ragged last node
		{4, 4, 0}, {3, 8, 0}, // single node: degrades to flat DSAR
		{5, 1, 0}, // one rank per node: degrades to flat DSAR
	} {
		topo := simnet.TwoLevel(tc.rpn, simnet.NVLinkLike, simnet.Aries, tc.nic)
		for _, pat := range patterns {
			n := 300 + rng.Intn(300)
			k := 1 + rng.Intn(n/6)
			inputs := pat.gen(rng, n, k, tc.P)

			flat := comm.NewWorld(tc.P, simnet.Aries)
			want := comm.Run(flat, func(p *comm.Proc) []float64 {
				return Allreduce(p, inputs[p.Rank()], Options{Algorithm: DSARSplitAllgather}).ToDense()
			})

			w := comm.NewWorldHier(tc.P, topo)
			results := comm.Run(w, func(p *comm.Proc) *stream.Vector {
				return Allreduce(p, inputs[p.Rank()], Options{Algorithm: DSARSplitAllgather, Levels: AllLevels})
			})
			for r, res := range results {
				if !res.IsDense() {
					t.Fatalf("P=%d rpn=%d rank=%d: DSAR at full depth must return a dense vector", tc.P, tc.rpn, r)
				}
				got := res.ToDense()
				for i := range want[0] {
					if got[i] != want[0][i] {
						t.Fatalf("P=%d rpn=%d nic=%d pattern=%s rank=%d coord=%d: hier %g, flat %g",
							tc.P, tc.rpn, tc.nic, pat.name, r, i, got[i], want[0][i])
					}
				}
			}
		}
	}
}

// TestHierDSARQuantizedConsistent: with QSGD enabled, every rank must
// decode the same bytes (each node partition is quantized once, by its
// owning leader), so all replicas stay bit-identical even though the
// values are lossy.
func TestHierDSARQuantizedConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, P := range []int{8, 10} {
		inputs := make([]*stream.Vector, P)
		for r := range inputs {
			inputs[r] = randSparse(rng, 4096, 600)
		}
		w := comm.NewWorldHier(P, testTopo)
		results := comm.Run(w, func(p *comm.Proc) *stream.Vector {
			return Allreduce(p, inputs[p.Rank()], Options{
				Algorithm: DSARSplitAllgather,
				Levels:    AllLevels,
				Quant:     &quant.Config{Bits: 4, Bucket: 512, Norm: quant.NormMax},
				Seed:      9,
			})
		})
		for r := 1; r < P; r++ {
			if !results[r].Equal(results[0]) {
				t.Fatalf("P=%d: rank %d quantized result differs from rank 0", P, r)
			}
		}
		// The quantized result must still approximate the true sum.
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

// TestHierDSARBeatsFlatUnderContention is the tentpole performance check:
// in the dense regime on a NIC-serialized topology, DSAR at depth 2 must
// beat flat DSAR in simulated time on the same world — the flat dense
// allgather pushes rpn concurrent flows through each NIC while the leaders'
// top phase pushes one.
func TestHierDSARBeatsFlatUnderContention(t *testing.T) {
	const P, n, k = 16, 1 << 16, 40000
	rng := rand.New(rand.NewSource(5))
	inputs := make([]*stream.Vector, P)
	for r := range inputs {
		inputs[r] = randSparse(rng, n, k)
	}
	times := map[int]float64{}
	for _, levels := range []int{0, 2} {
		w := comm.NewWorldHier(P, contendedTopo)
		comm.Run(w, func(p *comm.Proc) any {
			return Allreduce(p, inputs[p.Rank()], Options{Algorithm: DSARSplitAllgather, Levels: levels})
		})
		times[levels] = w.MaxTime()
	}
	if times[2] <= 0 || times[0] <= 0 {
		t.Fatal("simulated times must be positive")
	}
	if times[2] >= times[0] {
		t.Fatalf("DSAR at depth 2 (%.2fµs) must beat flat DSAR (%.2fµs) under NIC contention",
			times[2]*1e6, times[0]*1e6)
	}
	t.Logf("P=%d n=%d k=%d nic=1: hier %.2fµs vs flat %.2fµs (%.2fx)", P, n, k,
		times[2]*1e6, times[0]*1e6, times[0]/times[2])
}

// TestHierSSARMessageLocality: counted off the obs send spans, every
// phase-2 message must connect leader ranks and the bulk direct-exchange
// latency must be paid by only nodes−1 inter-node partners per leader,
// not P−1.
func TestHierSSARInterNodeMessageCount(t *testing.T) {
	const P = 16
	rng := rand.New(rand.NewSource(41))
	inputs := patterns[0].gen(rng, 1000, 30, P)

	countInter := func(w *comm.World, levels int) int {
		hub := w.EnableObservability()
		comm.Run(w, func(p *comm.Proc) any {
			return Allreduce(p, inputs[p.Rank()], Options{Algorithm: SSARSplitAllgather, Levels: levels})
		})
		inter := 0
		for _, s := range sendSpans(hub) {
			dst, _ := strconv.Atoi(s.Attr("dst"))
			if testTopo.SharedLevel(s.Rank, dst) != 0 {
				inter++
			}
		}
		return inter
	}

	flatInter := countInter(comm.NewWorld(P, simnet.Aries), 0)
	hierInter := countInter(comm.NewWorldHier(P, testTopo), AllLevels)
	if hierInter >= flatInter {
		t.Fatalf("hier must send fewer inter-node messages: hier=%d flat=%d", hierInter, flatInter)
	}
	t.Logf("inter-node messages: hier=%d flat=%d", hierInter, flatInter)
}
