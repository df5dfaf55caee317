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
// HierSSAR on a topology world must produce bit-identical reductions to
// flat SSAR_Split_allgather on identical inputs (dyadic values make float
// addition exact, so any reduction order must agree bit-for-bit).
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

			w := comm.NewWorldHier(tc.P, topo)
			results := comm.Run(w, func(p *comm.Proc) []float64 {
				return Allreduce(p, inputs[p.Rank()], Options{Algorithm: HierSSAR}).ToDense()
			})
			for r, got := range results {
				for i := range want[0] {
					if got[i] != want[0][i] {
						t.Fatalf("P=%d rpn=%d pattern=%s rank=%d coord=%d: hier %g, flat %g",
							tc.P, tc.rpn, pat.name, r, i, got[i], want[0][i])
					}
				}
			}
		}
	}
}

// TestHierSSARBeatsFlatOnTopology is the acceptance-criterion performance
// check: on the 2-level topology named in the issue (P=32, 4 ranks/node,
// NVLink-like intra + Aries inter), HierSSAR's simulated time must beat
// flat SSAR_Split_allgather run entirely on the inter-node profile.
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
		return Allreduce(p, inputs[p.Rank()], Options{Algorithm: HierSSAR})
	})
	hierTime := w.MaxTime()

	if hierTime <= 0 || flatTime <= 0 {
		t.Fatal("simulated times must be positive")
	}
	if hierTime >= flatTime {
		t.Fatalf("HierSSAR (%.2fµs) must beat flat SSAR_Split_allgather (%.2fµs) on a 2-level topology",
			hierTime*1e6, flatTime*1e6)
	}
	t.Logf("P=%d n=%d d=%g: hier %.2fµs vs flat %.2fµs (%.2fx)",
		P, n, density, hierTime*1e6, flatTime*1e6, flatTime/hierTime)
}

// TestHierSSARFlatFallback: requesting HierSSAR on a world with no
// topology must still be correct (degrades to split allgather).
func TestHierSSARFlatFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, P := range []int{1, 2, 5, 8} {
		inputs := patterns[0].gen(rng, 400, 30, P)
		want := refSum(inputs)
		results := runAllreduce(t, P, inputs, Options{Algorithm: HierSSAR})
		for r, res := range results {
			got := res.ToDense()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("P=%d rank=%d coord=%d: got %g want %g", P, r, i, got[i], want[i])
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
	// leader phase (one flow per node) does not → HierSSAR.
	w := comm.NewWorldHier(32, contendedTopo)
	comm.Run(w, func(p *comm.Proc) any {
		v := randSparse(rand.New(rand.NewSource(int64(p.Rank()))), 1<<20, 100)
		if got, _, _ := resolve(p, v, Options{}, p.NextTagBase()); got != HierSSAR {
			panic("Auto on a contended topology should resolve to HierSSAR, got " + got.String())
		}
		return nil
	})

	// Tiny instance on an uncontended topology: flat rec-double's first
	// stages are already intra-priced and it skips the hierarchical
	// broadcast entirely, so it is empirically cheaper — the old
	// topology-presence heuristic would have picked HierSSAR here.
	tiny := comm.NewWorldHier(8, testTopo)
	comm.Run(tiny, func(p *comm.Proc) any {
		v := randSparse(rand.New(rand.NewSource(int64(p.Rank()))), 1000, 20)
		if got, _, _ := resolve(p, v, Options{}, p.NextTagBase()); got != SSARRecDouble {
			panic("Auto on a tiny uncontended instance should resolve to SSARRecDouble, got " + got.String())
		}
		return nil
	})

	// Single-node topology: no hierarchy to exploit, flat cost comparison.
	single := comm.NewWorldHier(4, testTopo)
	comm.Run(single, func(p *comm.Proc) any {
		v := randSparse(rand.New(rand.NewSource(int64(p.Rank()))), 1<<20, 100)
		if got, _, _ := resolve(p, v, Options{}, p.NextTagBase()); got != SSARRecDouble {
			panic("Auto on a single-node topology should price flat algorithms, got " + got.String())
		}
		return nil
	})

	// Dense regime on a NIC-capped topology: the dense allgather volume
	// through a serialized NIC is what hurts, so the hierarchical DSAR
	// (one flow per node) wins — the old heuristic always chose flat DSAR.
	denseNIC := comm.NewWorldHier(16, contendedTopo)
	comm.Run(denseNIC, func(p *comm.Proc) any {
		v := randSparse(rand.New(rand.NewSource(int64(p.Rank()))), 1<<16, 40000)
		if got, _, _ := resolve(p, v, Options{}, p.NextTagBase()); got != HierDSAR {
			panic("Auto in the contended dense regime should resolve to HierDSAR, got " + got.String())
		}
		return nil
	})

	// Dense regime without contention: flat DSAR stays cheapest (the
	// hierarchical variant pays an extra dense intra-node broadcast).
	denseW := comm.NewWorldHier(16, testTopo)
	comm.Run(denseW, func(p *comm.Proc) any {
		v := randSparse(rand.New(rand.NewSource(int64(p.Rank()))), 1<<16, 40000)
		if got, _, _ := resolve(p, v, Options{}, p.NextTagBase()); got != DSARSplitAllgather {
			panic("Auto in the uncontended dense regime should resolve to DSAR, got " + got.String())
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

// TestHierSSARLeaderPhaseSelectsBySize: leader accumulations within
// DefaultSmallDataBytes on the wire must take the recursive-doubling
// leader phase, larger ones the split allgather; both must be correct. The
// input size carries the agreed size across the boundary, and the message
// count tells the branches apart: 4 nodes of 4 ranks spend 12 messages on
// each sweep and 8 on the leaders' size agreement, then 8 on recursive
// doubling or 12 + 8 on split + allgather.
func TestHierSSARLeaderPhaseSelectsBySize(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	P := 16
	for _, tc := range []struct {
		n, k int
		msgs int64
	}{
		{2000, 100, 40},    // ≤ 2000 non-zeros per leader: 24 KB on the wire
		{100000, 3000, 52}, // ~11.6k non-zeros per leader: ~140 KB
	} {
		inputs := patterns[0].gen(rng, tc.n, tc.k, P)
		want := refSum(inputs)
		w := comm.NewWorldHier(P, testTopo)
		results := comm.Run(w, func(p *comm.Proc) *stream.Vector {
			return Allreduce(p, inputs[p.Rank()], Options{Algorithm: HierSSAR})
		})
		if got := w.TotalMessages(); got != tc.msgs {
			t.Fatalf("n=%d k=%d: %d messages, want %d (wrong leader phase)", tc.n, tc.k, got, tc.msgs)
		}
		for r, res := range results {
			got := res.ToDense()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d k=%d rank=%d coord=%d: got %g want %g", tc.n, tc.k, r, i, got[i], want[i])
				}
			}
		}
	}
}

// TestHierDSARMatchesFlatDSAR: HierDSAR must produce bit-identical dense
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
				return Allreduce(p, inputs[p.Rank()], Options{Algorithm: HierDSAR})
			})
			for r, res := range results {
				if !res.IsDense() {
					t.Fatalf("P=%d rpn=%d rank=%d: HierDSAR must return a dense vector", tc.P, tc.rpn, r)
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
				Algorithm: HierDSAR,
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
// in the dense regime on a NIC-serialized topology, HierDSAR's simulated
// time must beat flat DSAR on the same world — the flat dense allgather
// pushes rpn concurrent flows through each NIC while the hierarchical
// variant pushes one.
func TestHierDSARBeatsFlatUnderContention(t *testing.T) {
	const P, n, k = 16, 1 << 16, 40000
	rng := rand.New(rand.NewSource(5))
	inputs := make([]*stream.Vector, P)
	for r := range inputs {
		inputs[r] = randSparse(rng, n, k)
	}
	times := map[Algorithm]float64{}
	for _, alg := range []Algorithm{DSARSplitAllgather, HierDSAR} {
		w := comm.NewWorldHier(P, contendedTopo)
		comm.Run(w, func(p *comm.Proc) any {
			return Allreduce(p, inputs[p.Rank()], Options{Algorithm: alg})
		})
		times[alg] = w.MaxTime()
	}
	if times[HierDSAR] <= 0 || times[DSARSplitAllgather] <= 0 {
		t.Fatal("simulated times must be positive")
	}
	if times[HierDSAR] >= times[DSARSplitAllgather] {
		t.Fatalf("HierDSAR (%.2fµs) must beat flat DSAR (%.2fµs) under NIC contention",
			times[HierDSAR]*1e6, times[DSARSplitAllgather]*1e6)
	}
	t.Logf("P=%d n=%d k=%d nic=1: hier %.2fµs vs flat %.2fµs (%.2fx)", P, n, k,
		times[HierDSAR]*1e6, times[DSARSplitAllgather]*1e6,
		times[DSARSplitAllgather]/times[HierDSAR])
}

// TestHierSSARMessageLocality: counted off the obs send spans, every
// phase-2 message must connect leader ranks and the bulk direct-exchange
// latency must be paid by only nodes−1 inter-node partners per leader,
// not P−1.
func TestHierSSARInterNodeMessageCount(t *testing.T) {
	const P = 16
	rng := rand.New(rand.NewSource(41))
	inputs := patterns[0].gen(rng, 1000, 30, P)

	countInter := func(w *comm.World, alg Algorithm) int {
		hub := w.EnableObservability()
		comm.Run(w, func(p *comm.Proc) any {
			return Allreduce(p, inputs[p.Rank()], Options{Algorithm: alg})
		})
		inter := 0
		for _, s := range sendSpans(hub) {
			dst, _ := strconv.Atoi(sendAttr(s, "dst"))
			if testTopo.SharedLevel(s.Rank, dst) != 0 {
				inter++
			}
		}
		return inter
	}

	flatInter := countInter(comm.NewWorld(P, simnet.Aries), SSARSplitAllgather)
	hierInter := countInter(comm.NewWorldHier(P, testTopo), HierSSAR)
	if hierInter >= flatInter {
		t.Fatalf("hier must send fewer inter-node messages: hier=%d flat=%d", hierInter, flatInter)
	}
	t.Logf("inter-node messages: hier=%d flat=%d", hierInter, flatInter)
}
