package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/quant"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// TestCrossTransportEquivalence is the cross-transport equivalence table:
// every collective — SSAR/DSAR variants, flat and at full depth on ragged
// tiers, quantized and not — must produce bit-identical results on
// the simulator, the goroutine backend, and loopback TCP, at P ∈
// {4, 12, 16, 32}; P = 12 is not a power of two, so the butterfly's fold
// messages and the block allgather's folded lists cross the wire codec on
// the TCP rows. Dyadic values make float addition exact, so any divergence
// is a transport bug (payload codec corruption, reordering, two truly
// concurrent ranks writing a vector they share by handover), never float
// noise. The simulator is the reference; its result is also checked
// against the plain chained reduction.
func TestCrossTransportEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	// RanksPerNode 3 keeps the last node ragged at every tested P but 12
	// (4 = 3+1, 16 = 5·3+1, 32 = 10·3+2).
	topo := simnet.TwoLevel(3, simnet.NVLinkLike, simnet.Aries, 0)
	algs := []struct {
		name   string
		alg    Algorithm
		levels int  // > 0 runs on the hierarchy world
		quant  bool // exercised with quantization too
	}{
		{"ssar-recdouble", SSARRecDouble, 0, false},
		{"ssar-split", SSARSplitAllgather, 0, false},
		{"dsar-split", DSARSplitAllgather, 0, true},
		{"hier-ssar-recdouble", SSARRecDouble, AllLevels, false},
		{"hier-ssar-split", SSARSplitAllgather, AllLevels, false},
		{"hier-dsar", DSARSplitAllgather, AllLevels, true},
		{"dense-raben", DenseRabenseifner, 0, false},
		{"dense-recdouble", DenseRecDouble, 0, false},
		{"dense-ring", DenseRing, 0, false},
		{"ring-sparse", RingSparse, 0, false},
	}

	for _, P := range []int{4, 12, 16, 32} {
		simFlat := comm.NewWorld(P, simnet.Aries)
		simHier := comm.NewWorldHier(P, topo)
		goFlat := comm.NewWorld(P, simnet.Aries).UseGoroutineTransport()
		goHier := comm.NewWorldHier(P, topo).UseGoroutineTransport()
		tcpFlat, err := comm.NewWorldTCP(P, simnet.Aries, comm.TCPConfig{})
		if err != nil {
			t.Fatalf("P=%d: tcp flat world: %v", P, err)
		}
		tcpHier, err := comm.NewWorldTCP(P, simnet.Aries, comm.TCPConfig{Hierarchy: &topo})
		if err != nil {
			t.Fatalf("P=%d: tcp hier world: %v", P, err)
		}
		defer tcpFlat.Close()
		defer tcpHier.Close()

		for _, pat := range patterns {
			n := 600 + rng.Intn(300)
			k := 1 + rng.Intn(n/5)
			inputs := pat.gen(rng, n, k, P)

			for _, tc := range algs {
				quantModes := []bool{false}
				if tc.quant {
					quantModes = append(quantModes, true)
				}
				for _, quantized := range quantModes {
					opts := Options{Algorithm: tc.alg, Levels: tc.levels, Seed: 42}
					if quantized {
						opts.Quant = &quant.Config{Bits: 4, Bucket: 256, Norm: quant.NormMax}
					}
					run := func(w *comm.World) [][]float64 {
						return comm.Run(w, func(p *comm.Proc) []float64 {
							return Allreduce(p, inputs[p.Rank()], opts).ToDense()
						})
					}
					simW, goW, tcpW := simFlat, goFlat, tcpFlat
					if tc.levels > 0 {
						simW, goW, tcpW = simHier, goHier, tcpHier
					}
					want := run(simW)
					label := fmt.Sprintf("P=%d pattern=%s alg=%s quant=%v", P, pat.name, tc.name, quantized)
					for backend, got := range map[string][][]float64{
						"goroutine": run(goW),
						"tcp":       run(tcpW),
					} {
						for r := range got {
							for i := range want[r] {
								if got[r][i] != want[r][i] {
									t.Fatalf("%s backend=%s rank=%d coord=%d: got %g, sim %g",
										label, backend, r, i, got[r][i], want[r][i])
								}
							}
						}
					}
					if !quantized && tc.alg != DenseRabenseifner {
						// Cross-check the simulator itself against the
						// chained reference reduction.
						ref := chainReduce(inputs)
						for i, x := range ref {
							if want[0][i] != x {
								t.Fatalf("%s: sim rank 0 coord %d: got %g, reference %g", label, i, want[0][i], x)
							}
						}
					}
				}
			}
		}
	}
}

// chainReduce folds the inputs densely in rank order — the semantic
// reference every allreduce must match on exact (dyadic) values.
func chainReduce(inputs []*stream.Vector) []float64 {
	out := make([]float64, inputs[0].Dim())
	for _, v := range inputs {
		for i, x := range v.ToDense() {
			out[i] += x
		}
	}
	return out
}

// TestCrossTransportRaggedLevels drives the N-level recursion over a
// ragged three-level hierarchy on both real backends and checks
// bit-identity against the simulator, at the full and at a truncated depth.
func TestCrossTransportRaggedLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := simnet.Hierarchy{Levels: []simnet.Level{
		{GroupSize: 3, Profile: simnet.NVLinkLike},
		{GroupSize: 4, Profile: simnet.InfiniBandFDR},
		{GroupSize: 0, Profile: simnet.Aries},
	}}
	const P = 26 // 3·4 = 12 per level-1 group: 26 = 12 + 12 + 2, ragged twice
	n := 800
	k := 120
	inputs := patterns[0].gen(rng, n, k, P)

	sim := comm.NewWorldHier(P, h)
	gor := comm.NewWorldHier(P, h).UseGoroutineTransport()
	tcp, err := comm.NewWorldTCP(P, simnet.Aries, comm.TCPConfig{Hierarchy: &h})
	if err != nil {
		t.Fatalf("tcp world: %v", err)
	}
	defer tcp.Close()

	for _, levels := range []int{AllLevels, 2} {
		for _, alg := range []Algorithm{SSARRecDouble, SSARSplitAllgather, DSARSplitAllgather} {
			opts := Options{Algorithm: alg, Levels: levels, Seed: 3}
			run := func(w *comm.World) [][]float64 {
				return comm.Run(w, func(p *comm.Proc) []float64 {
					return Allreduce(p, inputs[p.Rank()], opts).ToDense()
				})
			}
			want := run(sim)
			for backend, got := range map[string][][]float64{"goroutine": run(gor), "tcp": run(tcp)} {
				for r := range got {
					for i := range want[r] {
						if got[r][i] != want[r][i] {
							t.Fatalf("alg=%v levels=%d backend=%s rank=%d coord=%d: got %g, sim %g",
								alg, levels, backend, r, i, got[r][i], want[r][i])
						}
					}
				}
			}
		}
	}
}
