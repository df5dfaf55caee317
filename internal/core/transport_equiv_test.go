package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/pin"
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
// noise. The split-phase algorithms also run in two chunks, which on the
// real backends is a merge goroutine pipelined behind the sends. The
// simulator is the reference; its result is also checked against the
// plain chained reduction, and its results in wire form, every one-chunk
// row of one world size, are the ledger entry core/transport-equiv/P=<P>.
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
		chunks int  // Options.Chunks; chunked rows stay out of the ledger
	}{
		{"ssar-recdouble", SSARRecDouble, 0, false, 0},
		{"ssar-split", SSARSplitAllgather, 0, false, 0},
		{"dsar-split", DSARSplitAllgather, 0, true, 0},
		{"hier-ssar-recdouble", SSARRecDouble, AllLevels, false, 0},
		{"hier-ssar-split", SSARSplitAllgather, AllLevels, false, 0},
		{"hier-dsar", DSARSplitAllgather, AllLevels, true, 0},
		{"dense-raben", DenseRabenseifner, 0, false, 0},
		{"dense-recdouble", DenseRecDouble, 0, false, 0},
		{"dense-ring", DenseRing, 0, false, 0},
		{"ring-sparse", RingSparse, 0, false, 0},
		{"ssar-split/c2", SSARSplitAllgather, 0, false, 2},
		{"dsar-split/c2", DSARSplitAllgather, 0, true, 2},
		{"hier-ssar-split/c2", SSARSplitAllgather, AllLevels, false, 2},
		{"hier-dsar/c2", DSARSplitAllgather, AllLevels, true, 2},
	}

	pin.Prefix(t, "core/transport-equiv")
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

		simWire := pin.New()
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
					opts := Options{Algorithm: tc.alg, Levels: tc.levels, Chunks: tc.chunks, Seed: 42}
					if quantized {
						opts.Quant = &quant.Config{Bits: 4, Bucket: 256, Norm: quant.NormMax}
					}
					simW, goW, tcpW := simFlat, goFlat, tcpFlat
					if tc.levels > 0 {
						simW, goW, tcpW = simHier, goHier, tcpHier
					}
					want := runResults(simW, inputs, opts)
					label := fmt.Sprintf("P=%d pattern=%s alg=%s quant=%v", P, pat.name, tc.name, quantized)
					matchSim(t, label, want, runResults(goW, inputs, opts), runResults(tcpW, inputs, opts))
					if tc.chunks == 0 {
						for _, r := range want {
							simWire.Write(r.wire)
						}
					}
					if !quantized && tc.alg != DenseRabenseifner {
						// Cross-check the simulator itself against the
						// chained reference reduction.
						for i, x := range chainReduce(inputs) {
							if want[0].dense[i] != x {
								t.Fatalf("%s: sim rank 0 coord %d: got %g, reference %g", label, i, want[0].dense[i], x)
							}
						}
					}
				}
			}
		}
		pin.Check(t, fmt.Sprintf("core/transport-equiv/P=%d", P), simWire)
	}
}

// rankResult is one rank's allreduce result: dense for comparing
// backends, in wire form for the ledger.
type rankResult struct {
	dense []float64
	wire  []byte
}

// runResults runs opts' allreduce of inputs on w.
func runResults(w *comm.World, inputs []*stream.Vector, opts Options) []rankResult {
	return comm.Run(w, func(p *comm.Proc) rankResult {
		res := Allreduce(p, inputs[p.Rank()], opts)
		return rankResult{res.ToDense(), res.AppendWire(nil)}
	})
}

// matchSim fails t at the first coordinate where the goroutine or TCP
// result differs from the simulator's.
func matchSim(t *testing.T, label string, sim, gor, tcp []rankResult) {
	t.Helper()
	for backend, got := range map[string][]rankResult{"goroutine": gor, "tcp": tcp} {
		for r := range got {
			for i, x := range sim[r].dense {
				if got[r].dense[i] != x {
					t.Fatalf("%s backend=%s rank=%d coord=%d: got %g, sim %g", label, backend, r, i, got[r].dense[i], x)
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
// bit-identity against the simulator, at the full and at a truncated
// depth; the simulator's results in wire form are the ledger entry
// core/transport-ragged/P=26.
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

	pin.Prefix(t, "core/transport-ragged")
	simWire := pin.New()
	for _, levels := range []int{AllLevels, 2} {
		for _, alg := range []Algorithm{SSARRecDouble, SSARSplitAllgather, DSARSplitAllgather} {
			opts := Options{Algorithm: alg, Levels: levels, Seed: 3}
			want := runResults(sim, inputs, opts)
			matchSim(t, fmt.Sprintf("alg=%v levels=%d", alg, levels), want, runResults(gor, inputs, opts), runResults(tcp, inputs, opts))
			for _, r := range want {
				simWire.Write(r.wire)
			}
		}
	}
	pin.Check(t, fmt.Sprintf("core/transport-ragged/P=%d", P), simWire)
}
