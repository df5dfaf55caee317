package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// TestChunkedEqualsUnchunked is the chunked-pipeline property test: for
// every algorithm, flat and at full depth, on flat, ragged two-level, and
// ragged three-level worlds, with plain and QSGD-quantized payloads, the pipelined execution
// at Chunks ∈ {2, 4, 8} must produce results bit-identical to the
// unchunked (Chunks=1) pass on every rank. Dyadic values make float
// addition exact, so the chunk merges' different fold order cannot hide
// behind rounding — any divergence is a pipeline bug (a dropped or
// double-counted key range, a tag collision between chunk stages, or a
// chunk boundary that differs across ranks).
func TestChunkedEqualsUnchunked(t *testing.T) {
	worlds := []struct {
		name string
		P    int
		mk   func(P int) *comm.World
	}{
		{"flat/P=8", 8, func(P int) *comm.World { return comm.NewWorld(P, testProfile) }},
		{"flat/P=5", 5, func(P int) *comm.World { return comm.NewWorld(P, testProfile) }},
		{"topo/P=10/ragged", 10, func(P int) *comm.World { return comm.NewWorldHier(P, testTopo) }},
		{"hier3/P=17/ragged-both", 17, func(P int) *comm.World { return comm.NewWorldHier(P, testHier3) }},
	}
	quants := []*quant.Config{
		nil,
		{Bits: 4, Bucket: 512, Norm: quant.NormMax},
	}
	rng := rand.New(rand.NewSource(8101))
	for _, wc := range worlds {
		for qi, qc := range quants {
			t.Run(fmt.Sprintf("%s/quant=%v", wc.name, qc != nil), func(t *testing.T) {
				n := 600 + rng.Intn(600)
				inputs := make([]*stream.Vector, wc.P)
				for r := range inputs {
					// Ragged per-rank k: chunk boundaries must not depend on it.
					inputs[r] = randSparse(rng, n, 10+rng.Intn(n/4))
					if rng.Intn(4) == 0 {
						inputs[r].Densify()
					}
				}
				for _, alg := range allAlgorithms {
					if qc != nil && alg != DSARSplitAllgather {
						continue // quantization applies to the dense-allgather family
					}
					for _, levels := range []int{0, AllLevels} {
						run := func(chunks int) []*stream.Vector {
							w := wc.mk(wc.P)
							return comm.Run(w, func(p *comm.Proc) *stream.Vector {
								return Allreduce(p, inputs[p.Rank()],
									Options{Algorithm: alg, Levels: levels, Chunks: chunks, Quant: qc, Seed: 7})
							})
						}
						base := run(1)
						for _, C := range []int{2, 4, 8} {
							got := run(C)
							for r := range got {
								if !vectorsEqual(base[r], got[r]) {
									t.Fatalf("%s chunks=%d quant=%d rank=%d: result differs from unchunked",
										ChoiceName(alg, levels), C, qi, r)
								}
							}
						}
					}
				}
			})
		}
	}
}

// vectorsEqual compares two vectors' dense contents bit-for-bit.
func vectorsEqual(a, b *stream.Vector) bool {
	da, db := a.ToDense(), b.ToDense()
	if len(da) != len(db) {
		return false
	}
	for i := range da {
		if da[i] != db[i] {
			return false
		}
	}
	return true
}

// TestChunkedAutoChunksDeterministic: AutoChunks must resolve to the same
// chunk degree on every rank (it feeds the collective's tag layout) and
// still produce the reference sum.
func TestChunkedAutoChunksDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(8102))
	P := 8
	inputs := patterns[0].gen(rng, 4000, 700, P)
	want := refSum(inputs)
	for _, alg := range []Algorithm{SSARSplitAllgather, DSARSplitAllgather, Auto} {
		w := comm.NewWorld(P, testProfile)
		results := comm.Run(w, func(p *comm.Proc) *stream.Vector {
			return Allreduce(p, inputs[p.Rank()], Options{Algorithm: alg, Chunks: AutoChunks})
		})
		for r, res := range results {
			got := res.ToDense()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("alg=%s rank=%d coord=%d: got %g want %g", alg, r, i, got[i], want[i])
				}
			}
		}
	}
}

// TestNonblockingOnRealTransports runs IAllreduce and ISparseAllgather on
// the goroutine and loopback-TCP backends — previously only exercised on
// the simulator — including two outstanding requests issued in identical
// program order on every rank, and checks the results bit-identical to
// the blocking simulator reference.
func TestNonblockingOnRealTransports(t *testing.T) {
	rng := rand.New(rand.NewSource(8103))
	P := 4
	a := patterns[0].gen(rng, 800, 60, P)
	b := patterns[2].gen(rng, 800, 60, P)
	wantA, wantB := refSum(a), refSum(b)

	// The allgather reference: the simulator's blocking result per rank.
	simW := comm.NewWorld(P, simnet.Aries)
	wantAG := comm.Run(simW, func(p *comm.Proc) []float64 {
		return SparseAllgather(p, b[p.Rank()]).ToDense()
	})

	type world struct {
		name string
		w    *comm.World
	}
	worlds := []world{
		{"goroutine", comm.NewWorld(P, simnet.Aries).UseGoroutineTransport()},
	}
	if tcpW, err := comm.NewWorldTCP(P, simnet.Aries, comm.TCPConfig{}); err != nil {
		t.Logf("skipping tcp: %v", err)
	} else {
		defer tcpW.Close()
		worlds = append(worlds, world{"tcp", tcpW})
	}

	for _, wc := range worlds {
		t.Run(wc.name, func(t *testing.T) {
			type out struct {
				a, b []float64
			}
			results := comm.Run(wc.w, func(p *comm.Proc) out {
				// Two outstanding allreduces in identical program order,
				// chunked to drive the pipelined path on a real transport.
				r1 := IAllreduce(p, a[p.Rank()], Options{Algorithm: SSARSplitAllgather, Chunks: 4})
				r2 := IAllreduce(p, b[p.Rank()], Options{Algorithm: SSARRecDouble})
				return out{a: r1.Wait(p).ToDense(), b: r2.Wait(p).ToDense()}
			})
			for r, res := range results {
				for i := range wantA {
					if res.a[i] != wantA[i] {
						t.Fatalf("rank %d coord %d: outstanding req 1 got %g want %g", r, i, res.a[i], wantA[i])
					}
					if res.b[i] != wantB[i] {
						t.Fatalf("rank %d coord %d: outstanding req 2 got %g want %g", r, i, res.b[i], wantB[i])
					}
				}
			}
			ag := comm.Run(wc.w, func(p *comm.Proc) []float64 {
				return ISparseAllgather(p, b[p.Rank()]).Wait(p).ToDense()
			})
			for r := range ag {
				for i := range wantAG[r] {
					if ag[r][i] != wantAG[r][i] {
						t.Fatalf("rank %d coord %d: ISparseAllgather diverges from simulator", r, i)
					}
				}
			}
		})
	}
}

// TestSplitPhaseSpans pins the split phase's span layout, which the wall
// benchmark's phase shares read by name: one chunk records one
// split:send and one split:merge per rank on the main lane, without
// attributes; C chunks record C of each, every one carrying its chunk,
// with the merges on the merge lane they overlap the sends from.
func TestSplitPhaseSpans(t *testing.T) {
	const P, n = 4, 512
	inputs := patterns[0].gen(rand.New(rand.NewSource(38)), n, 40, P)
	for _, C := range []int{1, 2} {
		w := comm.NewWorld(P, testProfile)
		hub := w.EnableObservability()
		comm.Run(w, func(p *comm.Proc) *stream.Vector {
			return Allreduce(p, inputs[p.Rank()], Options{Algorithm: SSARSplitAllgather, Chunks: C})
		})
		counts := map[string]int{}
		for _, s := range hub.Spans() {
			if s.Name != "split:send" && s.Name != "split:merge" {
				continue
			}
			counts[fmt.Sprintf("%s/%d", s.Name, s.Rank)]++
			wantLane := obs.LaneMain
			if C > 1 && s.Name == "split:merge" {
				wantLane = obs.LaneMerge
			}
			if s.Lane != wantLane {
				t.Errorf("C=%d rank %d: %s on lane %q, want %q", C, s.Rank, s.Name, s.Lane, wantLane)
			}
			switch {
			case C == 1 && len(s.Attrs) != 0:
				t.Errorf("C=1 rank %d: %s carries attributes %v", s.Rank, s.Name, s.Attrs)
			case C > 1 && s.Attr("chunk") == "":
				t.Errorf("C=%d rank %d: %s carries no chunk attribute", C, s.Rank, s.Name)
			}
		}
		for r := 0; r < P; r++ {
			for _, name := range []string{"split:send", "split:merge"} {
				if got := counts[fmt.Sprintf("%s/%d", name, r)]; got != C {
					t.Errorf("C=%d rank %d: %d %s spans, want %d", C, r, got, name, C)
				}
			}
		}
	}
}
