package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// The generator-driven differential test (ROADMAP "concept collapse" (d)):
// instead of one more hand-enumerated world table, machines are drawn from
// a seeded stream and every algorithm × depth × chunking × quantization
// cell on them is held to a dense reference sum. Raise diffDraws (or
// change diffSeed) to widen the search when hunting a bug; a failure names
// the draw, so a cell replays by its seed alone.
const (
	diffSeed  = 1703
	diffDraws = 16
)

var (
	diffChunks = []int{0, 4, AutoChunks}
	diffQuant  = &quant.Config{Bits: 4, Bucket: 64, Norm: quant.NormMax}
	// diffSizes are the drawn world sizes: none a power of two, so every
	// butterfly folds and most drawn groupings leave a ragged last group.
	diffSizes = []int{3, 5, 6, 7, 9, 10, 11, 12, 13}
)

// drawMachine draws one machine of the given depth (1–4): group sizes 1–3
// (1 is a tier of singleton groups), Serial caps on most levels, and —
// since the outermost group is the world whatever its GroupSize says — a
// positive outermost GroupSize half the time.
func drawMachine(rng *rand.Rand, depth int) simnet.Hierarchy {
	tiers := []simnet.Profile{simnet.NVLinkLike, simnet.Aries, simnet.AriesGlobal, simnet.GigE}
	levels := make([]simnet.Level, depth)
	for l := range levels {
		levels[l] = simnet.Level{GroupSize: 1 + rng.Intn(3), Profile: tiers[l], Serial: rng.Intn(3)}
	}
	if rng.Intn(2) == 0 {
		levels[len(levels)-1].GroupSize = 0
	}
	return simnet.Hierarchy{Levels: levels}
}

// honorsQuant reports whether the algorithm's result may be quantized:
// the DSAR family, and Auto when it routes to it.
func honorsQuant(alg Algorithm) bool {
	return alg == DSARSplitAllgather || alg == Auto
}

// diffCells enumerates the option cells of one algorithm on a machine of
// the given depth: every depth for a pinned algorithm (0 = flat, then 2 up
// to the machine's), Auto's own search, every chunking, quantization where
// it is honored.
func diffCells(alg Algorithm, depth int) []Options {
	levels := []int{0}
	if alg != Auto {
		for d := 2; d <= depth; d++ {
			levels = append(levels, d)
		}
	}
	quants := []*quant.Config{nil}
	if honorsQuant(alg) {
		quants = append(quants, diffQuant)
	}
	var out []Options
	for _, L := range levels {
		for _, C := range diffChunks {
			for _, q := range quants {
				out = append(out, Options{Algorithm: alg, Levels: L, Chunks: C, Quant: q, Seed: 42})
			}
		}
	}
	return out
}

func TestDifferentialRandomMachines(t *testing.T) {
	rngs := scenario.NewPartitionedRNG(scenario.NewKey(diffSeed))
	var singleton, ragged, capped, uncapped bool
	for draw := 0; draw < diffDraws; draw++ {
		rng := rngs.Named(fmt.Sprintf("differential/draw%d", draw))
		h := drawMachine(rng, 1+draw%4)
		if err := h.Validate(); err != nil {
			t.Fatalf("draw %d: generator produced an invalid machine: %v", draw, err)
		}
		P := diffSizes[rng.Intn(len(diffSizes))]
		for l, lv := range h.Levels[:h.Depth()-1] {
			singleton = singleton || lv.GroupSize == 1
			ragged = ragged || P%h.Span(l) != 0
			capped = capped || lv.Serial > 0
			uncapped = uncapped || lv.Serial == 0
		}
		n := 256 + rng.Intn(256)
		// One sparse-result and one dense-result (fill-in past δ) instance
		// per machine, so Auto and the δ gate see both regimes.
		for _, k := range []int{1 + rng.Intn(n/16), n/3 + rng.Intn(n/3)} {
			pat := patterns[rng.Intn(len(patterns))]
			inputs := pat.gen(rng, n, k, P)
			want := refSum(inputs)
			for _, alg := range allAlgorithms {
				for _, opts := range diffCells(alg, h.Depth()) {
					cell := fmt.Sprintf("draw=%d machine=%+v P=%d n=%d k=%d pattern=%s alg=%s levels=%d chunks=%d quant=%v",
						draw, h.Levels, P, n, k, pat.name, alg, opts.Levels, opts.Chunks, opts.Quant != nil)
					results := comm.Run(comm.NewWorldHier(P, h), func(p *comm.Proc) []float64 {
						return Allreduce(p, inputs[p.Rank()], opts).ToDense()
					})
					ref := want // unquantized: exact; quantized: every rank decodes the same bytes
					if opts.Quant != nil {
						ref = results[0]
					}
					for r, got := range results {
						for i := range ref {
							if got[i] != ref[i] {
								t.Fatalf("%s: rank %d coord %d = %g, want %g", cell, r, i, got[i], ref[i])
							}
						}
					}
				}
			}
		}
	}
	if !singleton || !ragged || !capped || !uncapped {
		t.Fatalf("seed %d no longer covers the space: singleton=%v ragged=%v capped=%v uncapped=%v",
			diffSeed, singleton, ragged, capped, uncapped)
	}
}

// sendSpans returns hub's obs send spans (one per message), rank by rank,
// each rank's in send order.
func sendSpans(hub *obs.Obs) []obs.Span {
	var out []obs.Span
	for _, s := range hub.Spans() {
		if s.Lane == obs.LaneNet {
			out = append(out, s)
		}
	}
	return out
}

// TestFlatWorldIsDepthOneHierarchy pins the identity the single machine
// type rests on: NewWorld(P, profile) and a depth-1 hierarchy world — with
// the idiomatic GroupSize 0 or a positive one — are the same world in every
// send span, every result bit and every per-rank time, and the cost
// model prices and chooses identically with Hier nil or depth 1.
func TestFlatWorldIsDepthOneHierarchy(t *testing.T) {
	spellings := []simnet.Hierarchy{
		{Levels: []simnet.Level{{Profile: simnet.Aries}}},
		{Levels: []simnet.Level{{GroupSize: 4, Profile: simnet.Aries}}},
	}
	type outcome struct {
		results [][]float64
		times   []float64
		sends   []obs.Span
	}
	run := func(w *comm.World, inputs []*stream.Vector, opts Options) outcome {
		hub := w.EnableObservability()
		var o outcome
		o.results = comm.Run(w, func(p *comm.Proc) []float64 {
			return Allreduce(p, inputs[p.Rank()], opts).ToDense()
		})
		o.times = append([]float64(nil), w.Times()...)
		o.sends = sendSpans(hub)
		return o
	}
	rng := rand.New(rand.NewSource(1440))
	const n = 512
	for _, P := range []int{1, 3, 6, 8} {
		for _, k := range []int{8, n / 2} {
			inputs := patterns[0].gen(rng, n, k, P)
			for _, alg := range allAlgorithms {
				for _, opts := range diffCells(alg, 1) {
					want := run(comm.NewWorld(P, simnet.Aries), inputs, opts)
					for _, h := range spellings {
						if got := run(comm.NewWorldHier(P, h), inputs, opts); !reflect.DeepEqual(got, want) {
							t.Fatalf("P=%d k=%d alg=%s levels=%d chunks=%d quant=%v: depth-1 world %+v diverged from NewWorld",
								P, k, alg, opts.Levels, opts.Chunks, opts.Quant != nil, h.Levels)
						}
					}
				}
			}
			for i := range spellings {
				flat := CostScenario{N: n, P: P, K: k, Profile: simnet.Aries, Chunks: AutoChunks, Quant: diffQuant}
				deep := flat
				deep.Hier = &spellings[i]
				for _, alg := range pricedAlgorithms {
					for _, levels := range []int{0, AllLevels} {
						flat.Levels, deep.Levels = levels, levels
						if a, b := PredictSeconds(alg, flat), PredictSeconds(alg, deep); a != b {
							t.Fatalf("P=%d k=%d %s: model %g with Hier nil, %g with %+v", P, k, ChoiceName(alg, levels), a, b, spellings[i].Levels)
						}
					}
				}
				flat.Levels, deep.Levels = 0, 0
				fa, fl, fc := ChooseAutoLevels(flat)
				da, dl, dc := ChooseAutoLevels(deep)
				if fa != da || fl != dl || fc != dc {
					t.Fatalf("P=%d k=%d: Auto picks %s@%d/%d with Hier nil, %s@%d/%d with %+v",
						P, k, fa, fl, fc, da, dl, dc, spellings[i].Levels)
				}
			}
		}
	}
}
