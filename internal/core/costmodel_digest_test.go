package core

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/pin"
	"repro/internal/quant"
	"repro/internal/simnet"
)

// TestPredictDigests pins the bits of the cost model across commits: per
// machine, the ledger entry core/predict/<machine> is the SHA-256 over
// math.Float64bits of PredictSeconds for the three priced algorithms at
// the scenario's depth followed by the ChooseAutoLevels triple, over the
// grid P × N × K × Chunks × quant × support model × Levels below. Every
// world is a power of two and External is empty — the region where the
// closed forms may never move, because every replica-consistent Auto
// decision and every gated BENCH byte is a function of these floats; a
// change in the order of one float addition fails here. Recorded when the
// hierarchical algorithms became depths of the flat ones: every price and
// every Auto decision of the previous digests was then reproduced bit for
// bit at the matching algorithm and depth; only the algorithm numbers
// hashed for depth choices changed.
func TestPredictDigests(t *testing.T) {
	two, nic := simnet.TwoLevel(4, simnet.NVLinkLike, simnet.Aries, 0), simnet.TwoLevel(4, simnet.NVLinkLike, simnet.Aries, 1)
	flat := simnet.Flat(simnet.Aries)
	dfly, dfly2 := simnet.DragonflyLike(4, 4), simnet.DragonflyLike(4, 2)
	machines := []struct {
		name string
		hier *simnet.Hierarchy
		prof simnet.Profile
	}{
		{"nil", nil, testProfile},
		{"flat", &flat, simnet.Aries},
		{"twolevel", &two, simnet.Aries},
		{"twolevel-nic", &nic, simnet.Aries},
		{"dragonfly-4x4", &dfly, simnet.AriesGlobal},
		{"dragonfly-4x2", &dfly2, simnet.AriesGlobal},
	}
	algs := []Algorithm{SSARRecDouble, SSARSplitAllgather, DSARSplitAllgather}
	q4 := &quant.Config{Bits: 4, Bucket: 512}
	pin.Prefix(t, "core/predict")
	for _, m := range machines {
		h := pin.New()
		put := func(x uint64) { binary.Write(h, binary.LittleEndian, x) }
		for _, P := range []int{2, 4, 8, 16, 32, 64, 128} {
			for _, N := range []int{1 << 16, 1 << 20} {
				for _, K := range []int{0, 16, 100, 3000, 40000, N / 2} {
					for _, chunks := range []int{0, 4, AutoChunks} {
						for _, qc := range []*quant.Config{nil, q4} {
							for _, support := range []SupportModel{SupportUniform, SupportClustered} {
								for levels := 0; levels <= 3; levels++ {
									s := CostScenario{N: N, P: P, K: K, Profile: m.prof, Hier: m.hier,
										Levels: levels, Chunks: chunks, Quant: qc, Support: support}
									for _, alg := range algs {
										put(math.Float64bits(PredictSeconds(alg, s)))
									}
									alg, depth, c := ChooseAutoLevels(s)
									put(uint64(alg))
									put(uint64(depth))
									put(uint64(c))
								}
							}
						}
					}
				}
			}
		}
		pin.Check(t, "core/predict/"+m.name, h)
	}
}
