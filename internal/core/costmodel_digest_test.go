package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/quant"
	"repro/internal/simnet"
)

// TestPredictDigests pins the bits of the cost model across commits:
// per machine, SHA-256 over math.Float64bits of PredictSeconds for the three
// priced algorithms at the scenario's depth followed by the
// ChooseAutoLevels triple, over the grid P × N × K × Chunks × quant ×
// support model × Levels below. Every world is a power of two and External
// is empty — the region where the closed forms may never move, because
// every replica-consistent Auto decision and every gated BENCH byte is a
// function of these floats; a change in the order of one float addition
// fails here. Recorded when the hierarchical algorithms became depths of
// the flat ones: every price and every Auto decision of the previous
// digests was then reproduced bit for bit at the matching algorithm and
// depth; only the algorithm numbers hashed for depth choices changed.
func TestPredictDigests(t *testing.T) {
	two, nic := simnet.TwoLevel(4, simnet.NVLinkLike, simnet.Aries, 0), simnet.TwoLevel(4, simnet.NVLinkLike, simnet.Aries, 1)
	flat := simnet.Flat(simnet.Aries)
	dfly, dfly2 := simnet.DragonflyLike(4, 4), simnet.DragonflyLike(4, 2)
	machines := []struct {
		name string
		hier *simnet.Hierarchy
		prof simnet.Profile
		want string
	}{
		{"nil", nil, testProfile, "bd5f36e4aeed585ca2c2b9774d94ead0863a03550dded27c4cd186e983d1eaf3"},
		{"flat", &flat, simnet.Aries, "7b54fa7543e5fb5b0e0c02277298c5e72b50a5c70a666ea128bae8b76e8975ab"},
		{"twolevel", &two, simnet.Aries, "6e15ddf48d9df9b61a3c1100b7d413a3d4e35d276f549b7bf25fadad3260c580"},
		{"twolevel-nic", &nic, simnet.Aries, "a7c4e0ead5288b089cb833e8945d68eadb1ab7e0ffe27c61b27f08f4f4700c7c"},
		{"dragonfly-4x4", &dfly, simnet.AriesGlobal, "8baae7d70149111838064c5a6f1a81d7ab84533b233691379efd2c5edf80c2c1"},
		{"dragonfly-4x2", &dfly2, simnet.AriesGlobal, "65f6b19aaec0fe0f826f553b2ce92bc56cdc30f37561e65182a95075565021aa"},
	}
	algs := []Algorithm{SSARRecDouble, SSARSplitAllgather, DSARSplitAllgather}
	q4 := &quant.Config{Bits: 4, Bucket: 512}
	for _, m := range machines {
		h := sha256.New()
		put := func(x uint64) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], x)
			h.Write(b[:])
		}
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
		if got := hex.EncodeToString(h.Sum(nil)); got != m.want {
			t.Errorf("%s: digest %s, pinned %s", m.name, got, m.want)
		}
	}
}
