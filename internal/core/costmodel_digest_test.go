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
// per machine, SHA-256 over math.Float64bits of PredictSeconds for the five
// priced algorithms followed by the ChooseAutoLevels triple, over the grid
// P × N × K × Chunks × quant × support model × Levels below. Every world is
// a power of two and External is empty — the region where the closed forms
// may never move, because every replica-consistent Auto decision and every
// gated BENCH byte is a function of these floats. Recorded at the commit
// before the flat and level-aware forms were folded into one predict; a
// change in the order of one float addition fails here.
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
		{"nil", nil, testProfile, "ec73e51611d5d8d8959a11d04dfc020eb77bdf80181de6579a1ccd929afe5122"},
		{"flat", &flat, simnet.Aries, "e88554ec84b06c2c525287e0ec00525ef2bd846633324f7c557579974fd6765f"},
		{"twolevel", &two, simnet.Aries, "f8281460df130f48602a287f60239dd7ec40ba1f4d9b068707e0d2ed60b8077b"},
		{"twolevel-nic", &nic, simnet.Aries, "c6ca3dd28f88f66725e86942d88fb66a4624b1ae9f6bd9d51fcc4aa00a62d345"},
		{"dragonfly-4x4", &dfly, simnet.AriesGlobal, "22a44bba014124baa5f87655410570691114f4443803eb9ca2e6f8a939ddd63e"},
		{"dragonfly-4x2", &dfly2, simnet.AriesGlobal, "4c43ffe298557cbd4458b77ebf871f05487183f5a183a270b5d8581e7e5edd56"},
	}
	algs := []Algorithm{SSARRecDouble, SSARSplitAllgather, DSARSplitAllgather, HierSSAR, HierDSAR}
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
