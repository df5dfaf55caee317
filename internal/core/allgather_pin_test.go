package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// The sparse allgather's pinned table. The equivalence tables compare
// transports and algorithms within one commit; a change to what a stage is
// priced at, to which absorb is charged sparse or dense, or to how the
// gathered blocks are assembled would pass them on every backend at once.
// Every row below was recorded on the simulator while the allgather still
// cloned and concatenated its accumulator at every stage: the modelled
// completion time, bytes and messages are functions of block counts alone,
// and the digest covers every rank's result field for field.

const pinN = 3000 // δ = 2000 at 8-byte values

// pinValue is a non-zero dyadic value derived from a coordinate and a rank.
func pinValue(i, r int) float64 {
	h := uint32(i*31+r+1) * 2654435761
	return float64(int32(h>>9)%1000+1001) / 64
}

// pinKeep reports whether coordinate i passes a deterministic filter that
// keeps about permille of every 1000 coordinates.
func pinKeep(i, salt, permille int) bool {
	return (uint32(i*131+salt)*2654435761)>>12%1000 < uint32(permille)
}

// pinInputs builds the contributions of one table row.
var pinInputs = map[string]func(P int) []*stream.Vector{
	// Overlapping supports whose reduced union (~85 % of N) crosses δ part
	// way through the allgather; every partition stays sparse.
	"split/crossing": func(P int) []*stream.Vector {
		return pinOverlapping(P, []int{0, 0, 613, 469, 0, 316, 0, 0, 211, 0, 0, 0, 0, 136}[P])
	},
	// A union of ~99 %: inputs and (at small P) partitions arrive dense, and
	// at P = 13 the folded-in blocks push ranks 0–3 past δ a stage early.
	"split/full": func(P int) []*stream.Vector {
		return pinOverlapping(P, []int{0, 0, 900, 785, 0, 602, 0, 0, 438, 0, 0, 0, 0, 298}[P])
	},
	// Each rank contributes inside its own partition, ascending by rank.
	"gather/ordered":          func(P int) []*stream.Vector { return pinDisjoint(P, 300, false, -1) },
	"gather/ordered-crossing": func(P int) []*stream.Vector { return pinDisjoint(P, 850, false, -1) },
	// Coordinate i belongs to rank i mod P: disjoint but interleaved.
	"gather/interleaved":          func(P int) []*stream.Vector { return pinDisjoint(P, 300, true, -1) },
	"gather/interleaved-crossing": func(P int) []*stream.Vector { return pinDisjoint(P, 850, true, -1) },
	// One rank hands in a dense vector (non-neutral only in its range).
	"gather/one-dense": func(P int) []*stream.Vector { return pinDisjoint(P, 300, false, P/2) },
	// Ranks 0 and 1 own three quarters of the universe between them, so
	// they cross δ at the first stage and every later absorb and message on
	// their side is dense.
	"gather/early-crossing": func(P int) []*stream.Vector {
		bounds := []int{0, 1500, 2250}
		for r := 3; r <= P; r++ {
			bounds = append(bounds, 2250+750*(r-2)/(P-2))
		}
		bounds = bounds[:P+1]
		bounds[P] = pinN
		out := make([]*stream.Vector, P)
		for r := range out {
			var idx []int32
			var val []float64
			for i := bounds[r]; i < bounds[r+1]; i++ {
				if pinKeep(i, 23, 950) {
					idx = append(idx, int32(i))
					val = append(val, pinValue(i, r))
				}
			}
			out[r] = stream.NewSparse(pinN, idx, val, stream.OpSum)
		}
		return out
	},
}

// pinOverlapping keeps every coordinate on about permille/1000 of the
// ranks, independently per rank.
func pinOverlapping(P, permille int) []*stream.Vector {
	out := make([]*stream.Vector, P)
	for r := range out {
		var idx []int32
		var val []float64
		for i := 0; i < pinN; i++ {
			if pinKeep(i, r*7919, permille) {
				idx = append(idx, int32(i))
				val = append(val, pinValue(i, r))
			}
		}
		out[r] = stream.NewSparse(pinN, idx, val, stream.OpSum)
	}
	return out
}

// pinDisjoint builds disjoint contributions filling about permille/1000 of
// the universe: by partition, or interleaved (owner = i mod P). The rank
// denseRank, if any, contributes in the dense representation.
func pinDisjoint(P, permille int, interleaved bool, denseRank int) []*stream.Vector {
	out := make([]*stream.Vector, P)
	for r := range out {
		var idx []int32
		var val []float64
		for i := 0; i < pinN; i++ {
			owner := i % P
			if !interleaved {
				owner = i / (pinN / P)
				if owner >= P {
					owner = P - 1
				}
			}
			if owner == r && pinKeep(i, 17, permille) {
				idx = append(idx, int32(i))
				val = append(val, pinValue(i, r))
			}
		}
		out[r] = stream.NewSparse(pinN, idx, val, stream.OpSum)
		if r == denseRank {
			out[r].Densify()
		}
	}
	return out
}

// pinRun runs one row on a fresh simulator world and returns the modelled
// totals and the digest of every rank's result wire form.
func pinRun(kind string, P int) (maxTime float64, bytes, msgs int64, digest string) {
	inputs := pinInputs[kind](P)
	w := comm.NewWorld(P, simnet.Aries)
	results := comm.Run(w, func(p *comm.Proc) *stream.Vector {
		if strings.HasPrefix(kind, "split/") {
			return Allreduce(p, inputs[p.Rank()], Options{Algorithm: SSARSplitAllgather})
		}
		return SparseAllgather(p, inputs[p.Rank()])
	})
	h := sha256.New()
	for _, res := range results {
		h.Write(res.AppendWire(nil))
	}
	return w.MaxTime(), w.TotalBytes(), w.TotalMessages(), hex.EncodeToString(h.Sum(nil))
}

func TestSparseAllgatherPinned(t *testing.T) {
	type row struct {
		kind    string
		P       int
		maxTime float64
		bytes   int64
		msgs    int64
		digest  string
	}
	table := []row{
		{"split/crossing", 2, 1.01326e-05, 56492, 4, "09d4ca2f9b433b3de78adc991ddbbcdce9d28a4ede5fcb8f77a1f2390d0b1c5b"},
		{"split/crossing", 3, 1.95627e-05, 103106, 10, "d4b6cf029756b7629b5f1baea56def9f83c41c331fd20edbcf491d99e13a0ca7"},
		{"split/crossing", 5, 2.4363599999999998e-05, 177546, 30, "ac31be46cd419395b863fb2d3f686ef2023d07912b6b02c507fa2dcbba63346c"},
		{"split/crossing", 8, 2.21874e-05, 289768, 80, "e85e8f9fd3f2deebf1bc15ee70249009eaa8e04e13fdb220b378e2fca180fd43"},
		{"split/crossing", 13, 3.3604100000000006e-05, 389750, 190, "277172852d70d123654819942a42131c5d468ce49ea6ae86b87fa5e2fd62dd5a"},
		{"split/full", 2, 1.0825599999999998e-05, 80468, 4, "de337a2e6ce82e1eca2ac3e9d7a52247a405db6aa5edbf7c631532d754534860"},
		{"split/full", 3, 2.17275e-05, 128366, 10, "89a03f7a8bc7a865fc433a27921323de7c14b5c7a2b20d7fea1b3bea01e6beea"},
		{"split/full", 5, 2.66592e-05, 225942, 30, "39346e2c4a155de1d776505b14ebe082d803eef8eaff1e8a99a1643cf89d8e90"},
		{"split/full", 8, 2.4109199999999996e-05, 362836, 80, "584939d09523333486a73db3853f5f5df9e89b4db4c0e0a40b9790c1504dc6f1"},
		{"split/full", 13, 3.6771500000000005e-05, 515558, 190, "35955f4167403dc36de41d71735a77425b6dfe6270d0faee408339b49bb85096"},
		{"gather/ordered", 2, 2.7545e-06, 10906, 2, "b196100f09cbd614fc1ec736d52a68d4fbc049fb8ab1357238b0f67eb8bd6cf6"},
		{"gather/ordered", 3, 7.601500000000001e-06, 25460, 4, "9500b1b676ea23cff1adfb6fb0bf86330645de0a4641576491787c9c75082155"},
		{"gather/ordered", 5, 9.41e-06, 45806, 10, "cd796017d10fe5c1721ec8605c3a5fb0ecb6065eb99dc85799f5b0f252d19446"},
		{"gather/ordered", 8, 6.4557e-06, 76392, 24, "473c148ec9ec30ee8e491a5e30ee840a5de933a0402c51d155baab01a855097a"},
		{"gather/ordered", 13, 1.07589e-05, 135170, 34, "78d98bf14a41966cf201c6ccceadb6b5fc5f63f3196bdd8a19dadca980e5824f"},
		{"gather/ordered-crossing", 2, 5.3949e-06, 30682, 2, "2718b02ddb698892ef53578d1bef094b4e2ae04affe1c48b8d4572549de37147"},
		{"gather/ordered-crossing", 3, 1.36345e-05, 64952, 4, "6f9815001b2e3a39e441fc39069ae9147bd9c0226f8131a997b80e5c884c93c6"},
		{"gather/ordered-crossing", 5, 1.63978e-05, 122210, 10, "a06b8e1e8cad621fdf9e3700b6d6138387f1ae3d0f41c8e9eb4ca817b28309e9"},
		{"gather/ordered-crossing", 8, 1.10745e-05, 214824, 24, "0f8a13d133562aaa92073406cef6c3ae9bc42b5ee85bdfce548d839f42445603"},
		{"gather/ordered-crossing", 13, 1.77539e-05, 346766, 34, "2fd2b47840741b0c660db8a332ca531ee9c396767e8e4e9f0481b473457116e1"},
		{"gather/interleaved", 2, 2.7545e-06, 10906, 2, "67b65ddcb9b6594e93f55acd903976aa47e138c7fb668410037596c98d55f46c"},
		{"gather/interleaved", 3, 7.5959e-06, 25448, 4, "7f21c82422a8f10902344bf83c988454567641b48d6b0f42d880ab8566aff2c7"},
		{"gather/interleaved", 5, 9.3672e-06, 45686, 10, "3dd0972d3a01df76633ce989b0c8a534d7fea13f28a6324abaef98e20bb7aa65"},
		{"gather/interleaved", 8, 6.558100000000001e-06, 76392, 24, "8561a94e15e473dcca3a630f54ab2bc3552d2e8d36a561b575f229b2f8d58a1f"},
		{"gather/interleaved", 13, 1.0733500000000002e-05, 135134, 34, "3a0e066c38de6cd198c453ea6642d272ba66ba2389e514fa5f4931e93a7c48ff"},
		{"gather/interleaved-crossing", 2, 5.406900000000001e-06, 30682, 2, "583364aceab681de1a79bd6a4e359ef748c162fc1f93462a7459ec7dfd44cea9"},
		{"gather/interleaved-crossing", 3, 1.36253e-05, 64904, 4, "043dc66a1ea1866967ed92680165874dfa4e1957395be0f696acd35247bbdbf8"},
		{"gather/interleaved-crossing", 5, 1.6463e-05, 122246, 10, "639ee1135fade3daab33a88fdf8cfc0c0eb9e977cf32400ac3d4cb6b26907c57"},
		{"gather/interleaved-crossing", 8, 1.1430500000000002e-05, 214824, 24, "2bfabd07ac0a25a4ee5a4ee5fb9fa02d075e1d701287b74c726d91fd8db2395c"},
		{"gather/interleaved-crossing", 13, 1.77713e-05, 346682, 34, "d9698301f3bca305e39c7d7526a314ce3f1e662acdd8994a8440430b6a49ac52"},
		{"gather/one-dense", 2, 4.450500000000001e-06, 29446, 2, "5dcc421f89af374daaa7f056d72c959c6dd4329b3572ab7284dde024e3aba7d6"},
		{"gather/one-dense", 3, 8.753900000000001e-06, 58964, 4, "d50a0226e7d4f7b8b9d1579a32edacf2ee8880a1bfa555ad30d712080f04ce49"},
		{"gather/one-dense", 5, 1.2601500000000001e-05, 119918, 10, "8a8ac859a5c85464e5c7afaf4624d73b12aa656ad78db9a5be1c893573af7c23"},
		{"gather/one-dense", 8, 1.33515e-05, 215796, 24, "2893ca946c108331777689917c15f5bbc06dadae8f00e514c0395602fc362551"},
		{"gather/one-dense", 13, 1.7052000000000002e-05, 348002, 34, "0179a01a49e705b225c23cc2e72b77d893e230eb0771b3d531e3b8c624d85b38"},
		{"gather/early-crossing", 2, 5.8595e-06, 34198, 2, "27658987d5a0b2222e118f61c522d4e89ab768ed7ffa9a996fa0416930147e05"},
		{"gather/early-crossing", 3, 1.2439700000000002e-05, 65120, 4, "0147725486d6f4a889767b3e51c3afe9bcd8f602dab1e080de6c3173104efacf"},
		{"gather/early-crossing", 5, 1.7061200000000002e-05, 120470, 10, "7498f2c551c91fb742488fbe471f682300d6e174e1a95a946a05690fb5a51df7"},
		{"gather/early-crossing", 8, 1.40483e-05, 218028, 24, "232decea56cfa2970b7d772d6b6ac0a613eb9b1607bdbd0cec1fbe1d0249a8b4"},
		{"gather/early-crossing", 13, 2.0817900000000003e-05, 331970, 34, "3a0264a4cb32c1cdaff3f47b87b45383ae9666ee53667b1b5f47ee914fdc8c6f"},
	}
	for _, tc := range table {
		mt, b, m, d := pinRun(tc.kind, tc.P)
		if mt != tc.maxTime || b != tc.bytes || m != tc.msgs {
			t.Errorf("%s P=%d: modelled (MaxTime, TotalBytes, TotalMessages) = (%v, %d, %d), pinned (%v, %d, %d)",
				tc.kind, tc.P, mt, b, m, tc.maxTime, tc.bytes, tc.msgs)
		}
		if d != tc.digest {
			t.Errorf("%s P=%d: result digest %s, pinned %s", tc.kind, tc.P, d, tc.digest)
		}
	}
}

// TestSparseAllgatherOverlapPanics: contributions that share a coordinate
// are a caller bug the allgather reports instead of summing silently.
func TestSparseAllgatherOverlapPanics(t *testing.T) {
	for _, P := range []int{2, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("P=%d: overlapping contributions did not panic", P)
				}
			}()
			comm.Run(comm.NewWorld(P, simnet.Aries), func(p *comm.Proc) *stream.Vector {
				// Ranks 0 and 1 both claim coordinate 40.
				idx := []int32{int32(10 * p.Rank()), 40}
				if p.Rank() > 1 {
					idx = []int32{int32(10*p.Rank() + 100)}
				}
				val := make([]float64, len(idx))
				for i := range val {
					val[i] = 1
				}
				return SparseAllgather(p, stream.NewSparse(pinN, idx, val, stream.OpSum))
			})
		}()
	}
}

// TestSparseAllgatherSharesNothingWithCallers: the blocks the ranks share
// are the allgather's own. On truly concurrent ranks, a caller that
// rewrites its contribution the moment the call returns — while slower
// ranks are still assembling — and then rewrites the result it was handed
// changes no rank's result; under -race, sharing either with a peer would
// be reported as well.
func TestSparseAllgatherSharesNothingWithCallers(t *testing.T) {
	for _, P := range []int{5, 8} {
		for _, kind := range []string{"gather/ordered", "gather/interleaved", "gather/one-dense"} {
			inputs := pinInputs[kind](P)
			want := comm.Run(comm.NewWorld(P, simnet.Aries), func(p *comm.Proc) []byte {
				return SparseAllgather(p, inputs[p.Rank()]).AppendWire(nil)
			})
			got := comm.Run(comm.NewWorld(P, simnet.Aries).UseGoroutineTransport(), func(p *comm.Proc) []byte {
				mine := inputs[p.Rank()]
				res := SparseAllgather(p, mine)
				mine.Scale(-3)
				wire := res.AppendWire(nil)
				res.Scale(7)
				return wire
			})
			for r := range want {
				if !bytes.Equal(got[r], want[r]) {
					t.Errorf("%s P=%d: rank %d's result changed when callers rewrote their vectors", kind, P, r)
				}
			}
		}
	}
}
