package core

import (
	"bytes"
	"fmt"
	"hash"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/pin"
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
// and the ledger entry core/allgather/<kind>/P=<P> covers every rank's
// result field for field.

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
// totals and a hash of every rank's result wire form.
func pinRun(kind string, P int) (maxTime float64, bytes, msgs int64, digest hash.Hash) {
	inputs := pinInputs[kind](P)
	w := comm.NewWorld(P, simnet.Aries)
	results := comm.Run(w, func(p *comm.Proc) *stream.Vector {
		if strings.HasPrefix(kind, "split/") {
			return Allreduce(p, inputs[p.Rank()], Options{Algorithm: SSARSplitAllgather})
		}
		return SparseAllgather(p, inputs[p.Rank()])
	})
	digest = pin.New()
	for _, res := range results {
		digest.Write(res.AppendWire(nil))
	}
	return w.MaxTime(), w.TotalBytes(), w.TotalMessages(), digest
}

func TestSparseAllgatherPinned(t *testing.T) {
	type row struct {
		kind    string
		P       int
		maxTime float64
		bytes   int64
		msgs    int64
	}
	table := []row{
		{"split/crossing", 2, 1.01326e-05, 56492, 4},
		{"split/crossing", 3, 1.95627e-05, 103106, 10},
		{"split/crossing", 5, 2.4363599999999998e-05, 177546, 30},
		{"split/crossing", 8, 2.21874e-05, 289768, 80},
		{"split/crossing", 13, 3.3604100000000006e-05, 389750, 190},
		{"split/full", 2, 1.0825599999999998e-05, 80468, 4},
		{"split/full", 3, 2.17275e-05, 128366, 10},
		{"split/full", 5, 2.66592e-05, 225942, 30},
		{"split/full", 8, 2.4109199999999996e-05, 362836, 80},
		{"split/full", 13, 3.6771500000000005e-05, 515558, 190},
		{"gather/ordered", 2, 2.7545e-06, 10906, 2},
		{"gather/ordered", 3, 7.601500000000001e-06, 25460, 4},
		{"gather/ordered", 5, 9.41e-06, 45806, 10},
		{"gather/ordered", 8, 6.4557e-06, 76392, 24},
		{"gather/ordered", 13, 1.07589e-05, 135170, 34},
		{"gather/ordered-crossing", 2, 5.3949e-06, 30682, 2},
		{"gather/ordered-crossing", 3, 1.36345e-05, 64952, 4},
		{"gather/ordered-crossing", 5, 1.63978e-05, 122210, 10},
		{"gather/ordered-crossing", 8, 1.10745e-05, 214824, 24},
		{"gather/ordered-crossing", 13, 1.77539e-05, 346766, 34},
		{"gather/interleaved", 2, 2.7545e-06, 10906, 2},
		{"gather/interleaved", 3, 7.5959e-06, 25448, 4},
		{"gather/interleaved", 5, 9.3672e-06, 45686, 10},
		{"gather/interleaved", 8, 6.558100000000001e-06, 76392, 24},
		{"gather/interleaved", 13, 1.0733500000000002e-05, 135134, 34},
		{"gather/interleaved-crossing", 2, 5.406900000000001e-06, 30682, 2},
		{"gather/interleaved-crossing", 3, 1.36253e-05, 64904, 4},
		{"gather/interleaved-crossing", 5, 1.6463e-05, 122246, 10},
		{"gather/interleaved-crossing", 8, 1.1430500000000002e-05, 214824, 24},
		{"gather/interleaved-crossing", 13, 1.77713e-05, 346682, 34},
		{"gather/one-dense", 2, 4.450500000000001e-06, 29446, 2},
		{"gather/one-dense", 3, 8.753900000000001e-06, 58964, 4},
		{"gather/one-dense", 5, 1.2601500000000001e-05, 119918, 10},
		{"gather/one-dense", 8, 1.33515e-05, 215796, 24},
		{"gather/one-dense", 13, 1.7052000000000002e-05, 348002, 34},
		{"gather/early-crossing", 2, 5.8595e-06, 34198, 2},
		{"gather/early-crossing", 3, 1.2439700000000002e-05, 65120, 4},
		{"gather/early-crossing", 5, 1.7061200000000002e-05, 120470, 10},
		{"gather/early-crossing", 8, 1.40483e-05, 218028, 24},
		{"gather/early-crossing", 13, 2.0817900000000003e-05, 331970, 34},
	}
	pin.Prefix(t, "core/allgather")
	for _, tc := range table {
		mt, b, m, d := pinRun(tc.kind, tc.P)
		if mt != tc.maxTime || b != tc.bytes || m != tc.msgs {
			t.Errorf("%s P=%d: modelled (MaxTime, TotalBytes, TotalMessages) = (%v, %d, %d), pinned (%v, %d, %d)",
				tc.kind, tc.P, mt, b, m, tc.maxTime, tc.bytes, tc.msgs)
		}
		pin.Check(t, fmt.Sprintf("core/allgather/%s/P=%d", tc.kind, tc.P), d)
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
