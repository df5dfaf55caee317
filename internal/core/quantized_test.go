package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/pin"
	"repro/internal/quant"
	"repro/internal/simnet"
	"repro/internal/stream"
)

func TestDSARQuantizedApproximatesSum(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	P, n, k := 4, 2048, 200
	inputs := make([]*stream.Vector, P)
	for r := range inputs {
		inputs[r] = randSparse(rng, n, k)
	}
	want := refSum(inputs)
	maxAbs := 0.0
	for _, x := range want {
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	opts := Options{
		Algorithm: DSARSplitAllgather,
		Quant:     &quant.Config{Bits: 4, Bucket: 512, Norm: quant.NormMax},
		Seed:      1,
	}
	results := runAllreduce(t, P, inputs, opts)
	// 4-bit max-norm quantization: per-coordinate error ≤ scale/7 where the
	// scale is bounded by the bucket max; use the global max as a bound.
	tol := maxAbs/7 + 1e-9
	for r, res := range results {
		got := res.ToDense()
		for i := range want {
			if math.Abs(got[i]-want[i]) > tol {
				t.Fatalf("rank %d coord %d: got %g want %g (tol %g)", r, i, got[i], want[i], tol)
			}
		}
	}
}

func TestDSARQuantizedConsistentAcrossRanks(t *testing.T) {
	// Quantization is stochastic, but every rank must decode identical
	// bytes — replica divergence would break data-parallel SGD.
	rng := rand.New(rand.NewSource(19))
	P := 8
	inputs := make([]*stream.Vector, P)
	for r := range inputs {
		inputs[r] = randSparse(rng, 1024, 300)
	}
	for _, bits := range []int{2, 4, 8} {
		opts := Options{
			Algorithm: DSARSplitAllgather,
			Quant:     &quant.Config{Bits: bits, Bucket: 256, Norm: quant.NormMax},
			Seed:      7,
		}
		results := runAllreduce(t, P, inputs, opts)
		for r := 1; r < P; r++ {
			if !results[r].Equal(results[0]) {
				t.Fatalf("bits=%d: rank %d decoded a different vector than rank 0", bits, r)
			}
		}
	}
}

func TestDSARQuantizedReducesBytes(t *testing.T) {
	// The quantized allgather phase must move fewer bytes, reflected in a
	// smaller simulated completion time on a bandwidth-dominated network.
	rng := rand.New(rand.NewSource(23))
	P, n := 8, 1<<15
	inputs := make([]*stream.Vector, P)
	for r := range inputs {
		inputs[r] = randSparse(rng, n, n/4)
	}
	bw := comm.NewWorld(P, bandwidthBound)
	comm.Run(bw, func(p *comm.Proc) any {
		return Allreduce(p, inputs[p.Rank()], Options{Algorithm: DSARSplitAllgather})
	})
	tFull := bw.MaxTime()
	comm.Run(bw, func(p *comm.Proc) any {
		return Allreduce(p, inputs[p.Rank()], Options{
			Algorithm: DSARSplitAllgather,
			Quant:     &quant.Config{Bits: 4, Bucket: 1024, Norm: quant.NormMax},
		})
	})
	tQuant := bw.MaxTime()
	if tQuant >= tFull {
		t.Fatalf("quantized DSAR (%g) not faster than full precision (%g)", tQuant, tFull)
	}
	// The allgather stage dominates; 4-bit packing cuts its bytes ~16x, so
	// expect at least 2x end-to-end improvement on this instance.
	if tFull/tQuant < 2 {
		t.Fatalf("quantized speedup only %.2fx, want >2x", tFull/tQuant)
	}
}

// bandwidthBound emphasizes β so byte savings dominate timings.
var bandwidthBound = simnet.Profile{
	Name: "bw-bound", Alpha: 1e-7, BetaPerByte: 1e-8,
	GammaPerElem: 1e-12, SparseComputeFactor: 4,
}

// TestQuantizedResultDigests pins the §6 path across commits: the
// equivalence tables compare transports within one commit, so a change to
// the quantizer's draw order, the decoder's arithmetic or the block
// placement would pass them on every backend at once. The ledger entries
// core/quantized/{flat,full-depth} are the SHA-256 of the result's float
// bits on every backend and rank, recorded before DecodeInto replaced the
// per-coordinate decoder. P = 6 and three 2-rank nodes make both the flat
// allgather and the hierarchical top phase fold.
func TestQuantizedResultDigests(t *testing.T) {
	const P, n = 6, 3000
	inputs := make([]*stream.Vector, P)
	for r := range inputs {
		var idx []int32
		var val []float64
		for i := 0; i < n; i++ {
			if h := uint32(i*P+r) * 2654435761; h>>29 == 0 && i/250 != 5 {
				idx = append(idx, int32(i))
				val = append(val, float64(int32(h>>8)%2001-1000)/64)
			}
		}
		inputs[r] = stream.NewSparse(n, idx, val, stream.OpSum)
	}
	topo := simnet.TwoLevel(2, simnet.NVLinkLike, simnet.Aries, 0)
	tcp, err := comm.NewWorldTCP(P, simnet.Aries, comm.TCPConfig{Hierarchy: &topo})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	worlds := map[string]*comm.World{
		"sim":       comm.NewWorldHier(P, topo),
		"goroutine": comm.NewWorldHier(P, topo).UseGoroutineTransport(),
		"tcp":       tcp,
	}
	pin.Prefix(t, "core/quantized")
	for _, tc := range []struct {
		name   string
		levels int
	}{
		{"flat", 0},
		{"full-depth", AllLevels},
	} {
		opts := Options{Algorithm: DSARSplitAllgather, Levels: tc.levels, Seed: 20261002,
			Quant: &quant.Config{Bits: 4, Bucket: 128, Norm: quant.NormMax}}
		for _, w := range worlds {
			results := comm.Run(w, func(p *comm.Proc) []float64 {
				return Allreduce(p, inputs[p.Rank()], opts).ToDense()
			})
			for _, res := range results {
				h := pin.New()
				binary.Write(h, binary.LittleEndian, res)
				pin.Check(t, "core/quantized/"+tc.name, h)
			}
		}
	}
}
