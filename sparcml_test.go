package sparcml

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

func TestFacadeAllreduce(t *testing.T) {
	w := NewWorld(4, Aries)
	results := Run(w, func(c *Comm) *Vector {
		v := NewSparse(100, []int32{int32(c.Rank()), 50}, []float64{1, 2})
		return c.Allreduce(v, Options{})
	})
	for r, res := range results {
		if res.Get(50) != 8 {
			t.Fatalf("rank %d: shared coordinate = %g, want 8", r, res.Get(50))
		}
		for i := 0; i < 4; i++ {
			if res.Get(i) != 1 {
				t.Fatalf("rank %d: coordinate %d = %g, want 1", r, i, res.Get(i))
			}
		}
	}
	if w.SimTime() <= 0 {
		t.Fatal("simulated time must be positive")
	}
	if len(w.SimTimes()) != 4 {
		t.Fatal("SimTimes length")
	}
}

func TestFacadeTopologyWorld(t *testing.T) {
	topo := TwoLevel(2, NVLinkLike, Aries, 0)
	w := NewWorldHier(8, topo)
	if got := w.Hierarchy(); got.Depth() != 2 || got.Span(0) != 2 {
		t.Fatal("two-level world must report its hierarchy")
	}
	// Auto on a topology world may run at depth 2; the reduction must still
	// be exact.
	results := Run(w, func(c *Comm) *Vector {
		v := NewSparse(100, []int32{int32(c.Rank()), 50}, []float64{1, 2})
		return c.Allreduce(v, Options{})
	})
	for r, res := range results {
		if res.Get(50) != 16 {
			t.Fatalf("rank %d: shared coordinate = %g, want 16", r, res.Get(50))
		}
	}
	if w.SimTime() <= 0 {
		t.Fatal("simulated time must be positive")
	}
	// The full depth on a flat world is the flat algorithm itself.
	flat := NewWorld(8, Aries)
	flatRes := Run(flat, func(c *Comm) *Vector {
		v := NewSparse(100, []int32{int32(c.Rank()), 50}, []float64{1, 2})
		return c.Allreduce(v, Options{Algorithm: SSARSplitAllgather, Levels: AllLevels})
	})
	if !flatRes[0].Equal(results[0]) {
		t.Fatal("AllLevels on a flat world must match the topology result")
	}
}

func TestFacadeHierarchyWorld(t *testing.T) {
	// The README 3-tier quickstart: a DragonflyLike machine of 64 ranks.
	w := NewWorldHier(64, DragonflyLike(4, 4))
	h := w.Hierarchy()
	if h.Depth() != 3 || h.Span(1) != 16 {
		t.Fatal("hierarchy world must report its 3-tier hierarchy")
	}
	if flat := NewWorld(4, Aries).Hierarchy(); flat.Depth() != 1 || flat.Levels[0].Profile != Aries {
		t.Fatalf("flat world must report the depth-1 hierarchy of its profile, got %+v", flat)
	}
	results := Run(w, func(c *Comm) *Vector {
		v := NewSparse(100000, []int32{int32(c.Rank()), 200}, []float64{1, 2})
		return c.Allreduce(v, Options{Scratch: w.Scratch(c.Rank())})
	})
	for r, res := range results {
		if res.Get(200) != 128 {
			t.Fatalf("rank %d: shared coordinate = %g, want 128", r, res.Get(200))
		}
		for i := 0; i < 64; i++ {
			if res.Get(i) != 1 {
				t.Fatalf("rank %d: coordinate %d = %g, want 1", r, i, res.Get(i))
			}
		}
	}
	if w.SimTime() <= 0 {
		t.Fatal("simulated time must be positive")
	}
	// The level-aware cost model must resolve Auto to a sparse-result
	// algorithm at an explicit depth on this machine.
	alg, levels, _ := ChooseAutoLevels(CostScenario{
		N: 100000, P: 64, K: 2, Profile: AriesGlobal, Hier: &h,
	})
	if alg == DSARSplitAllgather || levels < 2 {
		t.Fatalf("ChooseAutoLevels on DragonflyLike = %v@%d, want a hierarchical pick", alg, levels)
	}
	// A hand-written 2-level hierarchy must behave like the TwoLevel preset.
	hw := NewWorldHier(8, Hierarchy{Levels: []Level{{GroupSize: 2, Profile: NVLinkLike}, {Profile: Aries}}})
	tw := NewWorldHier(8, TwoLevel(2, NVLinkLike, Aries, 0))
	prog := func(c *Comm) *Vector {
		v := NewSparse(100, []int32{int32(c.Rank()), 50}, []float64{1, 2})
		return c.Allreduce(v, Options{})
	}
	hres, tres := Run(hw, prog), Run(tw, prog)
	if !hres[0].Equal(tres[0]) {
		t.Fatal("two-level hierarchy world must match the TwoLevel world")
	}
	if hw.SimTime() != tw.SimTime() {
		t.Fatalf("two-level hierarchy sim time %g must equal the TwoLevel world's %g",
			hw.SimTime(), tw.SimTime())
	}
}

func TestFacadeNonblockingAndBarrier(t *testing.T) {
	w := NewWorld(2, GigE)
	Run(w, func(c *Comm) any {
		v := NewSparse(10, []int32{int32(c.Rank())}, []float64{1})
		req := c.IAllreduce(v, Options{Algorithm: SSARRecDouble})
		c.Compute(1e-6)
		res := req.Wait()
		if res.NNZ() != 2 {
			panic("wrong nonblocking result")
		}
		if !req.Test() {
			panic("Test after Wait must be true")
		}
		c.Barrier()
		return nil
	})
}

func TestFacadeAllgatherAndBcast(t *testing.T) {
	w := NewWorld(3, InfiniBandFDR)
	results := Run(w, func(c *Comm) [2]float64 {
		mine := NewSparse(30, []int32{int32(10 * c.Rank())}, []float64{float64(c.Rank() + 1)})
		union := c.AllgatherSparse(mine)
		bc := c.Bcast([]float64{42}, 1)
		return [2]float64{union.Get(20), bc[0]}
	})
	for r, got := range results {
		if got[0] != 3 || got[1] != 42 {
			t.Fatalf("rank %d: got %v", r, got)
		}
	}
}

func TestFacadeQuantizedOptions(t *testing.T) {
	w := NewWorld(4, Aries)
	results := Run(w, func(c *Comm) *Vector {
		vals := make([]float64, 1024)
		for i := range vals {
			vals[i] = math.Sin(float64(i + c.Rank()))
		}
		v := FromDense(vals)
		return c.Allreduce(v, Options{
			Algorithm: DSARSplitAllgather,
			Quant:     &QuantConfig{Bits: 4, Bucket: 256, Norm: NormMax},
		})
	})
	for r := 1; r < len(results); r++ {
		if !results[r].Equal(results[0]) {
			t.Fatal("quantized results must be identical across ranks")
		}
	}
}

func TestFacadeDenseHelpers(t *testing.T) {
	w := NewWorld(2, Aries)
	out := Run(w, func(c *Comm) float64 {
		return c.AllreduceDense([]float64{float64(c.Rank() + 1)})[0]
	})
	if out[0] != 3 || out[1] != 3 {
		t.Fatalf("got %v, want [3 3]", out)
	}
}

func TestFacadeVectorConstructors(t *testing.T) {
	v := NewDense([]float64{1, 0, 2})
	if !v.IsDense() || v.NNZ() != 2 {
		t.Fatal("NewDense wrong")
	}
	s := FromDense([]float64{0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	if s.IsDense() {
		t.Fatal("FromDense should pick sparse for 10% density")
	}
	m := NewSparseOp(5, []int32{1}, []float64{3}, OpMax)
	if m.Op() != OpMax {
		t.Fatal("NewSparseOp op lost")
	}
}

func TestFacadeRootedCollectives(t *testing.T) {
	w := NewWorld(4, Aries)
	results := Run(w, func(c *Comm) *Vector {
		v := NewSparse(40, []int32{int32(c.Rank())}, []float64{1})
		red := c.Reduce(v, 2)
		if c.Rank() != 2 && red != nil {
			panic("non-root got a reduction")
		}
		mine := NewSparse(40, []int32{int32(10 * c.Rank())}, []float64{float64(c.Rank() + 1)})
		g := c.Gather(mine, 0)
		if c.Rank() == 0 {
			if g.NNZ() != 4 {
				panic("gather wrong")
			}
			return g
		}
		return red
	})
	if results[2] == nil || results[2].NNZ() != 4 {
		t.Fatal("root reduction missing or wrong")
	}
}

func TestFacadeScatterAlltoallReduceScatter(t *testing.T) {
	w := NewWorld(4, Aries)
	Run(w, func(c *Comm) any {
		// Scatter from root 0.
		var full *Vector
		if c.Rank() == 0 {
			full = NewSparse(40, []int32{5, 15, 25, 35}, []float64{5, 15, 25, 35})
		}
		piece := c.Scatter(full, 0, 40, OpSum)
		if piece.NNZ() != 1 {
			panic("scatter piece wrong")
		}
		// Alltoall identity payloads.
		pieces := make([]*Vector, 4)
		for i := range pieces {
			pieces[i] = NewSparse(8, []int32{int32(c.Rank())}, []float64{1})
		}
		got := c.Alltoall(pieces)
		for src, g := range got {
			if g.Get(src) != 1 {
				panic("alltoall wrong")
			}
		}
		// ReduceScatter of a shared vector.
		v := NewSparse(40, []int32{0, 10, 20, 30}, []float64{1, 1, 1, 1})
		mine := c.ReduceScatter(v)
		lo := c.Rank() * 10
		if mine.Get(lo) != 4 {
			panic("reduce-scatter wrong")
		}
		return nil
	})
}

func TestFacadeDrydenAllreduce(t *testing.T) {
	w := NewWorld(4, Aries)
	results := Run(w, func(c *Comm) *Vector {
		v := NewSparse(64, []int32{int32(c.Rank() * 16)}, []float64{float64(c.Rank() + 1)})
		res, post := c.DrydenAllreduce(v, 64)
		if post.NNZ() != 0 {
			panic("nothing should be postponed with large k")
		}
		return res
	})
	for _, res := range results {
		if res.NNZ() != 4 {
			t.Fatal("Dryden result wrong")
		}
	}
}

// TestFacadeScratchReuse exercises the buffer-reuse quickstart: repeated
// allreduce calls drawing from per-rank World.Scratch pools must keep
// returning results identical to the scratch-free path, and earlier
// results must stay intact while later rounds recycle buffers.
func TestFacadeScratchReuse(t *testing.T) {
	w := NewWorld(4, Aries)
	mk := func(rank int) *Vector {
		return NewSparse(1000, []int32{int32(rank), 500, int32(900 + rank)},
			[]float64{1, float64(rank + 1), 2})
	}
	plain := Run(w, func(c *Comm) []float64 {
		return c.Allreduce(mk(c.Rank()), Options{}).ToDense()
	})
	var kept *Vector
	for round := 0; round < 4; round++ {
		results := Run(w, func(c *Comm) *Vector {
			opts := Options{Scratch: w.Scratch(c.Rank())}
			return c.Allreduce(mk(c.Rank()), opts)
		})
		if round == 0 {
			kept = results[0]
		}
		for r, res := range results {
			got := res.ToDense()
			for i, x := range plain[r] {
				if got[i] != x {
					t.Fatalf("round=%d rank=%d coord=%d: got %g want %g", round, r, i, got[i], x)
				}
			}
		}
	}
	// The round-0 result must not have been corrupted by pool reuse.
	for i, x := range plain[0] {
		if kept.Get(i) != x {
			t.Fatalf("kept result mutated at %d: %g vs %g", i, kept.Get(i), x)
		}
	}
	// MergeK is part of the facade's Vector surface via the stream alias.
	a := NewSparse(10, []int32{1}, []float64{1})
	b := NewSparse(10, []int32{1}, []float64{-1})
	s := NewScratch()
	a.AddAll([]*Vector{b}, s)
	if a.NNZ() != 0 {
		t.Fatal("cancellation through the facade failed")
	}
}

// TestFacadeBucketsAndNonblockingAllgather: BucketIssue and BucketDrain
// return, bucket for bucket, what the blocking Allreduce of the bucket's
// fused contributions returns, and IAllgatherSparse what AllgatherSparse
// returns, in wire bytes, on every rank of a simulated and a goroutine
// world.
func TestFacadeBucketsAndNonblockingAllgather(t *testing.T) {
	const P, n = 4, 96
	spans := [][2]int{{0, 40}, {40, 64}, {64, 96}}
	sched := NewBucketScheduler(spans, 48)
	if sched.NumBuckets() < 2 {
		t.Fatalf("%d buckets, want at least 2", sched.NumBuckets())
	}
	for _, w := range []*World{NewWorld(P, Aries), NewWorld(P, Aries).UseGoroutineTransport()} {
		failures := Run(w, func(c *Comm) string {
			r := c.Rank()
			contribs := make([]*Vector, len(spans))
			for l, sp := range spans {
				contribs[l] = NewSparse(n, []int32{int32(sp[0] + r), int32(sp[1] - 1)}, []float64{float64(r + 1), 0.5})
			}
			sums := c.BucketDrain(c.BucketIssue(sched, contribs, nil))
			for b, sum := range sums {
				want := c.Allreduce(sched.Fuse(b, contribs, nil), Options{})
				if !bytes.Equal(sum.AppendWire(nil), want.AppendWire(nil)) {
					return fmt.Sprintf("bucket %d differs from the blocking Allreduce of its fused contributions", b)
				}
			}
			mine := NewSparse(n, []int32{int32(3 * r), int32(3*r + 1)}, []float64{1, float64(r)})
			got := c.IAllgatherSparse(mine).Wait()
			if !bytes.Equal(got.AppendWire(nil), c.AllgatherSparse(mine).AppendWire(nil)) {
				return "IAllgatherSparse differs from AllgatherSparse"
			}
			return ""
		})
		for r, msg := range failures {
			if msg != "" {
				t.Errorf("%s rank %d: %s", w.Transport(), r, msg)
			}
		}
	}
}
