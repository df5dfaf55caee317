package stream

import (
	"sort"
	"sync"
)

// MergeKParallel reduces vs in parallel and returns a fresh vector that is
// value-for-value bit-identical to MergeK(vs, nil). The coordinate space
// [0, N) is split into one contiguous range per worker; a worker binary-
// searches each input stream's cursor bounds for its range and runs the
// ordinary k-way heap merge on the sub-streams, and the per-range outputs
// are stitched back in coordinate order. Bit-identity holds because the
// k-way pass folds each coordinate independently, in stream order, and
// densification depends only on the total merged size (> δ), which the
// stitched result knows exactly — so neither the range boundaries nor the
// worker count can change a single output bit.
//
// Workers ≤ 1, a dense input, a fan-in past the heap's stream budget, or a
// tiny total all fall back to the serial MergeK. Unlike the scratch-backed
// serial path this variant allocates plainly: scratch pools are per-rank,
// not goroutine-safe.
//
// No collective calls it: at two cores it measures slower than the pooled
// serial merge, and its plain-allocated outputs, once released into the
// ranks' Scratch pools, only fill them. It stays solely because the frozen
// bench/layers.go probes it as stream.merge_parallel_ns_per_nnz, and goes
// with the benchmark change that retires that probe.
func MergeKParallel(vs []*Vector, workers int) *Vector {
	if len(vs) == 0 {
		panic("stream: MergeKParallel needs at least one input")
	}
	total := 0
	serial := workers <= 1 || len(vs) == 2
	for _, v := range vs {
		if v.dns != nil {
			serial = true
			break
		}
		total += len(v.idx)
	}
	// Below ~4k merged elements the fan-out/stitch overhead dominates any
	// parallel win; the threshold only affects scheduling, never values.
	if serial || len(vs) > mergeMaxStreams || total < 4096 {
		return MergeK(vs, nil)
	}
	if workers > total/2048 {
		workers = total / 2048
	}

	out := &Vector{n: vs[0].n, op: vs[0].op, valueBytes: vs[0].valueBytes, delta: vs[0].delta}
	n := vs[0].n
	for _, v := range vs {
		if v.n != n {
			panic("stream: dimension mismatch")
		}
		if v.op != out.op {
			panic("stream: operation mismatch")
		}
	}

	type rangeOut struct {
		idx []int32
		val []float64
	}
	outs := make([]rangeOut, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := int32(int64(w) * int64(n) / int64(workers))
		hi := int32(int64(w+1) * int64(n) / int64(workers))
		wg.Add(1)
		go func(w int, lo, hi int32) {
			defer wg.Done()
			cur := make([]mergeCursor, 0, len(vs))
			for _, v := range vs {
				// Cursor bounds for [lo, hi): first position ≥ lo and
				// first position ≥ hi in the sorted index stream.
				s := sort.Search(len(v.idx), func(i int) bool { return v.idx[i] >= lo })
				e := sort.Search(len(v.idx), func(i int) bool { return v.idx[i] >= hi })
				if s < e {
					cur = append(cur, mergeCursor{idx: v.idx[s:e], val: v.val[s:e]})
				}
			}
			idx, val := mergeCursors(cur, out.op)
			outs[w] = rangeOut{idx: idx, val: val}
		}(w, lo, hi)
	}
	wg.Wait()

	merged := 0
	for _, r := range outs {
		merged += len(r.idx)
	}
	if merged > out.delta {
		// Exactly the serial spill rule: the result exceeds δ, so it is
		// dense — seeded with the neutral element, holding each
		// coordinate's folded value.
		dns := make([]float64, n)
		if neutral := out.op.Neutral(); neutral != 0 {
			for i := range dns {
				dns[i] = neutral
			}
		}
		for _, r := range outs {
			for i, ix := range r.idx {
				dns[ix] = r.val[i]
			}
		}
		out.dns = dns
		return out
	}
	out.idx = make([]int32, 0, merged)
	out.val = make([]float64, 0, merged)
	for _, r := range outs {
		out.idx = append(out.idx, r.idx...)
		out.val = append(out.val, r.val...)
	}
	return out
}

// mergeCursors runs the k-way heap merge over the given cursors (already
// in stream order) and returns the folded sparse output — the loop of
// AddAll without the δ spill, which the caller applies to the stitched
// whole.
func mergeCursors(cur []mergeCursor, op Op) ([]int32, []float64) {
	if len(cur) == 0 {
		return nil, nil
	}
	total := 0
	for i := range cur {
		total += len(cur[i].idx)
	}
	h := make([]uint64, len(cur))
	for i := range cur {
		h[i] = mergeKey(cur[i].idx[0], i)
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDownKeys(h, i)
	}
	outIdx := make([]int32, 0, total)
	outVal := make([]float64, 0, total)
	neutral := op.Neutral()
	for len(h) > 0 {
		ix := int32(h[0] >> mergeOrdBits)
		c := &cur[h[0]&mergeOrdMask]
		x := c.val[c.pos]
		have := true
		h = advanceRootKey(h, cur)
		for len(h) > 0 && int32(h[0]>>mergeOrdBits) == ix {
			c = &cur[h[0]&mergeOrdMask]
			y := c.val[c.pos]
			if have {
				x = op.Combine(x, y)
				if x == neutral {
					have = false
				}
			} else {
				x, have = y, true
			}
			h = advanceRootKey(h, cur)
		}
		if have {
			outIdx = append(outIdx, ix)
			outVal = append(outVal, x)
		}
	}
	return outIdx, outVal
}
