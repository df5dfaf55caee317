package stream

import (
	"fmt"
	"math/bits"
)

// This file implements the multi-stream reduction hot path: a one-pass
// reduction of P streams (MergeK / AddAll) instead of P−1 chained two-way
// merges, plus the scratch-buffer variants of the mutating Vector
// operations (AddInto, DensifyInto, CloneInto, ExtractRangeInto) that draw
// output buffers from a Scratch pool. The split phase of the SSAR/DSAR
// algorithms (§5.3.2) receives P−1 partition streams per rank and is the
// dominant wall-clock cost of an allreduce; these paths cut both its O(P·k)
// re-merging work and its per-Add allocations.
//
// Equivalence contract: AddAll's result is value-for-value bit-identical
// to `for _, o := range others { v.Add(o) }`. When any input is dense it
// literally performs the chained in-place folds (dense operands already
// cost one pass each). In the all-sparse case — the split-phase hot path —
// it runs a single pass: for every coordinate the present values fold in
// stream order with the same neutral-element cancellation dropping the
// chained merges apply, and canonical sparse vectors cannot carry signed
// zeros, so the folds agree bit-for-bit. The representation may then be
// *more* canonical: chained Add densifies on a pessimistic per-step upper
// bound (|H1|+|H2| > δ), while the one-pass reduction densifies exactly
// when the merged size exceeds δ, so it can stay sparse where the chain
// would have switched.
//
// Two kernels, one contract. The all-sparse pass is either a k-way sorted
// merge over a heap of stream cursors (addAllHeap) — Θ(log k) sift work per
// input pair, indifferent to how the keys are spread — or a windowed
// scatter (addAllWindowed): every stream is folded into a dense window
// over the joint key range [min index, max index] with a presence bitmap,
// and one sweep of the bitmap emits the result, a few nanoseconds per pair
// plus a pass over the window. AddAll picks by what it reads off the
// inputs: the scatter when it was handed a Scratch to draw the window from,
// Σ nnz ≤ δ (so the result cannot spill to dense mid-way) and the window is
// narrow against Σ nnz (windowMaxSpread, with its measured crossover), the
// heap otherwise. The split phase, whose P
// streams share a key range narrowed P-fold and are dense in it, lands on
// the scatter; wide, very sparse merges keep the heap, which is also the
// reference the scatter is tested against pair for pair
// (TestWindowedKernelMatchesHeap, FuzzMergeKEquivalence); TestAddAllDigests
// pins the result bytes of both across commits.

// AddAll reduces every vector of others into v in a single pass,
// semantically identical to calling v.Add(o) for each o in order (see the
// equivalence contract above). All inputs must share v's dimension and
// operation; others is not modified. A nil scratch is allowed (and keeps
// the heap kernel). Dense operands fold chained, two streams are one
// AddInto, and three or more sparse streams run one of the two kernels
// described above, chosen from their pair count and joint key window; the
// result is the same bytes whichever runs.
func (v *Vector) AddAll(others []*Vector, s *Scratch) {
	anyDense := v.dns != nil
	for _, o := range others {
		if o.n != v.n {
			panic(fmt.Sprintf("stream: dimension mismatch %d vs %d", v.n, o.n))
		}
		if o.op != v.op {
			panic("stream: operation mismatch")
		}
		if o.dns != nil {
			anyDense = true
		}
	}
	if len(others) == 0 {
		return
	}
	if anyDense {
		// Some input is dense: fold in the exact chained order. Dense
		// operands are already consumed in one pass each, so there is no
		// k-way advantage — and bit-exactness demands the chain's literal
		// behavior (e.g. the first dense operand's array is copied, which
		// preserves signed zeros a Combine with the neutral would lose).
		for _, o := range others {
			v.AddInto(o, s)
		}
		return
	}
	if len(others) == 1 {
		// Two streams: the plain two-way merge (including its upper-bound
		// densify rule) IS the chained semantics.
		v.AddInto(others[0], s)
		return
	}

	// Three or more sparse streams: one look at each stream's ends gives the
	// pair count and the joint key window, which pick the kernel.
	total := len(v.idx)
	lo, hi := keyEnds(v.idx, int32(v.n), -1)
	for _, o := range others {
		total += len(o.idx)
		lo, hi = keyEnds(o.idx, lo, hi)
	}
	if total == len(v.idx) {
		return // every other stream is empty
	}
	if width := int(hi-lo) + 1; s != nil && total <= v.delta && width <= windowMaxSpread*total {
		v.addAllWindowed(others, int(lo), width, s)
		return
	}
	v.addAllHeap(others, total, s)
}

// keyEnds widens the key window [lo, hi] to cover a sorted index stream.
func keyEnds(idx []int32, lo, hi int32) (int32, int32) {
	if len(idx) == 0 {
		return lo, hi
	}
	return min(lo, idx[0]), max(hi, idx[len(idx)-1])
}

// windowMaxSpread is the widest joint key window, as a multiple of the input
// pair count Σ nnz, that AddAll reduces by windowed scatter; wider merges
// keep the heap. It is a property read off the input, not a setting: the
// scatter pays per pair plus per window slot, the heap per pair times log₂
// fan-in. Measured (BenchmarkAddAllWindowCrossover: 2^16 pairs in k
// streams, warm Scratch, ns per input pair, go1.24 on the 2-core sandbox,
// medians of 3):
//
//	width/Σnnz      1     2     4     8    16    32    64
//	k=3 window     7.7   6.3   6.2   9.7  12.8  14.0  16.8
//	k=3 heap      17.7  17.2  16.7  16.7  16.1  16.4  16.9
//	k=8 window     8.4   6.5   6.7  10.2  12.2  14.1  17.2
//	k=8 heap      27.2  26.4  24.2  23.9  23.3  23.5  23.2
//
// The scatter still leads at 32 and ties the three-way heap at 64; 16 is
// the last point where it leads by a quarter at every fan-in, and it keeps
// the window under 128 bytes per input pair. The split phase sits at
// width/Σnnz ≤ 2 on the volume workloads; recursive doubling's merges are
// two-way (AddInto) and never come here. The rule holds only with a Scratch
// to draw the window from: without one every call would pay for 8·width
// bytes of fresh zeroed memory, so a nil Scratch keeps the heap.
const windowMaxSpread = 16

// addAllWindowed is AddAll's kernel for all-sparse inputs packed into a
// narrow key window [lo, lo+width): a dense window of values plus a
// presence bitmap, every stream scattered into it in stream order with the
// heap kernel's fold — a present coordinate combines and is dropped when
// the result is the neutral element, an absent one takes the incoming
// value — then one sweep over the bitmap emits the surviving pairs in
// index order into buffers of exactly their count. The caller guarantees
// Σ nnz ≤ δ, so the result cannot need to densify.
func (v *Vector) addAllWindowed(others []*Vector, lo, width int, s *Scratch) {
	win := s.grabDenseRaw(width) // slots are read only where the bitmap says present
	present := s.grabBits((width + 63) / 64)
	scatterFold(win, present, lo, v.idx, v.val, v.op)
	for _, o := range others {
		scatterFold(win, present, lo, o.idx, o.val, v.op)
	}
	count := 0
	for _, w := range present {
		count += bits.OnesCount64(w)
	}
	// v's pairs are all in the window now, so its buffers may serve as the
	// output.
	s.putIdx(v.idx)
	s.putVal(v.val)
	outIdx := s.grabIdx(count)[:count]
	outVal := s.grabVal(count)[:count]
	k := 0
	for wi, w := range present {
		for base := wi << 6; w != 0; w &= w - 1 {
			slot := base + bits.TrailingZeros64(w)
			outIdx[k], outVal[k] = int32(lo+slot), win[slot]
			k++
		}
	}
	s.putDense(win)
	v.idx, v.val = outIdx, outVal
}

// scatterFold folds one sparse stream into the window.
func scatterFold(win []float64, present []uint64, lo int, idx []int32, val []float64, op Op) {
	neutral := op.Neutral()
	for i, ix := range idx {
		slot := int(ix) - lo
		w, bit := slot>>6, uint64(1)<<(slot&63)
		if present[w]&bit == 0 {
			win[slot] = val[i]
			present[w] |= bit
			continue
		}
		x := op.Combine(win[slot], val[i])
		if x == neutral {
			present[w] &^= bit
		}
		win[slot] = x
	}
}

// addAllHeap is AddAll's general all-sparse kernel, and the reference the
// windowed one is tested against: a k-way sorted merge over a heap of
// stream cursors. total is Σ nnz over v and others.
func (v *Vector) addAllHeap(others []*Vector, total int, s *Scratch) {
	cur := make([]mergeCursor, 0, len(others)+1)
	if len(v.idx) > 0 {
		cur = append(cur, mergeCursor{idx: v.idx, val: v.val})
	}
	for _, o := range others {
		if len(o.idx) > 0 {
			cur = append(cur, mergeCursor{idx: o.idx, val: o.val})
		}
	}
	if len(cur) > mergeMaxStreams {
		// The packed heap keys reserve 16 bits for the stream order; a
		// fan-in this wide falls back to chained in-place merges.
		for _, o := range others {
			v.AddInto(o, s)
		}
		return
	}

	// The merge frontier is a binary min-heap of packed (index, stream)
	// keys: 8-byte sift operations instead of cursor-struct swaps keep the
	// per-element cost low. Key order breaks index ties by stream order,
	// so equal indices pop — and fold — in exactly the chained order.
	h := make([]uint64, len(cur))
	for i := range cur {
		h[i] = mergeKey(cur[i].idx[0], i)
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDownKeys(h, i)
	}
	outIdx := s.grabIdx(total)
	outVal := s.grabVal(total)
	neutral := v.op.Neutral()
	for len(h) > 0 {
		ix := int32(h[0] >> mergeOrdBits)
		c := &cur[h[0]&mergeOrdMask]
		x := c.val[c.pos]
		have := true
		h = advanceRootKey(h, cur)
		// Fold every stream holding ix, in stream order — including
		// re-creating and dropping the neutral element mid-way, exactly as
		// the chained merges would.
		for len(h) > 0 && int32(h[0]>>mergeOrdBits) == ix {
			c = &cur[h[0]&mergeOrdMask]
			y := c.val[c.pos]
			if have {
				x = v.op.Combine(x, y)
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
			if len(outIdx) > v.delta {
				// Emitted entries are final (indices ascend), so the result
				// is certain to exceed δ: finish densely.
				v.spillToDense(outIdx, outVal, cur, s)
				return
			}
		}
	}
	s.putIdx(v.idx)
	s.putVal(v.val)
	v.idx, v.val = outIdx, outVal
}

// MergeK reduces vs in one k-way pass and returns a fresh vector,
// value-for-value bit-identical to cloning vs[0] and chain-Adding the
// rest (see AddAll for the exact contract). vs must be non-empty and
// share one dimension and operation; the inputs are not modified. The
// result inherits vs[0]'s δ and value-byte settings. A nil scratch is
// allowed.
func MergeK(vs []*Vector, s *Scratch) *Vector {
	if len(vs) == 0 {
		panic("stream: MergeK needs at least one input")
	}
	out := &Vector{n: vs[0].n, op: vs[0].op, valueBytes: vs[0].valueBytes, delta: vs[0].delta}
	out.AddAll(vs, s)
	return out
}

// mergeCursor is one input stream's read position in the k-way merge; its
// stream order is its position in the cursor array.
type mergeCursor struct {
	idx []int32
	val []float64
	pos int
}

// mergeOrdBits is the low-bit budget of a packed heap key reserved for the
// stream order (ties at equal index must pop in stream order).
const (
	mergeOrdBits    = 16
	mergeOrdMask    = 1<<mergeOrdBits - 1
	mergeMaxStreams = 1 << mergeOrdBits
)

// mergeKey packs (index, stream order) into one comparable word: the index
// occupies the high bits, so key order is (index, order) lexicographic.
func mergeKey(ix int32, ord int) uint64 {
	return uint64(uint32(ix))<<mergeOrdBits | uint64(ord)
}

func siftDownKeys(h []uint64, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h[r] < h[l] {
			m = r
		}
		if h[i] <= h[m] {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// advanceRootKey moves the minimum stream past its current entry, dropping
// it when exhausted, and restores the heap order.
func advanceRootKey(h []uint64, cur []mergeCursor) []uint64 {
	ord := h[0] & mergeOrdMask
	c := &cur[ord]
	c.pos++
	if c.pos == len(c.idx) {
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
	} else {
		h[0] = uint64(uint32(c.idx[c.pos]))<<mergeOrdBits | ord
	}
	siftDownKeys(h, 0)
	return h
}

// spillToDense finishes a k-way merge densely after the sparse output
// crossed δ: the pairs emitted so far seed a dense array and the remaining
// stream tails fold in stream order (every remaining index is strictly
// greater than the emitted ones, so per-coordinate fold order is
// preserved).
func (v *Vector) spillToDense(outIdx []int32, outVal []float64, cur []mergeCursor, s *Scratch) {
	neutral := v.op.Neutral()
	dns := s.grabDense(v.n, neutral)
	for i, ix := range outIdx {
		dns[ix] = outVal[i]
	}
	// The cursor array is already in stream order.
	for ci := range cur {
		c := &cur[ci]
		for p := c.pos; p < len(c.idx); p++ {
			ix := c.idx[p]
			dns[ix] = v.op.Combine(dns[ix], c.val[p])
		}
	}
	// Release buffers only after the tails are folded: the cursors may
	// still reference v's old storage.
	s.putIdx(outIdx)
	s.putVal(outVal)
	s.putIdx(v.idx)
	s.putVal(v.val)
	v.dns = dns
	v.idx, v.val = nil, nil
}

// AddInto reduces other into v coordinate-wise under v's operation,
// mutating v and possibly switching it to the dense representation. This
// implements the "efficient summation" cases of §5.1:
//
//   - sparse + sparse: if the upper bound |H1|+|H2| on the union exceeds δ,
//     v is densified first (the paper avoids computing the exact union size
//     because that is as costly as the merge itself); otherwise a sorted
//     two-way merge produces the result in O(|H1|+|H2|).
//   - dense + sparse: the sparse side's pairs are folded into the dense
//     array in place.
//   - sparse + dense: v's pairs are folded into a copy of the dense input,
//     which v adopts.
//   - dense + dense: element-wise loop over the arrays, reusing v's storage.
//
// Output buffers are drawn from s and v's superseded buffers go back into
// it — the in-place reduction step of the steady-state hot path; a nil
// scratch degrades to plain allocation.
func (v *Vector) AddInto(other *Vector, s *Scratch) {
	if v.n != other.n {
		panic(fmt.Sprintf("stream: dimension mismatch %d vs %d", v.n, other.n))
	}
	if v.op != other.op {
		panic("stream: operation mismatch")
	}
	switch {
	case v.dns == nil && other.dns == nil:
		bound := len(v.idx) + len(other.idx)
		if bound > v.delta {
			v.DensifyInto(s)
			v.addSparseIntoDense(other)
			return
		}
		idx, val := v.mergeSparseInto(other, s.grabIdx(bound), s.grabVal(bound))
		s.putIdx(v.idx)
		s.putVal(v.val)
		v.idx, v.val = idx, val
	case v.dns != nil && other.dns == nil:
		v.addSparseIntoDense(other)
	case v.dns == nil && other.dns != nil:
		dns := s.grabDenseRaw(v.n)
		copy(dns, other.dns)
		for i, ix := range v.idx {
			dns[ix] = v.op.Combine(dns[ix], v.val[i])
		}
		s.putIdx(v.idx)
		s.putVal(v.val)
		v.idx, v.val, v.dns = nil, nil, dns
	default:
		for i, x := range other.dns {
			v.dns[i] = v.op.Combine(v.dns[i], x)
		}
	}
}

// DensifyInto converts the vector to the dense representation in place,
// drawing the dense array from s and releasing the sparse buffers back
// into it.
func (v *Vector) DensifyInto(s *Scratch) {
	if v.dns != nil {
		return
	}
	dns := s.grabDense(v.n, v.op.Neutral())
	for i, ix := range v.idx {
		dns[ix] = v.val[i]
	}
	s.putIdx(v.idx)
	s.putVal(v.val)
	v.dns = dns
	v.idx, v.val = nil, nil
}

// maybeDensifyInto switches to the dense representation, drawn from s,
// when nnz exceeds δ.
func (v *Vector) maybeDensifyInto(s *Scratch) {
	if v.dns == nil && len(v.idx) > v.delta {
		v.DensifyInto(s)
	}
}

// CloneInto returns a deep copy of v whose header and buffers are drawn
// from s. The clone is independent of v; releasing either does not affect
// the other.
func (v *Vector) CloneInto(s *Scratch) *Vector {
	c := s.grabVector(v.n, v.op, v.valueBytes, v.delta)
	if v.dns != nil {
		c.dns = s.grabDenseRaw(v.n)
		copy(c.dns, v.dns)
		return c
	}
	c.idx = append(s.grabIdx(len(v.idx)), v.idx...)
	c.val = append(s.grabVal(len(v.val)), v.val...)
	return c
}

// ExtractRangeInto is ExtractRange with the slice's buffers drawn from s.
func (v *Vector) ExtractRangeInto(lo, hi int, s *Scratch) *Vector {
	return v.extractRange(lo, hi, s)
}
