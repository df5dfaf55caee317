package stream

import (
	"fmt"
	"math"
)

// Add reduces other into v coordinate-wise under v's operation, mutating v
// and possibly switching it to the dense representation. This implements
// the "efficient summation" cases of §5.1:
//
//   - sparse + sparse: if the upper bound |H1|+|H2| on the union exceeds δ,
//     v is densified first (the paper avoids computing the exact union size
//     because that is as costly as the merge itself); otherwise a sorted
//     two-way merge produces the result in O(|H1|+|H2|).
//   - dense + sparse: the sparse side's pairs are folded into the dense
//     array in place.
//   - dense + dense: element-wise loop over the arrays, reusing v's storage.
func (v *Vector) Add(other *Vector) {
	if v.n != other.n {
		panic(fmt.Sprintf("stream: dimension mismatch %d vs %d", v.n, other.n))
	}
	if v.op != other.op {
		panic("stream: operation mismatch")
	}
	switch {
	case v.dns == nil && other.dns == nil:
		if len(v.idx)+len(other.idx) > v.delta {
			v.Densify()
			v.addSparseIntoDense(other)
			return
		}
		v.mergeSparse(other)
	case v.dns != nil && other.dns == nil:
		v.addSparseIntoDense(other)
	case v.dns == nil && other.dns != nil:
		// Iterate over v's sparse pairs, setting positions in a copy of the
		// dense input; then adopt the dense result.
		dns := append([]float64(nil), other.dns...)
		for i, ix := range v.idx {
			dns[ix] = v.op.Combine(dns[ix], v.val[i])
		}
		v.dns = dns
		v.idx, v.val = nil, nil
	default:
		for i, x := range other.dns {
			v.dns[i] = v.op.Combine(v.dns[i], x)
		}
	}
}

func (v *Vector) addSparseIntoDense(other *Vector) {
	for i, ix := range other.idx {
		v.dns[ix] = v.op.Combine(v.dns[ix], other.val[i])
	}
}

// mergeSparse performs the sorted two-way merge of two sparse vectors.
func (v *Vector) mergeSparse(other *Vector) {
	bound := len(v.idx) + len(other.idx)
	v.idx, v.val = v.mergeSparseInto(other,
		make([]int32, 0, bound), make([]float64, 0, bound))
}

// mergeSparseInto writes the sorted two-way merge of v and other into the
// provided buffers, whose capacity must be at least |v|+|other|, and returns
// them cut to the merged length (the scratch-pooled twin of mergeSparse; see
// AddInto). Distinct keys go through the branch-free mergeDistinct; a run
// of equal keys is folded here with Combine, dropping the neutral element
// exactly as a three-way merge does, so the output is bit-identical to one
// (FuzzTwoWayMergeEquivalence). The equal-key branch is rare on random
// supports and always taken on identical ones, so it predicts well either
// way.
func (v *Vector) mergeSparseInto(other *Vector, idx []int32, val []float64) ([]int32, []float64) {
	a, av := v.idx, v.val
	b, bv := other.idx, other.val
	idx, val = idx[:len(a)+len(b)], val[:len(a)+len(b)]
	neutral := v.op.Neutral()
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		i, j, k = mergeDistinct(a, av, b, bv, idx, val, i, j, k)
		for i < len(a) && j < len(b) && a[i] == b[j] {
			// Cancellation can re-create the neutral element; drop it to
			// keep the representation canonical.
			if c := v.op.Combine(av[i], bv[j]); c != neutral {
				idx[k], val[k] = a[i], c
				k++
			}
			i++
			j++
		}
	}
	copy(val[k:], av[i:])
	k += copy(idx[k:], a[i:])
	copy(val[k:], bv[j:])
	k += copy(idx[k:], b[j:])
	return idx[:k], val[:k]
}

// mergeDistinct merges a[i:] and b[j:] into idx/val from position k until
// one side runs out or the two cursors meet equal keys, and returns the
// three positions. Recursive doubling merges supports that interleave at
// random, so a three-way compare would guess wrong on about half the keys;
// here nothing branches on the comparison. The smaller key and its value
// are picked with conditional moves — the value as raw bits, because the
// compiler selects integers without a branch but not floats — and the
// cursor that advances is the comparison's sign bit. The function holds no
// call, so its cursors stay in registers (k is i+j plus a constant here),
// and the loop runs at the latency of one load and compare per output.
// Small rewrites of the select quietly compile back into branches and then
// run as slowly as a mispredicting merge: check the disassembly for CMOVs
// (go build -gcflags=-S ./internal/stream) after touching it.
func mergeDistinct(a []int32, av []float64, b []int32, bv []float64, idx []int32, val []float64, i, j, k int) (int, int, int) {
	av, bv = av[:len(a)], bv[:len(b)] // equal lengths drop the value bounds checks
	val = val[:len(idx)]
	off := k - i - j
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		if x == y {
			break
		}
		key, bits := y, math.Float64bits(bv[j])
		if xb := math.Float64bits(av[i]); x < y {
			key, bits = x, xb
		}
		w := i + j + off
		idx[w], val[w] = key, math.Float64frombits(bits)
		fromA := int(uint64(int64(x)-int64(y)) >> 63)
		i += fromA
		j += 1 - fromA
	}
	return i, j, i + j + off
}

// Concat merges two vectors whose index sets are guaranteed disjoint (the
// partition-by-dimension case of §5.1, where the sum is a simple
// concatenation). Panics if an overlap is detected during the merge. Both
// inputs must be sparse.
func (v *Vector) Concat(other *Vector) {
	if v.dns != nil || other.dns != nil {
		panic("stream: Concat requires sparse inputs")
	}
	if v.n != other.n || v.op != other.op {
		panic("stream: mismatched vectors")
	}
	if len(v.idx)+len(other.idx) > v.delta {
		// Densify path. A freshly densified canonical vector holds the
		// neutral element exactly at its absent coordinates, so the overlap
		// accounting reduces to checking that every incoming (non-neutral)
		// entry lands on a neutral slot — the densify path must uphold the
		// documented overlap panic just like the merge path below.
		v.Densify()
		neutral := v.op.Neutral()
		for i, ix := range other.idx {
			if v.dns[ix] != neutral {
				panic("stream: Concat inputs overlap")
			}
			v.dns[ix] = v.op.Combine(v.dns[ix], other.val[i])
		}
		return
	}
	// Fast path: strictly ordered ranges concatenate without a merge.
	if len(v.idx) == 0 || len(other.idx) == 0 ||
		v.idx[len(v.idx)-1] < other.idx[0] {
		v.idx = append(v.idx, other.idx...)
		v.val = append(v.val, other.val...)
		return
	}
	if other.idx[len(other.idx)-1] < v.idx[0] {
		total := len(v.idx) + len(other.idx)
		v.idx = append(append(make([]int32, 0, total), other.idx...), v.idx...)
		v.val = append(append(make([]float64, 0, total), other.val...), v.val...)
		return
	}
	// Interleaved but disjoint: merge, panicking on equality.
	before := len(v.idx) + len(other.idx)
	v.mergeSparse(other)
	if len(v.idx) != before {
		panic("stream: Concat inputs overlap")
	}
}

// ExtractRange returns a new vector over the same universe holding only
// the coordinates in [lo, hi). Indices stay global. Used by the split
// phase of the SSAR/DSAR split-allgather algorithms (§5.3.2). The result
// is canonical: when more than δ coordinates of a dense input fall in the
// range, it is returned in the dense representation rather than as an
// over-long sparse vector.
func (v *Vector) ExtractRange(lo, hi int) *Vector {
	return v.extractRange(lo, hi, nil)
}

func (v *Vector) extractRange(lo, hi int, s *Scratch) *Vector {
	if lo < 0 || hi > v.n || lo > hi {
		panic("stream: bad range")
	}
	out := s.grabVector(v.n, v.op, v.valueBytes, v.delta)
	if v.dns != nil {
		neutral := v.op.Neutral()
		// The range holds at most hi−lo entries, but anything past δ
		// densifies below, so δ+1 bounds the useful sparse capacity.
		bound := hi - lo
		if bound > v.delta+1 {
			bound = v.delta + 1
		}
		out.idx = s.grabIdx(bound)
		out.val = s.grabVal(bound)
		for i := lo; i < hi; i++ {
			if v.dns[i] != neutral {
				out.idx = append(out.idx, int32(i))
				out.val = append(out.val, v.dns[i])
			}
		}
		// Keep the representation canonical: a dense input can contribute
		// more than δ coordinates to the range.
		out.maybeDensifyInto(s)
		return out
	}
	loPos := searchInt32(v.idx, int32(lo))
	hiPos := searchInt32(v.idx, int32(hi))
	out.idx = append(s.grabIdx(hiPos-loPos), v.idx[loPos:hiPos]...)
	out.val = append(s.grabVal(hiPos-loPos), v.val[loPos:hiPos]...)
	return out
}

func searchInt32(a []int32, x int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Scale multiplies every present entry by s. Only meaningful for OpSum.
func (v *Vector) Scale(s float64) {
	if v.dns != nil {
		for i := range v.dns {
			v.dns[i] *= s
		}
		return
	}
	for i := range v.val {
		v.val[i] *= s
	}
}
