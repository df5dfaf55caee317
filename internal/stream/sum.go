package stream

import "fmt"

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

// mergeSparseInto appends the sorted two-way merge of v and other into the
// provided buffers and returns them (the scratch-pooled twin of
// mergeSparse; see AddInto).
func (v *Vector) mergeSparseInto(other *Vector, idx []int32, val []float64) ([]int32, []float64) {
	a, av := v.idx, v.val
	b, bv := other.idx, other.val
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			idx = append(idx, a[i])
			val = append(val, av[i])
			i++
		case a[i] > b[j]:
			idx = append(idx, b[j])
			val = append(val, bv[j])
			j++
		default:
			combined := v.op.Combine(av[i], bv[j])
			// Cancellation can re-create the neutral element; drop it to
			// keep the representation canonical.
			if combined != v.op.Neutral() {
				idx = append(idx, a[i])
				val = append(val, combined)
			}
			i++
			j++
		}
	}
	idx = append(idx, a[i:]...)
	val = append(val, av[i:]...)
	idx = append(idx, b[j:]...)
	val = append(val, bv[j:]...)
	return idx, val
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
