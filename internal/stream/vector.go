package stream

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// IndexBytes is the wire size of one non-zero index. The paper fixes the
// index datatype to a 4-byte unsigned int because problem dimensions exceed
// 65k (§8, Setup).
const IndexBytes = 4

// HeaderBytes is the wire size of the stream header: one format flag byte
// ("we add an extra value to the beginning of each vector that indicates
// whether the vector is dense or sparse", §5.1) plus a 4-byte non-zero
// count for the sparse case.
const HeaderBytes = 5

// DefaultValueBytes is the wire size of one value in full precision
// (float64). Streams can also account values as 4-byte float32 for modeling
// single-precision deployments; storage is always float64.
const DefaultValueBytes = 8

// Delta returns the sparsity-efficiency threshold δ = N·isize/(c+isize)
// (§5.1): the largest non-zero count for which the sparse wire format is no
// larger than the dense one. valueBytes is the per-value wire size (isize)
// and IndexBytes is c.
func Delta(n, valueBytes int) int {
	if n < 0 {
		panic("stream: negative dimension")
	}
	return n * valueBytes / (IndexBytes + valueBytes)
}

// Vector is a sparse stream over the universe [0, N): a vector that is
// stored either as sorted index–value pairs or as a dense array, switching
// representation automatically during reductions when the non-zero count
// crosses the δ threshold.
//
// The zero Vector is not usable; construct with NewSparse, NewDense,
// FromDense, or Zero.
type Vector struct {
	n   int
	op  Op
	idx []int32   // sorted, strictly increasing; nil iff dense
	val []float64 // parallel to idx when sparse
	dns []float64 // length n; non-nil iff dense

	valueBytes int // wire size per value (4 or 8); storage is float64
	delta      int // switch-to-dense threshold; default Delta(n, valueBytes)

	// readers counts the holders still reading a lent vector
	// (Scratch.Lend, ReadDone); zero when it is not lent.
	readers atomic.Int32
}

// Zero returns an empty (all-neutral) sparse vector of dimension n for the
// given reduction operation.
func Zero(n int, op Op) *Vector {
	if n <= 0 {
		panic("stream: dimension must be positive")
	}
	return &Vector{n: n, op: op, valueBytes: DefaultValueBytes, delta: Delta(n, DefaultValueBytes)}
}

// NewSparse builds a sparse vector of dimension n from index–value pairs.
// Indices need not be sorted but must be unique and in [0, n). The slices
// are copied. Values equal to the operation's neutral element are dropped.
func NewSparse(n int, idx []int32, val []float64, op Op) *Vector {
	if len(idx) != len(val) {
		panic("stream: index/value length mismatch")
	}
	v := Zero(n, op)
	neutral := op.Neutral()
	pairs := make([]pair, 0, len(idx))
	for i, ix := range idx {
		if ix < 0 || int(ix) >= n {
			panic(fmt.Sprintf("stream: index %d out of range [0,%d)", ix, n))
		}
		if val[i] == neutral {
			continue
		}
		pairs = append(pairs, pair{ix, val[i]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].ix < pairs[j].ix })
	for i := 1; i < len(pairs); i++ {
		if pairs[i].ix == pairs[i-1].ix {
			panic(fmt.Sprintf("stream: duplicate index %d", pairs[i].ix))
		}
	}
	v.idx = make([]int32, len(pairs))
	v.val = make([]float64, len(pairs))
	for i, p := range pairs {
		v.idx[i] = p.ix
		v.val[i] = p.v
	}
	v.maybeDensifyInto(nil)
	return v
}

// WrapSparse builds a vector of dimension n that takes ownership of idx and
// val without copying or sorting, for producers that emit pairs in order
// (NewSparse copies and sorts). The indices must be strictly ascending and
// in [0, n) and no value may be the operation's neutral element; the first
// two are checked. Like NewSparse, the result is dense when the pairs
// exceed δ. The caller must not use the slices afterwards.
func WrapSparse(n int, idx []int32, val []float64, op Op) *Vector {
	checkWrapped(n, idx, val)
	v := Zero(n, op)
	v.idx, v.val = idx, val
	v.maybeDensifyInto(nil)
	return v
}

// WrapSparseInto is WrapSparse(n, idx, val, op).CloneInto(s) without the
// intermediate vector: the checked pairs are copied into a header and
// buffers drawn from s — straight into dense storage when they exceed δ —
// and idx and val stay the caller's. The stream is the same, bit for bit.
func WrapSparseInto(n int, idx []int32, val []float64, op Op, s *Scratch) *Vector {
	checkWrapped(n, idx, val)
	v := s.grabVector(n, op, DefaultValueBytes, Delta(n, DefaultValueBytes))
	if len(idx) > v.delta {
		v.dns = s.grabDense(n, op.Neutral())
		for i, ix := range idx {
			v.dns[ix] = val[i]
		}
		return v
	}
	v.idx = append(s.grabIdx(len(idx)), idx...)
	v.val = append(s.grabVal(len(val)), val...)
	return v
}

// checkWrapped panics unless idx and val are WrapSparse's input over a
// positive dimension n: as many values as indices, indices strictly
// ascending and in [0, n).
func checkWrapped(n int, idx []int32, val []float64) {
	if len(idx) != len(val) {
		panic("stream: index/value length mismatch")
	}
	if n <= 0 {
		panic("stream: dimension must be positive")
	}
	prev := int32(-1)
	for _, ix := range idx {
		if ix <= prev || int(ix) >= n {
			panic(fmt.Sprintf("stream: index %d out of order or out of range [0,%d)", ix, n))
		}
		prev = ix
	}
}

type pair struct {
	ix int32
	v  float64
}

// NewDense builds a dense vector of dimension len(values). The slice is
// copied.
func NewDense(values []float64, op Op) *Vector {
	v := Zero(len(values), op)
	v.dns = make([]float64, len(values))
	copy(v.dns, values)
	return v
}

// WrapDense builds a dense vector that takes ownership of values without
// copying, for hot paths assembling a result in place (NewDense copies).
// The caller must not use the slice afterwards.
func WrapDense(values []float64, op Op) *Vector {
	v := Zero(len(values), op)
	v.dns = values
	return v
}

// FromDense builds a vector from a dense array, choosing the sparse
// representation when the number of non-neutral entries is at most δ.
func FromDense(values []float64, op Op) *Vector {
	neutral := op.Neutral()
	nnz := 0
	for _, x := range values {
		if x != neutral {
			nnz++
		}
	}
	if nnz > Delta(len(values), DefaultValueBytes) {
		return NewDense(values, op)
	}
	v := Zero(len(values), op)
	v.idx = make([]int32, 0, nnz)
	v.val = make([]float64, 0, nnz)
	for i, x := range values {
		if x != neutral {
			v.idx = append(v.idx, int32(i))
			v.val = append(v.val, x)
		}
	}
	return v
}

// Dim returns the universe size N.
func (v *Vector) Dim() int { return v.n }

// Op returns the reduction operation the vector was built for.
func (v *Vector) Op() Op { return v.op }

// IsDense reports whether the vector currently uses the dense
// representation.
func (v *Vector) IsDense() bool { return v.dns != nil }

// NNZ returns the number of non-neutral entries. For dense vectors this
// scans the array.
func (v *Vector) NNZ() int {
	if v.dns == nil {
		return len(v.idx)
	}
	neutral := v.op.Neutral()
	nnz := 0
	for _, x := range v.dns {
		if x != neutral {
			nnz++
		}
	}
	return nnz
}

// Density returns NNZ()/N.
func (v *Vector) Density() float64 { return float64(v.NNZ()) / float64(v.n) }

// Delta returns the vector's switch-to-dense threshold.
func (v *Vector) Delta() int { return v.delta }

// SetDelta overrides the switch-to-dense threshold. In practice δ should be
// smaller than the pure volume bound to reflect the higher computational
// cost of sparse summation (§5.1). Panics if d is negative.
func (v *Vector) SetDelta(d int) {
	if d < 0 {
		panic("stream: negative delta")
	}
	v.delta = d
	v.maybeDensifyInto(nil)
}

// SetValueBytes sets the modeled wire size per value (4 for float32, 8 for
// float64) and recomputes δ accordingly.
func (v *Vector) SetValueBytes(b int) {
	if b != 4 && b != 8 {
		panic("stream: value size must be 4 or 8 bytes")
	}
	v.valueBytes = b
	v.delta = Delta(v.n, b)
}

// ValueBytes returns the modeled wire size per value.
func (v *Vector) ValueBytes() int { return v.valueBytes }

// Get returns the value at coordinate i (the neutral element if absent).
func (v *Vector) Get(i int) float64 {
	if i < 0 || i >= v.n {
		panic("stream: index out of range")
	}
	if v.dns != nil {
		return v.dns[i]
	}
	j := sort.Search(len(v.idx), func(k int) bool { return v.idx[k] >= int32(i) })
	if j < len(v.idx) && v.idx[j] == int32(i) {
		return v.val[j]
	}
	return v.op.Neutral()
}

// ToDense materializes the vector as a length-N float64 slice (always a
// fresh copy), with absent coordinates set to the neutral element.
func (v *Vector) ToDense() []float64 {
	out := make([]float64, v.n)
	if v.dns != nil {
		copy(out, v.dns)
		return out
	}
	if neutral := v.op.Neutral(); neutral != 0 {
		for i := range out {
			out[i] = neutral
		}
	}
	for i, ix := range v.idx {
		out[ix] = v.val[i]
	}
	return out
}

// Pairs returns the sparse index and value slices. The returned slices are
// the vector's backing storage and must not be modified. Panics if the
// vector is dense.
func (v *Vector) Pairs() ([]int32, []float64) {
	if v.dns != nil {
		panic("stream: Pairs on dense vector")
	}
	return v.idx, v.val
}

// Clone returns a deep copy: CloneInto without a pool.
func (v *Vector) Clone() *Vector { return v.CloneInto(nil) }

// Densify converts the vector to the dense representation in place:
// DensifyInto without a pool.
func (v *Vector) Densify() { v.DensifyInto(nil) }

// Sparsify converts the vector to the sparse representation in place,
// regardless of δ. Useful for tests and for re-sparsifying after TopK.
func (v *Vector) Sparsify() {
	if v.dns == nil {
		return
	}
	neutral := v.op.Neutral()
	idx := make([]int32, 0, 64)
	val := make([]float64, 0, 64)
	for i, x := range v.dns {
		if x != neutral {
			idx = append(idx, int32(i))
			val = append(val, x)
		}
	}
	v.idx, v.val = idx, val
	v.dns = nil
}

// WireBytes returns the number of bytes the vector occupies on the wire in
// its current representation: HeaderBytes + nnz·(c+isize) when sparse,
// HeaderBytes + N·isize when dense (§5.1).
func (v *Vector) WireBytes() int {
	if v.dns != nil {
		return HeaderBytes + v.n*v.valueBytes
	}
	return HeaderBytes + len(v.idx)*(IndexBytes+v.valueBytes)
}

// Equal reports whether two vectors represent the same mathematical vector
// (regardless of representation).
func (v *Vector) Equal(o *Vector) bool {
	if v.n != o.n {
		return false
	}
	for i := 0; i < v.n; i++ {
		if v.Get(i) != o.Get(i) {
			return false
		}
	}
	return true
}

// String summarizes the vector for debugging.
func (v *Vector) String() string {
	repr := "sparse"
	if v.dns != nil {
		repr = "dense"
	}
	return fmt.Sprintf("Vector{n=%d %s nnz=%d op=%s}", v.n, repr, v.NNZ(), v.op)
}
