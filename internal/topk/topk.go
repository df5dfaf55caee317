// Package topk implements the gradient sparsification used by Top-K SGD
// (paper §2.2, §8.3, §8.4): selecting the k largest-magnitude components of
// a gradient vector, either globally or per bucket of consecutive
// coordinates (the paper selects e.g. k=4 out of every 512 consecutive
// entries), together with the error-feedback residual accumulator of
// Algorithm 1/2.
package topk

import (
	"math"

	"repro/internal/stream"
)

// Select returns the indices of the k largest-magnitude entries of v, in
// ascending index order. Ties are broken toward lower indices, making the
// selection deterministic. If k >= len(v) all indices are returned. Which
// entries survive next to a NaN is unspecified. Select is the reference the
// per-bucket scan of appendTopK is tested against, and what serves a k too
// large for that scan.
func Select(v []float64, k int) []int32 {
	if k < 0 {
		panic("topk: negative k")
	}
	if k >= len(v) {
		out := make([]int32, len(v))
		for i := range out {
			out[i] = int32(i)
		}
		return out
	}
	if k == 0 {
		return nil
	}
	// Min-heap of size k over (|value|, -index) so the smallest retained
	// magnitude sits at the root; ties prefer keeping the lower index.
	h := make([]heapItem, 0, k)
	for i, x := range v {
		m := math.Abs(x)
		if len(h) < k {
			h = append(h, heapItem{m, int32(i)})
			siftUp(h, len(h)-1)
			continue
		}
		if less(heapItem{m, int32(i)}, h[0]) {
			continue
		}
		h[0] = heapItem{m, int32(i)}
		siftDown(h, 0)
	}
	out := make([]int32, len(h))
	for i, it := range h {
		out[i] = it.idx
	}
	sortIdx(out)
	return out
}

type heapItem struct {
	mag float64
	idx int32
}

// less orders items by magnitude, breaking ties by preferring higher index
// as "smaller" so that lower indices survive eviction.
func less(a, b heapItem) bool {
	if a.mag != b.mag {
		return a.mag < b.mag
	}
	return a.idx > b.idx
}

func siftUp(h []heapItem, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func siftDown(h []heapItem, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && less(h[l], h[smallest]) {
			smallest = l
		}
		if r < len(h) && less(h[r], h[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

func sortIdx(a []int32) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
		if i >= 64 {
			// Fall back for large k: shell sort pass covers the rest.
			shellSort(a)
			return
		}
	}
}

func shellSort(a []int32) {
	for gap := len(a) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(a); i++ {
			for j := i; j >= gap && a[j] < a[j-gap]; j -= gap {
				a[j], a[j-gap] = a[j-gap], a[j]
			}
		}
	}
}

// insertScanMaxK is the largest k appendTopK keeps in its fixed array; the
// paper selects 4 to 16 entries of every 512 (§8.3).
const insertScanMaxK = 64

// appendTopK appends the k largest-magnitude entries of v to idx and val as
// (off+i, v[i]) pairs in ascending index order and returns the extended
// slices: Select's choice, ties toward lower indices included, made
// without a heap or an index slice of its own. The retained set lives in a
// fixed array sorted by (magnitude descending, index ascending), so its
// last slot holds the k-th magnitude — nearly every entry is rejected
// against it with one comparison — and is the one an insertion evicts. A
// selected entry equal to zero is left out: a stream holds no neutral
// values. NaN inputs are unspecified, as for Select.
func appendTopK(idx []int32, val []float64, v []float64, off int32, k int) ([]int32, []float64) {
	emit := func(i int32) {
		if x := v[i]; x != 0 {
			idx = append(idx, off+i)
			val = append(val, x)
		}
	}
	switch {
	case k < 0:
		panic("topk: negative k")
	case k == 0:
		return idx, val
	case k >= len(v):
		for i := range v {
			emit(int32(i))
		}
		return idx, val
	case k > insertScanMaxK:
		for _, i := range Select(v, k) {
			emit(i)
		}
		return idx, val
	}
	var (
		mag [insertScanMaxK]float64
		pos [insertScanMaxK]int32
	)
	// insert places entry i of magnitude m into slots [0, last], shifting
	// smaller magnitudes down; whatever sat in slot last falls out. Equal
	// magnitudes stay ahead of it: they have lower indices.
	insert := func(m float64, i, last int) {
		j := last
		for ; j > 0 && mag[j-1] < m; j-- {
			mag[j], pos[j] = mag[j-1], pos[j-1]
		}
		mag[j], pos[j] = m, int32(i)
	}
	for i := 0; i < k; i++ {
		insert(math.Abs(v[i]), i, i)
	}
	kth := mag[k-1]
	for i := k; i < len(v); i++ {
		if m := math.Abs(v[i]); m > kth {
			insert(m, i, k-1)
			kth = mag[k-1]
		}
	}
	sel := pos[:k]
	sortIdx(sel)
	for _, i := range sel {
		emit(i)
	}
	return idx, val
}

// selectBuckets appends the per-bucket TopK of v — the k largest-magnitude
// entries of every `bucket` consecutive coordinates, min(k, len) of a short
// last bucket — as (off+i, v[i]) pairs, into the zero-length idx and val
// when their capacity holds the selection and into exactly pre-sized new
// slices otherwise. bucket <= 0 selects the k largest of all of v.
func selectBuckets(idx []int32, val []float64, v []float64, off int32, bucket, k int) ([]int32, []float64) {
	if bucket <= 0 || bucket > len(v) {
		bucket = len(v)
	}
	if bucket > 0 && k > 0 {
		bound := len(v) / bucket * min(k, bucket)
		bound += min(k, len(v)%bucket)
		if cap(idx) < bound {
			idx = make([]int32, 0, bound)
		}
		if cap(val) < bound {
			val = make([]float64, 0, bound)
		}
	}
	for lo := 0; lo < len(v); lo += bucket {
		hi := min(lo+bucket, len(v))
		idx, val = appendTopK(idx, val, v[lo:hi], off+int32(lo), k)
	}
	return idx, val
}

// Sparsify returns a sparse stream holding the k largest-magnitude entries
// of v (global selection).
func Sparsify(v []float64, k int) *stream.Vector {
	idx, val := selectBuckets(nil, nil, v, 0, 0, k)
	return stream.WrapSparse(len(v), idx, val, stream.OpSum)
}

// SparsifyBuckets splits v into buckets of `bucket` consecutive coordinates
// and keeps the k largest-magnitude entries of each bucket (the per-bucket
// TopK of §8.3: "we select k = 8 and 16 entries from every bucket of 512
// consecutive elements"). The final short bucket keeps min(k, len) entries.
func SparsifyBuckets(v []float64, bucket, k int) *stream.Vector {
	if bucket <= 0 {
		panic("topk: bucket must be positive")
	}
	idx, val := selectBuckets(nil, nil, v, 0, bucket, k)
	return stream.WrapSparse(len(v), idx, val, stream.OpSum)
}

// Residual is the error-feedback accumulator of Algorithm 1/2: components
// not selected for transmission accumulate locally and are re-added to the
// next gradient ("The value of the components which are not chosen is
// accumulated, and added to the gradient vector of the next iteration").
type Residual struct {
	acc []float64
	// idx and val hold ExtractSpanInto's selection until it is copied into
	// the caller's pool; the next call reuses them.
	idx []int32
	val []float64
}

// NewResidual creates a zeroed accumulator of dimension n.
func NewResidual(n int) *Residual { return &Residual{acc: make([]float64, n)} }

// Rebind makes acc, which the caller has zeroed, the accumulator, keeping
// the selection buffers: a residual kept across training runs can work in
// each run's pooled storage (stream.Scratch.GrabDense).
func (r *Residual) Rebind(acc []float64) { r.acc = acc }

// Dim returns the accumulator dimension.
func (r *Residual) Dim() int { return len(r.acc) }

// Accumulate adds grad (scaled by lr) into the residual and returns the
// accumulator acc_t = eps_{t-1} + lr·grad. The returned slice is the
// internal buffer; callers must not retain it across calls.
func (r *Residual) Accumulate(grad []float64, lr float64) []float64 {
	if len(grad) != len(r.acc) {
		panic("topk: gradient dimension mismatch")
	}
	for i, g := range grad {
		r.acc[i] += lr * g
	}
	return r.acc
}

// Extract selects the per-bucket TopK of the accumulator, removes the
// selected entries from the residual (eps_t = acc_t − TopK(acc_t)), and
// returns them as a sparse stream. bucket<=0 selects globally.
func (r *Residual) Extract(bucket, k int) *stream.Vector {
	return r.ExtractSpan(0, len(r.acc), bucket, k)
}

// ExtractSpan is Extract restricted to the coordinate range [lo, hi) — one
// layer's slice of the flat parameter buffer. Used for layer-wise gradient
// exchange (§8.3). The returned stream is over the full dimension with
// global indices; selected entries are removed from the residual. The
// selection appends global pairs in index order into the stream's own
// storage, so nothing is copied or sorted after it.
func (r *Residual) ExtractSpan(lo, hi, bucket, k int) *stream.Vector {
	return r.ExtractSpanInto(lo, hi, bucket, k, nil)
}

// ExtractSpanInto is ExtractSpan with the returned stream's header and
// buffers drawn from sc; a nil sc is ExtractSpan. The selection is made into
// storage the residual keeps for the next call and then copied into the
// pool, so a caller that releases every stream back into sc once it is done
// with it extracts from recycled storage step after step. The stream is
// the same, bit for bit, with or without a pool.
func (r *Residual) ExtractSpanInto(lo, hi, bucket, k int, sc *stream.Scratch) *stream.Vector {
	if lo < 0 || hi > len(r.acc) || lo > hi {
		panic("topk: bad span")
	}
	var idx []int32
	var val []float64
	if sc != nil {
		idx, val = r.idx[:0], r.val[:0]
	}
	idx, val = selectBuckets(idx, val, r.acc[lo:hi], int32(lo), bucket, k)
	for _, ix := range idx {
		r.acc[ix] = 0
	}
	if sc == nil {
		return stream.WrapSparse(len(r.acc), idx, val, stream.OpSum)
	}
	r.idx, r.val = idx, val
	return stream.WrapSparseInto(len(r.acc), idx, val, stream.OpSum, sc)
}

// Norm returns the L2 norm of the residual, used to track error-feedback
// magnitude in convergence experiments.
func (r *Residual) Norm() float64 {
	s := 0.0
	for _, x := range r.acc {
		s += x * x
	}
	return math.Sqrt(s)
}

// Reset zeroes the accumulator.
func (r *Residual) Reset() {
	for i := range r.acc {
		r.acc[i] = 0
	}
}
