package stream

import (
	"math/rand"
	"runtime"
	"testing"
	"weak"

	"repro/internal/quant"
)

func TestScratchReleaseAndReuse(t *testing.T) {
	s := NewScratch()
	v := NewSparse(100, []int32{1, 2, 3}, []float64{1, 2, 3}, OpSum)
	idxBuf, valBuf := v.idx, v.val
	s.Release(v)
	if v.idx != nil || v.val != nil || v.dns != nil {
		t.Fatal("Release must void the vector")
	}
	if s.Buffers() != 3 { // idx + val + the recycled header
		t.Fatalf("pool holds %d buffers, want 3", s.Buffers())
	}
	// The next grab of a fitting size must reuse the released storage.
	got := s.grabIdx(3)
	if cap(got) != cap(idxBuf) || &got[:1][0] != &idxBuf[:1][0] {
		t.Fatal("grabIdx did not reuse the released buffer")
	}
	gotV := s.grabVal(3)
	if &gotV[:1][0] != &valBuf[:1][0] {
		t.Fatal("grabVal did not reuse the released buffer")
	}
}

func TestScratchNilSafety(t *testing.T) {
	var s *Scratch
	if b := s.grabIdx(4); cap(b) < 4 {
		t.Fatal("nil scratch grabIdx must allocate")
	}
	if b := s.grabDense(8, -1); len(b) != 8 || b[0] != -1 {
		t.Fatal("nil scratch grabDense must allocate and fill")
	}
	s.Release(NewSparse(10, []int32{1}, []float64{1}, OpSum)) // must not panic
	s.Release(nil)
	if s.Buffers() != 0 {
		t.Fatal("nil scratch has no buffers")
	}
}

func TestScratchGrabDenseClearsStaleData(t *testing.T) {
	s := NewScratch()
	d := NewDense([]float64{5, 6, 7, 8}, OpSum)
	s.Release(d)
	b := s.grabDense(4, 0)
	for i, x := range b {
		if x != 0 {
			t.Fatalf("recycled dense buffer not cleared at %d: %g", i, x)
		}
	}
	d2 := NewDense([]float64{5, 6, 7}, OpMax)
	s.Release(d2)
	b2 := s.grabDense(3, -1)
	for _, x := range b2 {
		if x != -1 {
			t.Fatal("recycled dense buffer not filled with neutral")
		}
	}
}

func TestScratchPoolBounded(t *testing.T) {
	s := NewScratch()
	for i := 0; i < 4*scratchPoolCap; i++ {
		s.Release(NewSparse(10, []int32{1}, []float64{1}, OpSum))
	}
	if s.Buffers() > 3*scratchPoolCap {
		t.Fatalf("pool grew unboundedly: %d buffers", s.Buffers())
	}
}

// TestAddIntoSteadyStateAllocs is the allocation-regression guard for the
// in-place reduction step: once the pool is warm, AddInto must not
// allocate at all for sparse merges below δ.
func TestAddIntoSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 1 << 16
	a := randSparseExact(rng, n, 500)
	b := randSparseExact(rng, n, 500)
	s := NewScratch()
	// Warm the pool: two generations of merge buffers.
	for i := 0; i < 4; i++ {
		c := a.CloneInto(s)
		c.AddInto(b, s)
		s.Release(c)
	}
	allocs := testing.AllocsPerRun(50, func() {
		c := a.CloneInto(s)
		c.AddInto(b, s)
		s.Release(c)
	})
	// One header allocation for the clone's Vector struct is allowed; the
	// idx/val buffers must come from the pool.
	if allocs > 1 {
		t.Fatalf("steady-state CloneInto+AddInto allocates %.1f objects/op, want ≤ 1", allocs)
	}
}

// TestAddAllSteadyStateAllocs: the k-way merge with a warm scratch stays
// allocation-free apart from the cursor slice.
func TestAddAllSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 1 << 16
	const P = 16
	others := make([]*Vector, P-1)
	for i := range others {
		others[i] = randSparseExact(rng, n, 300)
	}
	base := randSparseExact(rng, n, 300)
	s := NewScratch()
	for i := 0; i < 4; i++ {
		acc := base.CloneInto(s)
		acc.AddAll(others, s)
		s.Release(acc)
	}
	allocs := testing.AllocsPerRun(30, func() {
		acc := base.CloneInto(s)
		acc.AddAll(others, s)
		s.Release(acc)
	})
	// Vector header + cursor slice; everything else must be pooled.
	if allocs > 2 {
		t.Fatalf("steady-state AddAll allocates %.1f objects/op, want ≤ 2", allocs)
	}
}

// TestChainedAddAllocsBaseline documents what the k-way/scratch path is
// being compared against: the chained two-way merge allocates fresh
// buffers for every Add.
func TestChainedAddAllocsBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 1 << 16
	const P = 16
	others := make([]*Vector, P-1)
	for i := range others {
		others[i] = randSparseExact(rng, n, 300)
	}
	base := randSparseExact(rng, n, 300)
	chained := testing.AllocsPerRun(10, func() {
		acc := base.Clone()
		for _, o := range others {
			acc.Add(o)
		}
	})
	s := NewScratch()
	for i := 0; i < 4; i++ {
		acc := base.CloneInto(s)
		acc.AddAll(others, s)
		s.Release(acc)
	}
	kway := testing.AllocsPerRun(10, func() {
		acc := base.CloneInto(s)
		acc.AddAll(others, s)
		s.Release(acc)
	})
	if kway > chained/2 {
		t.Fatalf("k-way+scratch allocates %.1f/op vs chained %.1f/op — want ≥ 50%% reduction", kway, chained)
	}
}

// TestScratchGrabTakesSmallestFit: a released result-sized buffer must
// still be there when a result-sized request comes, however many small
// requests were served first and whatever the release order.
func TestScratchGrabTakesSmallestFit(t *testing.T) {
	s := NewScratch()
	for _, c := range []int{8, 4096, 64, 8} { // the big one is neither first nor last
		s.putIdx(make([]int32, 0, c))
		s.putVal(make([]float64, 0, c))
	}
	for _, want := range []int{8, 8, 64} {
		if got := cap(s.grabIdx(5)); got != want {
			t.Fatalf("grabIdx(5) took a buffer of capacity %d, want %d", got, want)
		}
		if got := cap(s.grabVal(5)); got != want {
			t.Fatalf("grabVal(5) took a buffer of capacity %d, want %d", got, want)
		}
	}
	if got := cap(s.grabIdx(4000)); got != 4096 {
		t.Fatalf("grabIdx(4000) got capacity %d: the large buffer was not kept for it", got)
	}
	if got := cap(s.grabIdx(5)); got != 5 {
		t.Fatalf("empty pool served capacity %d", got)
	}
}

// TestScratchPopsDropTheirSlot: a grab shortens a free list, and the slot
// it vacates must not keep what it handed out reachable from the pool's
// backing array. Otherwise a header and buffers reused as a caller's
// result — a reclaimed lent block among them — stay pinned by the pool
// after the caller drops them. Every pooled kind is taken from a list of
// two, from its last slot, and dropped; each must then be collectable
// while the pool lives.
func TestScratchPopsDropTheirSlot(t *testing.T) {
	s := NewScratch()
	for _, k := range []int{8, 3} { // the smallest fit, taken below, is the last slot
		idx, val := make([]int32, k), make([]float64, k)
		for i := range idx {
			idx[i], val[i] = int32(i), 1
		}
		s.Release(NewSparse(64, idx, val, OpSum))
		s.PutDense(make([]float64, 64))
	}
	taken := func() (weak.Pointer[Vector], weak.Pointer[int32], weak.Pointer[float64], weak.Pointer[float64]) {
		v := s.grabVector(64, OpSum, DefaultValueBytes, Delta(64, DefaultValueBytes))
		idx, val, dns := s.grabIdx(3), s.grabVal(3), s.grabDenseRaw(64)
		return weak.Make(v), weak.Make(&idx[:1][0]), weak.Make(&val[:1][0]), weak.Make(&dns[0])
	}
	hdr, idx, val, dns := taken()
	runtime.GC()
	runtime.GC()
	if hdr.Value() != nil {
		t.Error("a header taken from the pool and dropped is still reachable")
	}
	if idx.Value() != nil || val.Value() != nil {
		t.Error("an index or value buffer taken from the pool and dropped is still reachable")
	}
	if dns.Value() != nil {
		t.Error("a dense buffer taken from the pool and dropped is still reachable")
	}
	if s.Buffers() != 4 { // one header, index, value and dense buffer left
		t.Fatalf("pool holds %d buffers, want 4", s.Buffers())
	}
	runtime.KeepAlive(s)
}

// TestScratchLendReclaimsOnlyReadBlocks: a lent vector comes back into its
// pool at the first grab after every reader has called ReadDone, and not
// before; a nil pool lends nothing, and the lent list is bounded.
func TestScratchLendReclaimsOnlyReadBlocks(t *testing.T) {
	s := NewScratch()
	v := NewSparse(64, []int32{1, 2, 3}, []float64{1, 2, 3}, OpSum)
	s.Lend(v, 2)
	v.ReadDone()
	if w := s.grabVector(64, OpSum, DefaultValueBytes, 0); w == v || s.Lent() != 1 || s.Buffers() != 0 {
		t.Fatalf("a block with a reader left was taken back (lent %d, buffers %d)", s.Lent(), s.Buffers())
	}
	v.ReadDone()
	if w := s.grabVector(64, OpSum, DefaultValueBytes, 0); w != v || s.Lent() != 0 || s.Buffers() != 2 {
		t.Fatalf("a block every reader is done with was not taken back (lent %d, buffers %d)", s.Lent(), s.Buffers())
	}

	var none *Scratch
	none.Lend(v, 2)
	if none.Lent() != 0 {
		t.Fatal("a nil pool lent")
	}
	for range 2 * lentCap {
		s.Lend(Zero(8, OpSum), 1)
	}
	if s.Lent() != lentCap {
		t.Fatalf("%d blocks lent, want the bound %d", s.Lent(), lentCap)
	}
}

// TestScratchGrabLentWaitsForEveryReader: a lent quantized block — DSAR's
// own block, which the owner encodes into again — comes back from GrabLent
// only once every holder has counted it down, and exactly once. It shares
// the lent list with vectors: a vector grab leaves it lent, Lent counts
// it, and the list's bound covers both kinds.
func TestScratchGrabLentWaitsForEveryReader(t *testing.T) {
	cfg := quant.Config{Bits: 4, Bucket: 2, Norm: quant.NormMax}
	block := func() *quant.Quantized {
		return quant.Encode([]float64{1, -2, 3}, cfg, rand.New(rand.NewSource(1)))
	}
	s := NewScratch()
	q, v := block(), NewSparse(64, []int32{1, 2, 3}, []float64{1, 2, 3}, OpSum)
	s.Lend(q, 2)
	s.Lend(v, 1)
	if got, ok := GrabLent[*quant.Quantized](s); ok || got != nil {
		t.Fatal("a block two holders still read was handed back")
	}
	q.ReadDone()
	if _, ok := GrabLent[*quant.Quantized](s); ok {
		t.Fatal("a block one holder still reads was handed back")
	}
	v.ReadDone()
	if w := s.grabVector(64, OpSum, DefaultValueBytes, 0); w != v || s.Lent() != 1 {
		t.Fatalf("a vector grab did not take back just the read vector (lent %d)", s.Lent())
	}
	q.ReadDone()
	if got, ok := GrabLent[*quant.Quantized](s); !ok || got != q || s.Lent() != 0 {
		t.Fatalf("a block every holder is done with was not handed back (lent %d)", s.Lent())
	}
	if _, ok := GrabLent[*quant.Quantized](s); ok {
		t.Fatal("a block was handed back twice")
	}

	var none *Scratch
	none.Lend(q, 1)
	if _, ok := GrabLent[*quant.Quantized](none); ok || none.Lent() != 0 {
		t.Fatal("a nil pool lent")
	}
	for range lentCap {
		s.Lend(Zero(8, OpSum), 1)
	}
	past := block()
	s.Lend(past, 0)
	if _, ok := GrabLent[*quant.Quantized](s); ok || s.Lent() != lentCap {
		t.Fatalf("a block lent past the bound was kept (lent %d, bound %d)", s.Lent(), lentCap)
	}
}

// TestScratchRandReseeds: the pool's one generator, whatever it drew
// before, continues as a fresh rand.New(rand.NewSource(seed)) would — the
// stochastic rounding of a quantized block depends on it bit for bit — and
// a nil pool leaves the generator to its caller.
func TestScratchRandReseeds(t *testing.T) {
	s := NewScratch()
	for _, seed := range []int64{7, -3, 7} {
		got, want := s.Rand(seed), rand.New(rand.NewSource(seed))
		for i := range 1000 {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d, draw %d: %d, want %d", seed, i, g, w)
			}
		}
	}
	var none *Scratch
	if none.Rand(1) != nil {
		t.Fatal("a nil pool returned a generator")
	}
}
