package stream

import "math/rand"

// Scratch is a pool of reusable vector buffers for the reduction hot path.
// The chained two-way merges of an allreduce allocate fresh idx/val slices
// on every Add; a Scratch lets the in-place
// variants (AddInto, AddAll, ExtractRangeInto, CloneInto, DensifyInto)
// draw their output buffers from a free list and return superseded buffers
// to it, so steady-state reductions perform near-zero allocations.
//
// Ownership discipline:
//
//   - A Scratch belongs to ONE goroutine (one rank). It must never be
//     shared across ranks or across concurrently running collectives
//     (e.g. overlapping nonblocking operations) — it performs no locking.
//     A comm.World keeps one per rank for the world's life
//     (comm.Proc.Pool), so what a call leaves in it warms the next call;
//     collectives a rank keeps in flight at once each run on a child pool
//     of its own (Child), which persists with its parent.
//   - Release(v) hands v's backing buffers to the pool and voids v. Only
//     release vectors this goroutine exclusively owns (typically vectors
//     received from a peer and already merged, local temporaries, or a
//     collective's result its caller is done with); never release a
//     vector someone else may still read — one handed on to a caller, one
//     whose Pairs() slices are referenced elsewhere, or a block gathered
//     by an allgather, which every rank holds.
//   - A block several holders read at once is lent instead: Lend(b, n)
//     records that n holders read b, each calls b.ReadDone once it is
//     done, and the pool hands b back, on its own goroutine, once the
//     count has reached zero: a vector at one of its later grabs, as
//     Release would, any other Lendable to GrabLent. A split allgather
//     lends its rank's reduced partition this way (core), and DSAR its
//     quantized own block, which GrabLent returns for quant.EncodeInto:
//     the block is read by every rank of the communicator where sends
//     hand payloads over by reference, and by its owner alone over TCP,
//     where peers read framed copies. The pool never waits — a block
//     still being read stays lent and the grab allocates instead — and
//     the lent list is bounded like the free lists: a block lent past it
//     is left to the GC.
//   - The pool also keeps the block lists of the allgathers and the
//     per-call slices of the split phase (GrabList, PutList): each in the
//     interface value it was first boxed in, so a list sent as a payload
//     is not boxed again, and cleared when put back, since the blocks it
//     named are other ranks' too. A list sent in process is the
//     receiver's, so lists move between pools as vectors do. And it keeps
//     one random generator, which Rand reseeds for each stochastic
//     quantization.
//   - A grab takes the smallest pooled buffer that fits, so a large
//     buffer — a released result — waits for a large request instead of
//     leaving with the first small one.
//   - An index or value grab that narrowly misses replaces the buffer it
//     missed: when no pooled buffer fits c — or the only ones that fit are
//     more than twice c, which a larger request is likely to need — the
//     largest buffer of capacity ≥ c/2 is dropped and the new one gets
//     capacity c + c/4, so a request that grows by a few percent costs one
//     allocation rather than one more pooled buffer for good. A miss with
//     nothing that close allocates exactly c and keeps every buffer: a
//     pool whose results never come back lives on its small ones. Without
//     the rule, pools whose results are released (one per bucket of a
//     training step) climb toward scratchPoolCap, as the clones that pass
//     between ranks keep arriving a little too small.
//   - Buffers may migrate between ranks: on both in-process backends
//     (simulator and goroutine) a sent vector is handed over by reference,
//     so one built from rank A's scratch and sent to rank B is owned by B
//     on receipt and may be released into B's scratch. Collectives are
//     symmetric, so pools reach a steady state where sends drain and
//     receives replenish them; a buffer from outside that exchange (a
//     plain-allocated merge output, say) released on every op only fills
//     the free lists. Over TCP only bytes cross, and the same balance
//     holds through a second pool: a collective hands each vector it has
//     sent to comm.Proc.Recycle, which puts it into the decode pool of
//     the rank's TCP endpoint (itself a Scratch, behind a lock), and the
//     rank's socket readers decode its arrivals into that pool
//     (DecodeWireInto). The arrivals are released here as on any backend,
//     so this pool loses its sent vectors and gains the arrivals, and the
//     endpoint's gains the sent vectors and loses the arrivals.
//
// The zero value is ready to use; all methods are nil-safe (a nil *Scratch
// degrades to plain allocation, so every scratch-aware code path can take
// an optional pool; Rand alone leaves the allocation to its caller).
type Scratch struct {
	idx [][]int32
	val [][]float64
	dns [][]float64
	hdr []*Vector // voided Vector headers, recycled by grabVector
	// lent holds the blocks lent out (Lend) and not yet taken back.
	lent []Lendable
	// lists holds boxed lists with their entries cleared (GrabList).
	lists []any
	// rng is the generator Rand reseeds.
	rng *rand.Rand
	// bits is the one presence bitmap of the windowed merge kernel: AddAll
	// calls never nest on one Scratch, so one reusable slice is the pool.
	bits []uint64
	// agree is the storage of the pool owner's repeated dense agreements
	// (Agreement).
	agree DenseWorkspace
	// children are the pools Child has made, kept for the pool's life.
	children []*Scratch
}

// DenseWorkspace is the caller-held storage of a repeated dense
// recursive-doubling allreduce (core.AllreduceDenseRecDoubleInto): Acc,
// the accumulator a call builds its result in, and Spare, the rank's last
// arrival, kept in the interface value it arrived in. An arrival is its
// receiver's (the comm.Message ownership rule), so the next call of the
// same length copies its input into Acc and Spare and sends Spare at its
// first stage, with nothing allocated or boxed. The zero value is ready to
// use; like a Scratch, a workspace belongs to one goroutine.
type DenseWorkspace struct {
	Acc   []float64
	Spare any
}

// Agreement returns the pool's dense-agreement workspace, which the
// collective owning the pool uses for its one-word Auto agreement; nil on
// a nil pool.
func (s *Scratch) Agreement() *DenseWorkspace {
	if s == nil {
		return nil
	}
	return &s.agree
}

// Child returns s's i-th child pool, made empty at its first call and kept
// with s from then on: a pool of its own for the i-th of the collectives its
// owner keeps in flight at once (a training step's bucket b runs on child
// b), which must share neither s nor each other. A child is a pool like
// any other and belongs to the goroutine running its collective; only s's
// owner calls Child. A nil pool's children are nil.
func (s *Scratch) Child(i int) *Scratch {
	if s == nil {
		return nil
	}
	if i >= len(s.children) {
		s.children = append(s.children, make([]*Scratch, i+1-len(s.children))...)
	}
	if s.children[i] == nil {
		s.children[i] = NewScratch()
	}
	return s.children[i]
}

// scratchPoolCap bounds each free list so a pathological release pattern
// cannot retain unbounded memory; excess buffers are dropped to the GC.
const scratchPoolCap = 64

// lentCap bounds the lent list. A pool lends one block per split
// allgather and takes it back once every reader is done, so in steady state
// it holds one or two.
const lentCap = 8

// NewScratch returns an empty buffer pool.
func NewScratch() *Scratch { return &Scratch{} }

// Buffers reports how many buffers the pool currently holds, across all
// free lists. Intended for tests and diagnostics.
func (s *Scratch) Buffers() int {
	if s == nil {
		return 0
	}
	return len(s.idx) + len(s.val) + len(s.dns) + len(s.hdr)
}

// Release reclaims v's backing buffers — and the *Vector header itself —
// into the pool and voids v (it must not be used again; a later grab may
// hand the same header out reinitialized). Safe to call with a nil vector
// or on a nil pool (the storage is simply dropped).
func (s *Scratch) Release(v *Vector) {
	if v == nil {
		return
	}
	if s != nil {
		if v.idx != nil && len(s.idx) < scratchPoolCap {
			s.idx = append(s.idx, v.idx)
		}
		if v.val != nil && len(s.val) < scratchPoolCap {
			s.val = append(s.val, v.val)
		}
		if v.dns != nil && len(s.dns) < scratchPoolCap {
			s.dns = append(s.dns, v.dns)
		}
	}
	v.idx, v.val, v.dns = nil, nil, nil
	if s != nil && len(s.hdr) < scratchPoolCap {
		s.hdr = append(s.hdr, v)
	}
}

// Lendable is a block a pool can lend (Scratch.Lend): it counts the
// holders still reading it.
type Lendable interface {
	// Lend records that readers holders read the block, its owner among
	// them.
	Lend(readers int)
	// ReadDone records that one holder has stopped reading the block; the
	// holder must not touch it afterwards.
	ReadDone()
	// Readers reports how many holders have not yet called ReadDone.
	Readers() int
}

// Lend hands b, which this pool's owner no longer needs once it has been
// read, to readers holders — the owner among them — each of which calls
// b.ReadDone when it is done. Once the count has reached zero the pool
// takes b back: a vector at a later grab, as Release would, anything else
// at a GrabLent. On a nil pool Lend does nothing: b is left to the GC.
func (s *Scratch) Lend(b Lendable, readers int) {
	if s == nil || len(s.lent) >= lentCap {
		return
	}
	b.Lend(readers)
	s.lent = append(s.lent, b)
}

// Lend records that readers holders read v (Lendable); Scratch.Lend calls
// it.
func (v *Vector) Lend(readers int) { v.readers.Store(int32(readers)) }

// ReadDone records that one holder of a lent vector (Scratch.Lend) has
// stopped reading it; the holder must not touch v afterwards. On a vector
// that was never lent it does nothing that matters.
func (v *Vector) ReadDone() { v.readers.Add(-1) }

// Readers reports how many holders of a lent vector have not yet called
// ReadDone.
func (v *Vector) Readers() int { return int(v.readers.Load()) }

// GrabLent removes from s's lent list and returns a block of type T that
// every holder is done with, or false when there is none — a nil pool, or
// every such block still being read. It never waits.
func GrabLent[T Lendable](s *Scratch) (T, bool) {
	if s != nil {
		for i, b := range s.lent {
			if t, ok := b.(T); ok && b.Readers() == 0 {
				last := len(s.lent) - 1
				s.lent[i] = s.lent[last]
				s.lent[last] = nil
				s.lent = s.lent[:last]
				return t, true
			}
		}
	}
	var none T
	return none, false
}

// Lent reports how many lent blocks the pool has not yet taken back.
// Intended for tests and diagnostics.
func (s *Scratch) Lent() int {
	if s == nil {
		return 0
	}
	return len(s.lent)
}

// GrabList returns a zeroed list of n entries, in the interface value it is
// kept in and as its slice: one of s's when it holds one of that type and
// length, else a new one (boxed once, here). Return it with PutList. A nil
// pool returns a nil box and the bare new list, so a caller that never
// boxes it pays one allocation.
func GrabList[T any](s *Scratch, n int) (box any, list []T) {
	if s == nil {
		return nil, make([]T, n)
	}
	for i, b := range s.lists {
		if l, ok := b.([]T); ok && len(l) == n {
			last := len(s.lists) - 1
			s.lists[i] = s.lists[last]
			s.lists[last] = nil
			s.lists = s.lists[:last]
			return b, l
		}
	}
	list = make([]T, n)
	return list, list
}

// PutList clears the boxed list box, a []T, and keeps it for GrabList;
// past the pool's bound it is left to the GC, and on a nil pool (a nil
// box) it is dropped untouched. Clearing drops the blocks the list named,
// which the pool must not pin.
func PutList[T any](s *Scratch, box any) {
	if s == nil || box == nil {
		return
	}
	clear(box.([]T))
	if len(s.lists) < scratchPoolCap {
		s.lists = append(s.lists, box)
	}
}

// Rand returns s's one generator reseeded with seed, in the state
// rand.New(rand.NewSource(seed)) starts in; valid until the next Rand call.
// A nil pool returns nil: the caller makes its own generator, which it can
// hold on its stack.
func (s *Scratch) Rand(seed int64) *rand.Rand {
	if s == nil {
		return nil
	}
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(seed))
	} else {
		s.rng.Seed(seed)
	}
	return s.rng
}

// reclaim takes back every lent vector whose readers are all done. Every
// grab calls it; with nothing lent it costs one length check.
func (s *Scratch) reclaim() {
	for v, ok := GrabLent[*Vector](s); ok; v, ok = GrabLent[*Vector](s) {
		s.Release(v)
	}
}

// grabVector returns an empty sparse vector header with the given
// metadata, recycling a released header when one is available.
func (s *Scratch) grabVector(n int, op Op, valueBytes, delta int) *Vector {
	if s != nil {
		if len(s.lent) != 0 {
			s.reclaim()
		}
		if len(s.hdr) > 0 {
			last := len(s.hdr) - 1
			v := s.hdr[last]
			s.hdr[last] = nil // the popped header must not stay reachable from the pool
			s.hdr = s.hdr[:last]
			*v = Vector{n: n, op: op, valueBytes: valueBytes, delta: delta}
			return v
		}
	}
	return &Vector{n: n, op: op, valueBytes: valueBytes, delta: delta}
}

// takeFit removes the smallest buffer of capacity ≥ c from a free list and
// returns it emptied. On a miss it allocates: exactly c when nothing in the
// list comes close, and c + c/4 in place of a near miss — the largest
// buffer of capacity ≥ c/2, which it drops from the list. A near miss is
// also replaced rather than spending a buffer more than twice c: recursive
// doubling sends each stage a clone about half the size of its next merge,
// and a clone that took the pool's one result-sized buffer along would
// leave that merge to miss.
func takeFit[T any](list *[][]T, c int) []T {
	l := *list
	best, near := -1, -1
	for i, b := range l {
		switch {
		case cap(b) >= c:
			if best < 0 || cap(b) < cap(l[best]) {
				best = i
			}
		case 2*cap(b) >= c:
			if near < 0 || cap(b) > cap(l[near]) {
				near = i
			}
		}
	}
	take := func(i int) []T {
		b := l[i]
		l[i] = l[len(l)-1]
		l[len(l)-1] = nil // the vacated slot must not keep b reachable
		*list = l[:len(l)-1]
		return b[:0]
	}
	switch {
	case best >= 0 && (near < 0 || cap(l[best]) <= 2*c):
		return take(best)
	case near >= 0:
		take(near)
		return make([]T, 0, c+c/4)
	}
	return make([]T, 0, c)
}

// grabIdx returns a zero-length index buffer with capacity ≥ c from the
// pool (see takeFit).
func (s *Scratch) grabIdx(c int) []int32 {
	if s == nil {
		return make([]int32, 0, c)
	}
	if len(s.lent) != 0 {
		s.reclaim()
	}
	return takeFit(&s.idx, c)
}

// grabVal returns a zero-length value buffer with capacity ≥ c from the
// pool (see takeFit).
func (s *Scratch) grabVal(c int) []float64 {
	if s == nil {
		return make([]float64, 0, c)
	}
	if len(s.lent) != 0 {
		s.reclaim()
	}
	return takeFit(&s.val, c)
}

// GrabDense returns a length-n dense float64 buffer filled with the given
// neutral element, reusing pooled storage when possible. For callers
// assembling raw dense blocks (e.g. the DSAR densify step); return the
// buffer with PutDense when done.
func (s *Scratch) GrabDense(n int, neutral float64) []float64 {
	return s.grabDense(n, neutral)
}

// PutDense returns a raw dense buffer obtained from GrabDense (or
// otherwise exclusively owned) to the pool.
func (s *Scratch) PutDense(b []float64) {
	s.putDense(b)
}

// grabDense returns a length-n dense buffer filled with the neutral
// element. Unlike make([]float64, n), recycled buffers hold stale data, so
// the fill is unconditional.
func (s *Scratch) grabDense(n int, neutral float64) []float64 {
	b, fresh := s.grabDenseBuf(n)
	if fresh && neutral == 0 {
		return b
	}
	for i := range b {
		b[i] = neutral
	}
	return b
}

// grabDenseRaw returns a length-n dense buffer with unspecified contents;
// the caller must overwrite every element.
func (s *Scratch) grabDenseRaw(n int) []float64 {
	b, _ := s.grabDenseBuf(n)
	return b
}

// grabDenseBuf returns a length-n buffer and whether it is freshly
// allocated (and therefore zeroed).
func (s *Scratch) grabDenseBuf(n int) ([]float64, bool) {
	if s != nil {
		if len(s.lent) != 0 {
			s.reclaim()
		}
		for i := len(s.dns) - 1; i >= 0; i-- {
			if cap(s.dns[i]) >= n {
				b := s.dns[i][:n]
				last := len(s.dns) - 1
				s.dns[i] = s.dns[last]
				s.dns[last] = nil // the vacated slot must not keep b reachable
				s.dns = s.dns[:last]
				return b, false
			}
		}
	}
	return make([]float64, n), true
}

// grabBits returns n zeroed bitmap words. With a pool they are the pool's
// one bitmap, valid until the next grabBits; there is nothing to put back.
func (s *Scratch) grabBits(n int) []uint64 {
	if s == nil {
		return make([]uint64, n)
	}
	if cap(s.bits) < n {
		s.bits = make([]uint64, n)
		return s.bits
	}
	b := s.bits[:n]
	clear(b)
	return b
}

// putIdx returns a loose index buffer to the pool.
func (s *Scratch) putIdx(b []int32) {
	if s != nil && b != nil && len(s.idx) < scratchPoolCap {
		s.idx = append(s.idx, b)
	}
}

// putVal returns a loose value buffer to the pool.
func (s *Scratch) putVal(b []float64) {
	if s != nil && b != nil && len(s.val) < scratchPoolCap {
		s.val = append(s.val, b)
	}
}

// putDense returns a loose dense buffer to the pool.
func (s *Scratch) putDense(b []float64) {
	if s != nil && b != nil && len(s.dns) < scratchPoolCap {
		s.dns = append(s.dns, b)
	}
}
