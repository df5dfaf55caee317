package stream

import "fmt"

// This file implements the chunking seam of the pipelined collectives: a
// vector can be split into C independent key-range chunks, processed (sent,
// merged) chunk by chunk, and reassembled. Chunks are plain Vectors over
// the full universe with global indices, so every existing stream operation
// applies to them unchanged; disjointness by construction is what makes the
// reassembly a pure concatenation.

// ChunkRange returns the i-th of c uniform key sub-ranges of [0, n): the
// same ⌊n/c⌋-block rule the split phase uses to assign rank partitions
// (Appendix A), with the last chunk absorbing the remainder. Panics if c
// is not positive or i is out of range.
func ChunkRange(n, c, i int) (lo, hi int) {
	if c <= 0 || i < 0 || i >= c {
		panic(fmt.Sprintf("stream: chunk %d of %d out of range", i, c))
	}
	block := n / c
	lo = i * block
	hi = lo + block
	if i == c-1 {
		hi = n
	}
	return lo, hi
}

// SplitChunks splits v into c chunks by uniform key range: chunk i holds
// exactly the coordinates of ChunkRange(Dim(), c, i), with global indices
// over the full universe. Each chunk is canonical and inherits v's
// operation, wire settings, and δ. Buffers are drawn from s (nil degrades
// to plain allocation); v is not modified.
//
// The round trip ConcatChunks(v.SplitChunks(c, s), s) rebuilds v exactly:
// for canonical vectors the representation and every entry come back bit
// for bit (canonical sparse vectors cannot carry signed zeros; a dense
// vector's signed-zero entries are the one exception — they compare equal
// to the dropped neutral element). A non-canonical dense vector with
// nnz ≤ δ comes back re-canonicalized to the sparse representation,
// exactly as ExtractRange canonicalizes its result.
func (v *Vector) SplitChunks(c int, s *Scratch) []*Vector {
	if c <= 0 {
		panic("stream: SplitChunks needs at least one chunk")
	}
	out := make([]*Vector, c)
	for i := range out {
		lo, hi := ChunkRange(v.n, c, i)
		out[i] = v.extractRange(lo, hi, s)
	}
	return out
}

// ConcatChunks reassembles vectors with pairwise-disjoint supports —
// typically SplitChunks output or per-key-range reduction results — into
// one vector, without consuming the inputs. All chunks must share one
// dimension and operation; the result inherits the first chunk's wire
// settings and δ, its header and buffers drawn from s (nil degrades to
// plain allocation). The result is canonical: it is dense iff any chunk is
// dense or the combined support exceeds δ (exact, since the supports are
// disjoint). Sparse chunks in ascending key order — key-range chunks,
// split-phase partitions — are copied end to end into buffers taken once at
// the exact size; chunks whose supports interleave are merged instead. A
// coordinate two chunks share panics, like Vector.Concat.
func ConcatChunks(chunks []*Vector, s *Scratch) *Vector {
	if len(chunks) == 0 {
		panic("stream: ConcatChunks needs at least one chunk")
	}
	base := chunks[0]
	total := 0
	anyDense := false
	for _, ch := range chunks {
		if ch.n != base.n {
			panic(fmt.Sprintf("stream: dimension mismatch %d vs %d", base.n, ch.n))
		}
		if ch.op != base.op {
			panic("stream: operation mismatch")
		}
		if ch.dns != nil {
			anyDense = true
		} else {
			total += len(ch.idx)
		}
	}
	out := s.grabVector(base.n, base.op, base.valueBytes, base.delta)
	if anyDense || total > base.delta {
		neutral := base.op.Neutral()
		dns := s.grabDense(base.n, neutral)
		for _, ch := range chunks {
			if ch.dns != nil {
				for i, x := range ch.dns {
					if x != neutral {
						if dns[i] != neutral {
							panic("stream: ConcatChunks chunks overlap")
						}
						dns[i] = x
					}
				}
				continue
			}
			for i, ix := range ch.idx {
				if dns[ix] != neutral {
					panic("stream: ConcatChunks chunks overlap")
				}
				dns[ix] = ch.val[i]
			}
		}
		out.dns = dns
		return out
	}
	idx := s.grabIdx(total)
	val := s.grabVal(total)
	for _, ch := range chunks {
		if len(ch.idx) == 0 {
			continue
		}
		if len(idx) > 0 && ch.idx[0] <= idx[len(idx)-1] {
			// Not end to end: one k-way pass, in which a shared coordinate
			// folds two entries into one (or none) and shows in the count.
			s.putIdx(idx)
			s.putVal(val)
			out.AddAll(chunks, s)
			if len(out.idx) != total {
				panic("stream: ConcatChunks chunks overlap")
			}
			return out
		}
		idx = append(idx, ch.idx...)
		val = append(val, ch.val...)
	}
	out.idx, out.val = idx, val
	return out
}
