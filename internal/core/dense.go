package core

import (
	"repro/internal/comm"
	"repro/internal/stream"
)

// Dense collectives operate on raw []float64 and implement the classic
// algorithms MPI libraries select between (Thakur & Gropp; Chan et al.):
// recursive doubling for small messages, Rabenseifner's reduce-scatter +
// allgather and the ring for large messages. They are both the paper's
// baselines ("the baseline will be the MPI allreduce implementation on the
// fully dense vectors") and building blocks for the DSAR dense stage.
//
// All functions take a tag base; public callers should allocate one with
// p.NextTagBase() (the exported wrappers in this file do so).

// AllreduceDense reduces x element-wise across ranks with recursive
// doubling and returns the result (x is not modified). Convenience wrapper
// allocating its own tag range.
func AllreduceDense(p *comm.Proc, x []float64, op stream.Op) []float64 {
	return AllreduceDenseRecDouble(p, x, op, stream.DefaultValueBytes, p.NextTagBase())
}

// AllreduceDenseRecDouble implements dense recursive doubling: log2(P)
// exchange-and-combine stages (with a pre/post fold when P is not a power
// of two). Cost: ~log2(P)·(α + N·isize·β).
//
// Only the first send allocates. An arrival belongs to its receiver (the
// Message ownership rule), so absorbing one combines it into acc and writes
// the sum back into the arrival, and the next stage — or the fold-out —
// sends the arrival on in the same interface value it came in, with
// nothing allocated or re-boxed. A rank that received a fold-in sends that
// at stage 0, and a fold-out receiver adopts its arrival as its result.
// Every rank's result is its own acc or its own arrival, never an array
// another rank still holds.
func AllreduceDenseRecDouble(p *comm.Proc, x []float64, op stream.Op, valueBytes, base int) []float64 {
	acc := append([]float64(nil), x...)
	bytes := len(acc) * valueBytes
	var spare any // the last arrival, holding acc's values; this rank's to send on
	butterfly(p, p.Size(), base, false,
		func(stage, _ int) (any, int) {
			out := spare
			switch {
			case stage == stageFoldIn:
				out = acc // handed off: this rank's result arrives with the fold-out
			case out == nil:
				out = append([]float64(nil), acc...)
			}
			spare = nil
			return out, bytes
		},
		func(stage, _ int, in any) {
			arrival := in.([]float64)
			if stage == stageFoldOut {
				acc = arrival
				return
			}
			combineDense(p, acc, arrival, op)
			copy(arrival, acc)
			spare = in
		}, nil)
	return acc
}

// AllreduceRabenseifner implements the two-phase large-message algorithm
// (§5.3.2's dense inspiration): recursive-halving reduce-scatter followed
// by recursive-doubling allgather. Cost: ~2·log2(P)·α + 2·(P−1)/P·N·isize·β.
// Requires no divisibility. Non-power-of-two worlds fold as in recursive
// doubling.
func AllreduceRabenseifner(p *comm.Proc, x []float64, op stream.Op, valueBytes, base int) []float64 {
	acc := append([]float64(nil), x...)
	n := len(acc)
	rank := p.Rank()
	p2 := largestPow2(p.Size())
	// Reduce-scatter: at each halving stage a rank keeps the half of its
	// current range [lo, hi) containing its final block and sends the
	// other half to its partner.
	lo, hi := 0, n
	butterfly(p, p.Size(), base, true,
		func(stage, dist int) (any, int) {
			switch stage {
			case stageFoldIn:
				return acc, n * valueBytes
			case stageFoldOut:
				return append([]float64(nil), acc...), n * valueBytes
			}
			_, _, sendLo, sendHi := halve(lo, hi, rank&dist != 0)
			return append([]float64(nil), acc[sendLo:sendHi]...), (sendHi - sendLo) * valueBytes
		},
		func(stage, dist int, in any) {
			switch stage {
			case stageFoldIn:
				combineDense(p, acc, in.([]float64), op)
			case stageFoldOut:
				acc = append([]float64(nil), in.([]float64)...)
			default:
				lo, hi, _, _ = halve(lo, hi, rank&dist != 0)
				combineDense(p, acc[lo:hi], in.([]float64), op)
			}
		},
		func() {
			// Allgather of the reduced blocks among the p2 core ranks, 30
			// tags above the halving stages. Every block is priced at this
			// rank's own block size plus an 8-byte offset word.
			parts := make([][]float64, p2)
			parts[rank] = append([]float64(nil), acc[lo:hi]...)
			blockBytes := (hi-lo)*valueBytes + 8
			allgatherBlocks(p, p2, parts, base+30, func([]float64) int { return blockBytes }, nil, nil)
			for r, v := range parts {
				rLo, _ := halvedRange(n, p2, r)
				copy(acc[rLo:], v)
			}
		})
	return acc
}

// AllreduceRing implements the bandwidth-optimal ring: a reduce-scatter
// ring of P−1 steps followed by an allgather ring of P−1 steps. Cost:
// 2(P−1)·α + 2·(P−1)/P·N·isize·β — optimal bandwidth, linear latency.
func AllreduceRing(p *comm.Proc, x []float64, op stream.Op, valueBytes, base int) []float64 {
	acc := append([]float64(nil), x...)
	n := len(acc)
	rank, P := p.Rank(), p.Size()
	if P == 1 {
		return acc
	}
	next := (rank + 1) % P
	prev := (rank - 1 + P) % P

	// Reduce-scatter: at step s, send block (rank−s) and receive+combine
	// block (rank−s−1); after P−1 steps rank owns block (rank+1) fully
	// reduced.
	for s := 0; s < P-1; s++ {
		sendBlk := ((rank-s)%P + P) % P
		recvBlk := ((rank-s-1)%P + P) % P
		sLo, sHi := partition(n, P, sendBlk)
		out := append([]float64(nil), acc[sLo:sHi]...)
		p.Send(next, base+s, out, (sHi-sLo)*valueBytes)
		in := p.Recv(prev, base+s).Payload.([]float64)
		rLo, rHi := partition(n, P, recvBlk)
		combineDense(p, acc[rLo:rHi], in, op)
	}
	// Allgather ring: circulate the reduced blocks. Each rank copies its
	// own reduced block once to put it on the wire; after that the same
	// slice travels the whole ring — every receiver lands it directly in
	// its destination storage (acc) and forwards the received slice
	// unchanged, instead of re-copying the block at every stage. The
	// forwarded slice is never written by anyone, so the hand-off is safe.
	var fwd []float64
	for s := 0; s < P-1; s++ {
		sendBlk := ((rank+1-s)%P + P) % P
		recvBlk := ((rank-s)%P + P) % P
		sLo, sHi := partition(n, P, sendBlk)
		out := fwd
		if s == 0 {
			out = append([]float64(nil), acc[sLo:sHi]...)
		}
		p.Send(next, base+P+s, out, (sHi-sLo)*valueBytes)
		in := p.Recv(prev, base+P+s).Payload.([]float64)
		rLo, _ := partition(n, P, recvBlk)
		copy(acc[rLo:rLo+len(in)], in)
		fwd = in
	}
	return acc
}

// AllgatherDense gathers each rank's block (the blocks may have different
// lengths) to every rank via recursive doubling, returning the blocks in
// rank order. Cost: ~log2(P)·α + (P−1)/P·total·β.
func AllgatherDense(p *comm.Proc, mine []float64, valueBytes, base int) [][]float64 {
	parts := make([][]float64, p.Size())
	parts[p.Rank()] = append([]float64(nil), mine...)
	allgatherBlocks(p, p.Size(), parts, base, func(v []float64) int { return len(v) * valueBytes }, nil, nil)
	return parts
}

// AllgatherDenseInto is AllgatherDense over the uniform dimension
// partition of dst, assembling the gathered blocks in dst. mine must hold
// this rank's partition; its ownership transfers to the collective (it is
// sent to peers and must not be mutated or recycled afterwards — hence it
// must not alias dst, which the caller may mutate once the collective
// returns). No slice of dst ever goes on the wire.
func AllgatherDenseInto(p *comm.Proc, mine, dst []float64, valueBytes, base int) {
	rank, P := p.Rank(), p.Size()
	n := len(dst)
	if lo, hi := partition(n, P, rank); len(mine) != hi-lo {
		panic("core: AllgatherDenseInto block does not match this rank's partition")
	}
	parts := make([][]float64, P)
	parts[rank] = mine
	allgatherBlocks(p, P, parts, base, func(v []float64) int { return len(v) * valueBytes }, nil, nil)
	for r, v := range parts {
		lo, _ := partition(n, P, r)
		copy(dst[lo:lo+len(v)], v)
	}
}

// Bcast broadcasts root's vector to all ranks via a binomial tree,
// returning the vector on every rank. Cost: ~log2(P)·(α + N·isize·β).
func Bcast(p *comm.Proc, x []float64, root int, valueBytes int) []float64 {
	var have []float64
	if p.Rank() == root {
		have = append([]float64(nil), x...)
	}
	binomialTree(p, root, p.NextTagBase(), true,
		func() (any, int) { return append([]float64(nil), have...), len(have) * valueBytes },
		func(in any) { have = in.([]float64) })
	return have
}

func combineDense(p *comm.Proc, dst, src []float64, op stream.Op) {
	if len(dst) != len(src) {
		panic("core: dense combine length mismatch")
	}
	for i := range dst {
		dst[i] = op.Combine(dst[i], src[i])
	}
	p.Compute(p.Profile().DenseReduceTime(len(dst)))
}
