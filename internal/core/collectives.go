package core

import (
	"repro/internal/comm"
	"repro/internal/stream"
)

// This file rounds out the MPI collective surface over sparse streams
// beyond allreduce/allgather: rooted reduce, gather and scatter, a public
// reduce-scatter (the split phase of §5.3.2), and a sparse all-to-all.
// These are the operations the paper's interface ("SPARCML provides a
// similar interface to that of standard MPI calls, with the caveat that
// the data representation is assumed to be a sparse stream", §7) implies,
// and they reuse the same stream merge machinery.

// Reduce combines every rank's vector at the root via a binomial tree
// (log2(P) rounds) and returns the reduction at the root; other ranks
// return nil. The paper's allreduce could be composed as Reduce + Bcast
// ("the nodes could collaborate to compute the result at a single node
// (reduce) followed by a broadcast", §5.3).
func Reduce(p *comm.Proc, v *stream.Vector, root int) *stream.Vector {
	return reduceTagged(p, v, root, nil, p.NextTagBase(), mergeCharged)
}

// reduceTagged is a rooted binomial-tree reduction over an explicit tag
// base and scratch pool, reusable as a phase of composite collectives (the
// up sweep of the hierarchical allreduces runs it on sub-communicators).
// combine folds an arrival into the accumulation: a merge for Reduce, a
// concatenation for GatherSparse. Non-root ranks return nil.
func reduceTagged(p *comm.Proc, v *stream.Vector, root int, sc *stream.Scratch, base int,
	combine func(p *comm.Proc, acc, in *stream.Vector, sc *stream.Scratch)) *stream.Vector {
	acc := v.CloneInto(sc)
	binomialTree(p, root, base, false,
		func() (any, int) { return acc, acc.WireBytes() },
		func(in any) {
			x := in.(*stream.Vector)
			combine(p, acc, x, sc)
			sc.Release(x)
		})
	if p.Rank() == root {
		return acc
	}
	return nil
}

// ReduceScatterSparse partitions the dimension space uniformly across
// ranks and returns this rank's fully reduced partition as a canonical
// stream — the split phase of SSAR/DSAR Split allgather (§5.3.2) exposed
// as a standalone collective. (Sparse for any P ≥ 2, since a partition
// never exceeds δ; a single-rank world returns the input's canonical
// representation.)
func ReduceScatterSparse(p *comm.Proc, v *stream.Vector) *stream.Vector {
	return splitPhase(p, v, nil, p.NextTagBase(), 1)
}

// GatherSparse collects every rank's (disjoint) sparse vector at the root
// via a binomial tree of concatenations. Non-root ranks return nil.
func GatherSparse(p *comm.Proc, mine *stream.Vector, root int) *stream.Vector {
	return reduceTagged(p, mine, root, nil, p.NextTagBase(), concatCharged)
}

// ScatterRanges splits the root's vector by the uniform dimension
// partition and sends each rank its slice; every rank (including the
// root) returns its partition as a stream over the full universe — in the
// canonical representation, so a partition holding more than δ non-zeros
// of a dense input comes back dense (check IsDense before calling Pairs).
// n and op must be provided on non-root ranks (they have no input). What
// travels are fresh extracts, handed to their receivers by reference on
// both in-process backends; the root's v itself is never sent.
func ScatterRanges(p *comm.Proc, v *stream.Vector, root, n int, op stream.Op) *stream.Vector {
	base := p.NextTagBase()
	rank, P := p.Rank(), p.Size()
	if rank == root {
		if v == nil {
			panic("core: root must provide a vector to ScatterRanges")
		}
		for r := 0; r < P; r++ {
			if r == rank {
				continue
			}
			lo, hi := partition(v.Dim(), P, r)
			piece := v.ExtractRange(lo, hi)
			p.Send(r, base, piece, piece.WireBytes())
		}
		lo, hi := partition(v.Dim(), P, rank)
		return v.ExtractRange(lo, hi)
	}
	return p.Recv(root, base).Payload.(*stream.Vector).Clone()
}

// AlltoallSparse sends pieces[r] to rank r and returns the P pieces
// received, indexed by source rank (the direct exchange pattern of the
// split phase, generalized to arbitrary per-destination payloads).
// pieces[p.Rank()] is returned unchanged in its slot. Every other piece
// belongs to its receiver once sent: on both in-process backends
// (simulator and goroutine) the receiver holds the very object, so the
// caller must not mutate or release a piece after the call, and owns the
// ones it gets back.
func AlltoallSparse(p *comm.Proc, pieces []*stream.Vector) []*stream.Vector {
	base := p.NextTagBase()
	rank, P := p.Rank(), p.Size()
	if len(pieces) != P {
		panic("core: AlltoallSparse needs one piece per rank")
	}
	out := make([]*stream.Vector, P)
	out[rank] = pieces[rank]
	for off := 1; off < P; off++ {
		to := (rank + off) % P
		p.Send(to, base+rank, pieces[to], pieces[to].WireBytes())
	}
	for off := 1; off < P; off++ {
		from := (rank - off + P) % P
		out[from] = p.Recv(from, base+from).Payload.(*stream.Vector)
	}
	return out
}
