package core

import (
	"repro/internal/comm"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// This file implements the recursive hierarchical sparse allreduces
// HierSSAR and HierDSAR for N-level machine hierarchies (multi-GPU nodes,
// Dragonfly groups, global links — simnet.Hierarchy). The paper's analysis
// (§5.2–5.3) assumes a flat α–β network; on real machines each tier of
// links is an order of magnitude more expensive than the one below, and
// production allreduce libraries exploit that with multi-level schemes.
// One recursion rule composes across arbitrarily many tiers:
//
//  1. Up sweep — for each level l from innermost out: the leaders of the
//     level-(l-1) subgroups (all ranks, at level 0) sparse-reduce to their
//     level-l group leader (binomial tree, priced at the level-l profile).
//  2. Top phase — the leaders of the outermost grouped level run a flat
//     sparse allreduce among themselves over the top-tier links: for
//     HierSSAR recursive doubling or split allgather by agreed size, for
//     HierDSAR a DSAR (sparse split over the leader partition, densify,
//     dense — optionally QSGD-quantized — allgather).
//  3. Down sweep — the reduced vector is broadcast back through the same
//     groups, outermost level first (binomial trees).
//
// Compared to flat SSAR_Split_allgather on P ranks, the direct-exchange
// latency term shrinks from (P−1)·α on the top-tier network to one term
// per tier, each over that tier's group count and priced at that tier's
// links; and because exactly one rank per group drives traffic out of it
// during leader phases, those phases are free of the per-level egress
// serialization (Serial caps) that the flat algorithms pay in full.
// Unquantized, both algorithms are bit-identical to their flat
// counterparts (exact dyadic sums commute); without an exploitable
// hierarchy both degrade to the flat algorithms, so they are safe to
// request unconditionally.

// Tag-space layout for the phases of one hierarchical invocation, all
// within the collective's tag range and below the Auto-agreement offset
// (resolveTagOffset): per-level reduce stages from 0, the top-phase
// agreement and collective ranges above them, per-level broadcast stages
// at the top. With simnet.MaxLevels = 8 levels of hierStageStride tags
// each, every range stays disjoint for worlds up to ~16k ranks per stage.
const (
	hierStageStride    = 1 << 14
	hierLeaderAgreeTag = 1 << 17
	hierLeaderTag      = 1<<17 + 1<<16
	hierBcastBase      = 1 << 18
)

// hierReduceTag returns the tag base of the level-l up-sweep reduce.
func hierReduceTag(l int) int { return l * hierStageStride }

// hierBcastTag returns the tag base of the level-l down-sweep broadcast.
func hierBcastTag(l int) int { return hierBcastBase + l*hierStageStride }

// hierDepth returns the number of hierarchy levels the hierarchical
// algorithms should exploit: the full depth, truncated by the Levels
// option when set (a depth-d truncation runs the up/down sweeps over the
// innermost d−1 grouped levels only and the top phase among the leaders of
// level d−2 — depth 1 means flat).
func hierDepth(h simnet.Hierarchy, optLevels int) int {
	L := h.Depth()
	if optLevels > 0 && optLevels < L {
		L = optLevels
	}
	return L
}

// hierExploitable reports whether the depth-L scheme on a world of P ranks
// differs from the flat algorithm: there must be a real grouping below the
// top (Span(L-2) > 1) that does not already swallow the whole world at the
// innermost level (Span(0) < P).
func hierExploitable(h simnet.Hierarchy, L, P int) bool {
	return L >= 2 && h.Span(L-2) > 1 && h.Span(0) < P
}

// hierStage records one up-sweep stage this rank participated in, for the
// mirrored down-sweep broadcast.
type hierStage struct {
	level int
	group []int
}

// hierUpSweep runs the per-level reduce stages 0..L-2 for this rank.
// It returns this rank's surviving accumulation (nil once the rank handed
// its data to a group leader — such ranks wait for the down sweep) and the
// stages it entered. The returned vector is v itself when every stage this
// rank saw was trivial; otherwise it is pool-owned and the caller must
// release it after the top phase consumes it.
func hierUpSweep(p *comm.Proc, v *stream.Vector, h simnet.Hierarchy, L int, sc *stream.Scratch, base int) (*stream.Vector, []hierStage) {
	rank, P := p.Rank(), p.Size()
	cur := v
	var stages []hierStage
	p.SpanBegin("hier:upsweep")
	defer p.SpanEnd()
	for l := 0; l <= L-2; l++ {
		group := h.StageRanks(rank, l, P)
		if len(group) <= 1 {
			// This rank is the sole participant at this level (ragged tail
			// or GroupSize 1): it is already its own level-l leader.
			continue
		}
		stages = append(stages, hierStage{l, group})
		sub := p.Sub(group)
		out := reduceTagged(sub, cur, 0, sc, base+hierReduceTag(l), mergeCharged)
		p.Join(sub)
		if cur != v {
			sc.Release(cur) // reduceTagged cloned it; the old accumulation is dead
		}
		cur = out
		if cur == nil {
			break // handed off to the group leader; wait for the down sweep
		}
	}
	return cur, stages
}

// hierDownSweep broadcasts the reduced vector back through the up-sweep
// stages, outermost first. Ranks that handed off mid-sweep enter with a
// nil result and receive it at their last stage.
func hierDownSweep(p *comm.Proc, result *stream.Vector, stages []hierStage, sc *stream.Scratch, base int) *stream.Vector {
	p.SpanBegin("hier:downsweep")
	defer p.SpanEnd()
	for i := len(stages) - 1; i >= 0; i-- {
		st := stages[i]
		sub := p.Sub(st.group)
		result = bcastVectorTagged(sub, result, 0, sc, base+hierBcastTag(st.level))
		p.Join(sub)
	}
	return result
}

// hierAllreduce is the body the hierarchical allreduces share: the up
// sweep, a top phase among the leaders of the outermost grouped level, and
// the down sweep. top runs a flat allreduce of the leaders' accumulations
// on their sub-communicator under the given tag base; flat is the whole
// collective when the world has no exploitable hierarchy, which makes both
// algorithms safe to request unconditionally.
func hierAllreduce(p *comm.Proc, v *stream.Vector, opts Options, base int,
	flat, top func(q *comm.Proc, x *stream.Vector, tag int) *stream.Vector) *stream.Vector {
	sc := opts.Scratch
	h, P := *p.Hierarchy(), p.Size()
	L := hierDepth(h, opts.Levels)
	if !hierExploitable(h, L, P) {
		return flat(p, v, base)
	}
	cur, stages := hierUpSweep(p, v, h, L, sc, base)

	var result *stream.Vector
	if cur != nil {
		p.SpanBegin("hier:leaders")
		lsub := p.Sub(h.LeadersAt(L-2, P))
		result = top(lsub, cur, base+hierLeaderTag)
		p.Join(lsub)
		if cur != v && cur != result {
			sc.Release(cur) // the top phase copied out of it; the accumulation is dead
		}
		p.SpanEnd()
	}

	return hierDownSweep(p, result, stages, sc, base)
}

// hierSSAR implements the recursive hierarchical sparse allreduce. Without
// an exploitable hierarchy it degrades to the flat split allgather.
func hierSSAR(p *comm.Proc, v *stream.Vector, opts Options, base int) *stream.Vector {
	sc := opts.Scratch
	return hierAllreduce(p, v, opts, base,
		func(q *comm.Proc, x *stream.Vector, tag int) *stream.Vector {
			return ssarSplitAllgather(q, x, sc, tag, opts.Chunks)
		},
		// Top phase: the leaders first agree on the maximum accumulated
		// size (the k = maxᵢ|Hᵢ| of the paper's analysis, one 8-byte word)
		// and pick the flat SSAR variant the paper's guidance prescribes for
		// it. A lone leader already holds the result.
		func(q *comm.Proc, x *stream.Vector, tag int) *stream.Vector {
			if q.Size() == 1 {
				if x == v {
					return v.CloneInto(sc)
				}
				return x
			}
			kmax := int(AllreduceDenseRecDouble(q, []float64{float64(x.NNZ())},
				stream.OpMax, stream.DefaultValueBytes, base+hierLeaderAgreeTag)[0])
			wire := stream.HeaderBytes + kmax*(stream.IndexBytes+x.ValueBytes())
			if wire <= DefaultSmallDataBytes {
				return ssarRecDouble(q, x, sc, tag)
			}
			return ssarSplitAllgather(q, x, sc, tag, opts.Chunks)
		})
}

// hierDSAR implements the recursive hierarchical dynamic sparse allreduce:
// the same up and down sweeps as hierSSAR with the top phase replaced by a
// DSAR among the outermost-level leaders — sparse split over the leader
// partition, densify at each leader, dense (optionally QSGD-quantized)
// allgather over the top-tier links. Because one rank per group drives
// traffic out of it in the top phase, the exchange is free of per-level
// egress serialization, which is what makes the scheme win on
// Serial-capped hierarchies in the dense regime. Unquantized results are
// bit-identical to flat DSAR (both compute exact sums densely); with
// quantization each leader partition is encoded once by its owning leader,
// so all ranks still decode identical bytes, but the bucket boundaries
// differ from flat DSAR's P-way partition and the two quantized variants
// are only statistically, not bitwise, equal. Without an exploitable
// hierarchy it degrades to flat DSAR.
func hierDSAR(p *comm.Proc, v *stream.Vector, opts Options, base int) *stream.Vector {
	dsar := func(q *comm.Proc, x *stream.Vector, tag int) *stream.Vector {
		return dsarSplitAllgather(q, x, opts, tag)
	}
	return hierAllreduce(p, v, opts, base, dsar, dsar)
}

// bcastVectorTagged broadcasts the root's sparse vector to every rank of
// the communicator via a binomial tree (log2(P) rounds); non-root ranks
// pass nil and every rank returns its own copy. Forwarded copies are drawn
// from sc; each destination adopts its dedicated clone.
func bcastVectorTagged(p *comm.Proc, v *stream.Vector, root int, sc *stream.Scratch, base int) *stream.Vector {
	have := v
	binomialTree(p, root, base, true,
		func() (any, int) { return have.CloneInto(sc), have.WireBytes() },
		func(in any) { have = in.(*stream.Vector) })
	return have
}
