package core

import (
	"repro/internal/comm"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// This file runs every allreduce at any depth of an N-level machine
// hierarchy (multi-GPU nodes, Dragonfly groups, global links —
// simnet.Hierarchy). The paper's analysis (§5.2–5.3) assumes a flat α–β
// network; on real machines each tier of links is an order of magnitude
// more expensive than the one below, and production allreduce libraries
// exploit that with multi-level schemes. One recursion rule composes
// across arbitrarily many tiers, at the depth d = Options.Levels:
//
//  1. Up sweep — for each level l = 0..d-2 from innermost out: the leaders
//     of the level-(l-1) subgroups (all ranks, at level 0) sparse-reduce to
//     their level-l group leader (binomial tree, priced at the level-l
//     profile).
//  2. Top phase — the leaders of level d-2 run the pinned algorithm itself
//     among themselves over the top-tier links: recursive doubling, split
//     allgather, DSAR (densify at the leader, dense — optionally
//     QSGD-quantized — allgather), or any dense baseline.
//  3. Down sweep — the reduced vector is broadcast back through the same
//     groups, outermost level first (binomial trees).
//
// Compared to flat SSAR_Split_allgather on P ranks, the direct-exchange
// latency term shrinks from (P−1)·α on the top-tier network to one term
// per tier, each over that tier's group count and priced at that tier's
// links; and because exactly one rank per group drives traffic out of it
// during leader phases, those phases are free of the per-level egress
// serialization (Serial caps) that the flat algorithms pay in full.
// Unquantized, every depth is bit-identical to the flat algorithm (exact
// dyadic sums commute). Depth 1 — and any depth the hierarchy gives
// nothing to exploit — is the flat algorithm itself.

// Tag-space layout for the phases of one hierarchical invocation, all
// within the collective's tag range and below the Auto-agreement offset
// (resolveTagOffset): per-level reduce stages from 0, the top phase above
// them, per-level broadcast stages at the top. With simnet.MaxLevels = 8
// levels of hierStageStride tags each, every range stays disjoint for
// worlds up to ~16k ranks per stage.
const (
	hierStageStride = 1 << 14
	hierLeaderTag   = 1 << 17
	hierBcastBase   = 1 << 18
)

// hierReduceTag returns the tag base of the level-l up-sweep reduce.
func hierReduceTag(l int) int { return l * hierStageStride }

// hierBcastTag returns the tag base of the level-l down-sweep broadcast.
func hierBcastTag(l int) int { return hierBcastBase + l*hierStageStride }

// hierDepth returns the depth an allreduce asked for `levels` runs at on
// h: levels capped at the machine's depth, and 1 (flat) for levels <= 1.
func hierDepth(h simnet.Hierarchy, levels int) int {
	return max(1, min(levels, h.Depth()))
}

// HierExploitable reports whether the depth-L scheme on a world of P ranks
// differs from the flat algorithm: there must be a real grouping below the
// top (Span(L-2) > 1) that does not already swallow the whole world at the
// innermost level (Span(0) < P). The depths 2..h.Depth() it admits are the
// ones ChooseAutoLevels searches.
func HierExploitable(h simnet.Hierarchy, L, P int) bool {
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

// hierAllreduce runs the resolved allreduce at its depth: the up sweep, the
// algorithm itself among the leaders of the outermost swept level, and the
// down sweep — or the algorithm over the whole world when the depth is 1 or
// has nothing to exploit.
func hierAllreduce(p *comm.Proc, v *stream.Vector, opts Options, base int) *stream.Vector {
	if opts.Levels < 2 {
		return allreduceFlat(p, v, opts, base) // depth 1 never reads the machine
	}
	h, P := *p.Hierarchy(), p.Size()
	L := hierDepth(h, opts.Levels)
	if !HierExploitable(h, L, P) {
		return allreduceFlat(p, v, opts, base)
	}
	sc := opts.Scratch
	cur, stages := hierUpSweep(p, v, h, L, sc, base)

	var result *stream.Vector
	if cur != nil {
		p.SpanBegin("hier:leaders")
		lsub := p.Sub(h.LeadersAt(L-2, P))
		result = allreduceFlat(lsub, cur, opts, base+hierLeaderTag)
		p.Join(lsub)
		if cur != v {
			sc.Release(cur) // the top phase copied out of it; the accumulation is dead
		}
		p.SpanEnd()
	}

	return hierDownSweep(p, result, stages, sc, base)
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
