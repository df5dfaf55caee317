package core

import (
	"repro/internal/comm"
	"repro/internal/stream"
	"repro/internal/topk"
)

// DrydenAllreduce implements the sparse allreduce of Dryden et al. (2016),
// the closest prior design the paper compares against in §9: "a pairwise
// reduce-scatter followed by a ring-based allgather. The amount of data is
// kept constant at every stage of their algorithm by re-selecting the top
// k values and postponing the other received values."
//
// Unlike the SSAR/DSAR algorithms this operation is *lossy*: after the
// reduce-scatter each rank re-selects the k/P largest-magnitude entries of
// its partition and returns the rest as `postponed`, which a Top-K SGD
// caller folds into its error-feedback residual ("this ability to
// preserve a local residual is specific to Top-k SGD and ... our framework
// is more general"). The result has at most k non-zeros; its performance
// tracks SSAR_Split_allgather, as the paper notes.
func DrydenAllreduce(p *comm.Proc, v *stream.Vector, k int) (result, postponed *stream.Vector) {
	base := p.NextTagBase()
	rank := p.Rank()
	n := v.Dim()
	p2 := largestPow2(p.Size())

	// Phase 1: pairwise (recursive halving) reduce-scatter over sparse
	// range slices of acc, narrowing [lo, hi) to this rank's final range.
	// Requires power-of-two P; the butterfly folds otherwise.
	acc := v.Clone()
	lo, hi := 0, n
	butterfly(p, p.Size(), base, true,
		func(stage, dist int) (any, int) {
			switch stage {
			case stageFoldIn:
				return acc, acc.WireBytes()
			case stageFoldOut:
				return result.Clone(), result.WireBytes()
			}
			_, _, sendLo, sendHi := halve(lo, hi, rank&dist != 0)
			out := acc.ExtractRange(sendLo, sendHi)
			return out, out.WireBytes()
		},
		func(stage, dist int, in any) {
			switch stage {
			case stageFoldIn:
				mergeCharged(p, acc, in.(*stream.Vector), nil)
			case stageFoldOut:
				result, postponed = in.(*stream.Vector).Clone(), stream.Zero(n, v.Op())
			default:
				lo, hi, _, _ = halve(lo, hi, rank&dist != 0)
				acc = acc.ExtractRange(lo, hi)
				mergeCharged(p, acc, in.(*stream.Vector), nil)
			}
		},
		func() {
			// Re-select the top k/p2 entries of my reduced range; postpone
			// the rest.
			kLocal := k / p2
			if kLocal < 1 {
				kLocal = 1
			}
			var mine *stream.Vector
			mine, postponed = reselect(acc, kLocal)
			p.Compute(p.Profile().SparseMergeTime(acc.NNZ()))

			// Phase 2: ring allgather of the fixed-size selections.
			next := (rank + 1) % p2
			prev := (rank - 1 + p2) % p2
			result = mine.Clone()
			cur := mine
			for s := 0; s < p2-1; s++ {
				p.Send(next, base+64+s, cur, cur.WireBytes())
				in := p.Recv(prev, base+64+s).Payload.(*stream.Vector)
				concatCharged(p, result, in, nil)
				cur = in
			}
		})
	return result, postponed
}

// reselect splits a sparse vector into its k largest-magnitude entries and
// the postponed remainder.
func reselect(v *stream.Vector, k int) (kept, postponed *stream.Vector) {
	if v.IsDense() {
		c := v.Clone()
		c.Sparsify()
		v = c
	}
	idx, val := v.Pairs()
	if len(idx) <= k {
		return v.Clone(), stream.Zero(v.Dim(), v.Op())
	}
	// Select positions within the pair arrays (not coordinates), so the
	// cost is O(nnz), independent of the universe size.
	selPos := topk.Select(val, k)
	selSet := make(map[int32]bool, len(selPos))
	for _, pos := range selPos {
		selSet[pos] = true
	}
	var ki, pi []int32
	var kv, pv []float64
	for i, ix := range idx {
		if selSet[int32(i)] {
			ki = append(ki, ix)
			kv = append(kv, val[i])
		} else {
			pi = append(pi, ix)
			pv = append(pv, val[i])
		}
	}
	return stream.NewSparse(v.Dim(), ki, kv, v.Op()),
		stream.NewSparse(v.Dim(), pi, pv, v.Op())
}
