package core

import (
	"repro/internal/comm"
	"repro/internal/stream"
)

// The exchange skeletons. The paper's collectives (§5.3, Appendix A) are a
// few exchange patterns over streams: the recursive-doubling/halving
// butterfly with its non-power-of-two fold, the binomial tree, and the
// block allgather built on the butterfly. Each pattern is written once
// here; it owns the rank arithmetic, the tag layout and the order of sends,
// receives and absorbs, and a collective supplies only what a stage sends
// and how an arrival is absorbed. The hooks are plain func parameters that
// the skeletons call and never retain, so the closures passed in stay on
// the caller's stack.

// Pseudo-stages of the butterfly's non-power-of-two fold. A stage's tag is
// base+2+stage, so the fold messages travel under base and base+1.
const (
	stageFoldIn  = -2 // an excess rank hands its contribution to rank−p2
	stageFoldOut = -1 // rank−p2 returns the finished result
)

// butterfly runs a recursive-doubling exchange — recursive halving when
// halving is set — among the first n ranks of p's communicator; ranks ≥ n
// must not call it. With p2 = 2^⌊log2 n⌋, the excess ranks [p2, n) fold
// their contribution onto ranks [0, n−p2) before the log2(p2) pairwise
// stages and receive the finished result after them (Appendix A).
//
// send returns what goes on the wire at a stage and its modeled size;
// absorb consumes what arrived. Both see the stage index (stageFoldIn and
// stageFoldOut for the fold) and the stage's partner distance. A stage
// sends before it receives. What send returns at a pairwise stage or the
// fold-out is dedicated to that message: once it is sent the butterfly
// recycles it (Proc.Recycle), so send must not keep it. The fold-in hands
// off the excess rank's own contribution, which its caller may still
// hold, and is not recycled. then, when non-nil, runs on the p2 core ranks
// between the last stage and the fold-out: the second phase of a composite
// collective, whose result the fold-out then returns.
func butterfly(p *comm.Proc, n, base int, halving bool,
	send func(stage, dist int) (payload any, bytes int),
	absorb func(stage, dist int, in any),
	then func()) {
	rank := p.Rank()
	p2 := largestPow2(n)
	rem := n - p2
	if rank >= p2 {
		out, bytes := send(stageFoldIn, 0)
		p.Send(rank-p2, base, out, bytes)
		absorb(stageFoldOut, 0, p.Recv(rank-p2, base+1).Payload)
		return
	}
	if rank < rem {
		absorb(stageFoldIn, 0, p.Recv(rank+p2, base).Payload)
	}
	for stage, dist := 0, 1; dist < p2; stage, dist = stage+1, dist*2 {
		d := dist
		if halving {
			d = p2 / (2 * dist)
		}
		peer := rank ^ d
		out, bytes := send(stage, d)
		p.Send(peer, base+2+stage, out, bytes)
		p.Recycle(out)
		absorb(stage, d, p.Recv(peer, base+2+stage).Payload)
	}
	if then != nil {
		then()
	}
	if rank < rem {
		out, bytes := send(stageFoldOut, 0)
		p.Send(rank+p2, base+1, out, bytes)
		p.Recycle(out)
	}
}

// halve splits the range [lo, hi) a rank holds at a recursive-halving
// stage into the half it keeps — the upper one when its partner-distance
// bit is set — and the half it sends to its partner.
func halve(lo, hi int, upper bool) (keepLo, keepHi, sendLo, sendHi int) {
	mid := lo + (hi-lo)/2
	if upper {
		return mid, hi, lo, mid
	}
	return lo, mid, mid, hi
}

// halvedRange returns the range of [0, n) that rank r of p2 holds once all
// recursive-halving stages have run.
func halvedRange(n, p2, r int) (lo, hi int) {
	lo, hi = 0, n
	for dist := p2 / 2; dist >= 1; dist /= 2 {
		lo, hi, _, _ = halve(lo, hi, r&dist != 0)
	}
	return lo, hi
}

// allgatherBlocks gathers one block per rank among the first n ranks of
// p's communicator by recursive doubling: parts is the rank-indexed block
// list with this rank's own entry filled in, and on return every entry is.
// The blocks may differ in size. On the wire every message, the fold-in's
// included, carries the same rank-indexed list holding just the blocks
// being passed on, absent entries left zero (nil) — the one container
// payload the transports' codec needs. Blocks travel by reference and are
// forwarded to later-stage partners as they arrived: on the in-process
// backends every rank ends up holding the same objects, so a block is
// immutable from the moment it enters parts. A received list, by
// contrast, belongs to its receiver, which tops it up with the blocks it
// already held and passes it on at the next stage in the interface value
// it arrived in — one list per rank, not one per stage, drawn already
// boxed from sc (stream.GrabList). The butterfly recycles each list once
// sent (Proc.Recycle), and the last one received goes back into sc,
// cleared, once absorbed; the blocks in them are never recycled. In
// process a rank thus sends one list and keeps the last it received. Over
// TCP the list drawn from sc goes into the decode pool after its send and
// the last arrival, decoded from that pool, goes into sc, so both pools
// stay level. A non-power-of-two fold keeps them level too: an excess rank
// draws the list it sends at the fold-in, and the core rank it folds onto
// passes that list on at its first stage instead of drawing one, and sends
// its last arrival back at the fold-out instead of keeping it; the excess
// rank keeps that one, and recycles the list it sent once the answer is in.
// A nil sc allocates the list and recycles the last arrival instead.
//
// Every message carries all its sender holds, so the cost model is a
// function of weights: weigh gives one block's, a message from a rank
// holding weight w is modeled as price(w) bytes (a nil price reads weights
// as bytes), and absorb, when non-nil, charges for an arrival of weight
// incoming joining blocks of weight held. The fold-out replaces nothing and
// is adopted uncharged. Cost with byte weights: ~log2(n)·α + (n−1)/n·total·β.
func allgatherBlocks[T any](p *comm.Proc, n int, parts []T, sc *stream.Scratch, base int,
	weigh func(T) int, price func(w int) int, absorb func(held, incoming int)) {
	rank := p.Rank()
	p2 := largestPow2(n)
	held := weigh(parts[rank])
	var carry any  // the list received last, as it arrived
	var foldIn any // the list an excess rank sent at the fold-in
	butterfly(p, n, base, false,
		func(stage, dist int) (any, int) {
			bytes := held
			if price != nil {
				bytes = price(held)
			}
			// Entering a stage this rank's dist-aligned group of core ranks
			// has pooled its members' blocks and those folded onto them, and
			// every member passes exactly those on; the fold-out passes on
			// the whole core's, the fold-in the excess rank's own.
			g := rank &^ (dist - 1)
			switch stage {
			case stageFoldOut:
				g, dist = 0, p2
			case stageFoldIn:
				g, dist = rank, 1
			}
			out := carry
			if out == nil {
				box, list := stream.GrabList[T](sc, n)
				out = box
				if box == nil {
					out = list // no pool: boxed here, once
				}
			}
			carry = nil
			if stage == stageFoldIn {
				foldIn = out
			}
			list := out.([]T)
			for r := g; r < g+dist; r++ {
				for b := r; b < n; b += p2 {
					list[b] = parts[b]
				}
			}
			return out, bytes
		},
		func(stage, dist int, in any) {
			g := rank&^(dist-1) ^ dist // the partner's group
			switch stage {
			case stageFoldIn:
				g, dist = rank+p2, 1
			case stageFoldOut:
				g, dist = 0, p2
				// The fold-in list went out before this arrival.
				p.Recycle(foldIn)
			}
			carry = in
			list := in.([]T)
			incoming := 0
			for r := g; r < g+dist; r++ {
				for b := r; b < n; b += p2 {
					parts[b] = list[b]
					incoming += weigh(parts[b])
				}
			}
			if absorb != nil && stage != stageFoldOut {
				absorb(held, incoming)
			}
			held += incoming
		}, nil)
	switch {
	case carry == nil:
	case sc == nil:
		p.Recycle(carry)
	default:
		stream.PutList[T](sc, carry)
	}
}

// binomialTree moves data along a binomial tree rooted at root over all of
// p's communicator, ⌈log2 P⌉ levels. Level bit joins every virtual rank v
// (ranks rotated so the root is 0) whose bits below bit are clear and
// whose bit is set to its parent v−bit. Going up (reduce, gather) the
// levels run from bit 1 and the child sends under tag base+bit, after
// which it is done; going down (broadcast) they run from the top bit and
// the parent sends under tag base. send returns this rank's current data
// and its modeled size, absorb consumes an arrival.
func binomialTree(p *comm.Proc, root, base int, down bool,
	send func() (payload any, bytes int),
	absorb func(in any)) {
	rank, P := p.Rank(), p.Size()
	vrank := (rank - root + P) % P
	top := 1
	for top < P {
		top *= 2
	}
	for d := 1; d < P; d *= 2 {
		bit, tag := d, base+d
		if down {
			bit, tag = top/(2*d), base
		}
		if vrank&(bit-1) != 0 {
			continue // no edge of this level touches this rank
		}
		peer, sending := vrank&^bit, !down // this rank is the edge's child …
		if vrank&bit == 0 {
			peer, sending = vrank|bit, down // … or its parent
			if peer >= P {
				continue
			}
		}
		peer = (peer + root) % P
		if sending {
			out, bytes := send()
			p.Send(peer, tag, out, bytes)
		} else {
			absorb(p.Recv(peer, tag).Payload)
		}
	}
}

func largestPow2(p int) int {
	v := 1
	for v*2 <= p {
		v *= 2
	}
	return v
}
