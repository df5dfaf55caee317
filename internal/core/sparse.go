package core

import (
	"math/rand"
	"strconv"

	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/stream"
)

// ssarRecDouble implements SSAR_Recursive_double (§5.3.1): log2(P) stages;
// at stage t, ranks a distance 2^(t−1) apart exchange clones of their
// accumulated sparse streams and merge. Latency-optimal (log2(P)·α); the
// bandwidth term grows with fill-in, between log2(P)·k·βs (full overlap) and
// (P−1)·k·βs (disjoint supports). Non-power-of-two worlds fold the excess
// ranks onto the first P−2^⌊log2P⌋ ranks (Appendix A). Arrivals are
// recycled into sc once merged.
func ssarRecDouble(p *comm.Proc, v *stream.Vector, sc *stream.Scratch, base int) *stream.Vector {
	acc := v.CloneInto(sc)
	butterfly(p, p.Size(), base, false,
		func(stage, _ int) (any, int) {
			if stage == stageFoldIn {
				return acc, acc.WireBytes() // handed off: this rank's result arrives with the fold-out
			}
			return acc.CloneInto(sc), acc.WireBytes()
		},
		func(stage, _ int, in any) {
			if stage == stageFoldOut {
				acc = in.(*stream.Vector) // the partner sent a dedicated clone: adopt it
				return
			}
			x := in.(*stream.Vector)
			mergeCharged(p, acc, x, sc)
			sc.Release(x)
		}, nil)
	return acc
}

// mergeCharged reduces in into acc and charges the modeled compute cost:
// sparse merges cost γ·SparseComputeFactor per pair touched, dense
// combines γ per element (§5.1: "summing sparse vectors is computationally
// more expensive than summing dense vectors"). Merge buffers are drawn
// from sc (nil degrades to plain allocation); releasing in afterwards is
// the caller's decision — only vectors this rank exclusively owns may go
// back into the pool.
func mergeCharged(p *comm.Proc, acc, in *stream.Vector, sc *stream.Scratch) {
	prof := p.Profile()
	if acc.IsDense() || in.IsDense() {
		p.Compute(prof.DenseReduceTime(acc.Dim()))
	} else {
		p.Compute(prof.SparseMergeTime(acc.NNZ() + in.NNZ()))
	}
	acc.AddInto(in, sc)
}

// mergeKCharged reduces all received partition streams into acc in one
// k-way merge pass (stream.Vector.AddAll) and charges the single-pass
// compute cost: every input pair is touched once, so the sparse charge is
// Σᵢ|Hᵢ| rather than the chained two-way merges' Σᵢ(|accᵢ|+|Hᵢ|), plus
// one dense pass when the output spills past δ mid-merge. When any
// operand is dense, AddAll executes the literal chained folds, so the
// charging falls back to the per-step mergeCharged rule it matches. The
// received vectors are left as they were; releasing them is the caller's
// (releaseAll).
func mergeKCharged(p *comm.Proc, acc *stream.Vector, ins []*stream.Vector, sc *stream.Scratch) {
	if len(ins) == 0 {
		return
	}
	anyDense := acc.IsDense()
	for _, in := range ins {
		if in.IsDense() {
			anyDense = true
		}
	}
	if anyDense {
		for _, in := range ins {
			mergeCharged(p, acc, in, sc)
		}
		return
	}
	prof := p.Profile()
	pairs := acc.NNZ()
	for _, in := range ins {
		pairs += in.NNZ()
	}
	p.Compute(prof.SparseMergeTime(pairs))
	acc.AddAll(ins, sc)
	if acc.IsDense() {
		p.Compute(prof.DenseReduceTime(acc.Dim())) // the mid-merge spill's dense fill
	}
}

// releaseAll releases merged arrivals into sc.
func releaseAll(ins []*stream.Vector, sc *stream.Scratch) {
	for _, in := range ins {
		sc.Release(in)
	}
}

// splitPhase is the first phase shared by SSAR_Split_allgather and
// DSAR_Split_allgather (§5.3.2): the dimension space [0, N) is split into
// P uniform partitions; every rank sends each partition's slice of its
// input directly to the partition owner ("this direct communication comes
// at a higher latency cost", hence the (P−1)·α latency term), then reduces
// the P slices it received for its own partition in a single k-way merge
// pass — the hot path of the whole allreduce, so slices are extracted into
// scratch buffers, each is recycled once sent (Proc.Recycle), and the
// incoming streams are released into sc after the merge.
//
// Every partition is subdivided into C ≥ 1 uniform key-range chunks
// (clampChunks decides C), and chunk c of source src travels under tag
// base + c·P + src, so the merge of chunk c can start while chunk c+1's
// sends are still being issued. splitSend and splitMerge move one chunk.
// One chunk runs them in line, on the main lane. More run them as a stage
// pipeline: on real transports a forked merge goroutine drains and merges
// chunk after chunk while the main goroutine keeps extracting and
// sending; on the simulator the send stage stays on the parent clock
// while the merge stage runs on a forked clock, so Join composes the two
// stages by max, the virtual-time analogue of the same pipeline. The C
// reduced chunk slices are disjoint ascending key ranges of this rank's
// partition, so reassembly is a pure concatenation (uncharged: the merge
// charge already covered every pair once).
func splitPhase(p *comm.Proc, v *stream.Vector, sc *stream.Scratch, base, C int) *stream.Vector {
	P := p.Size()
	insBox, ins := stream.GrabList[*stream.Vector](sc, C*(P-1)) // chunk c's arrivals at [c·(P−1), (c+1)·(P−1))
	if C == 1 {
		p.SpanBegin("split:send")
		splitSend(p, v, sc, base, 1, 0)
		p.SpanEnd()
		p.SpanBegin("split:merge")
		acc := splitMerge(p, v, sc, base, 1, 0, ins)
		releaseAll(ins, sc)
		stream.PutList[*stream.Vector](sc, insBox)
		p.SpanEnd()
		return acc
	}

	accsBox, accs := stream.GrabList[*stream.Vector](sc, C)
	// The merge stage, on proc f. With a pool, each chunk's arrivals go
	// back into it once merged. Without one — f runs concurrently with the
	// send stage, and a Scratch belongs to one goroutine — the extraction
	// allocates and the arrivals wait in ins for the send stage's
	// goroutine to release them. Its spans overlap the send stage's, so
	// they live on the dedicated merge lane.
	mergeStage := func(f *comm.Proc, fsc *stream.Scratch) {
		for c := 0; c < C; c++ {
			start := f.Now()
			in := ins[c*(P-1) : (c+1)*(P-1)]
			accs[c] = splitMerge(f, v, fsc, base, C, c, in)
			if fsc != nil {
				releaseAll(in, fsc)
			}
			if o := f.Obs(); o != nil {
				o.EventLane(obs.LaneMerge, "split:merge", start, f.Now(),
					obs.Attr{Key: "chunk", Value: strconv.Itoa(c)})
			}
		}
	}
	sendStage := func() {
		for c := 0; c < C; c++ {
			start := p.Now()
			splitSend(p, v, sc, base, C, c)
			if o := p.Obs(); o != nil {
				o.Event("split:send", start, p.Now(), obs.Attr{Key: "chunk", Value: strconv.Itoa(c)})
			}
		}
	}
	if p.Wall() {
		// Real transport: the merge goroutine owns no scratch (the main
		// goroutine's sc stays single-owner), and the two stages share
		// only v, read-only, and the accs and ins slots handed over at the
		// channel close, after which the arrivals go back into sc — the
		// pool the send stage drew its slices from. A panic in the merge
		// stage poisons the world, which releases a rank blocked on this
		// one, and is re-raised here, on the rank's goroutine, as
		// Request.Wait re-raises a nonblocking collective's.
		f := p.Fork()
		done := make(chan struct{})
		var failed any
		go func() {
			defer close(done)
			defer func() {
				if e := recover(); e != nil {
					failed = e
					f.Abort()
				}
			}()
			mergeStage(f, nil)
		}()
		sendStage()
		<-done
		p.Join(f)
		if failed != nil {
			panic(failed)
		}
		releaseAll(ins, sc)
	} else {
		// Simulator: sends price on the parent clock (injection occupies
		// the sender), merges on a clock forked after them; Join's max
		// models the overlap of the merge stage behind the send stage.
		sendStage()
		f := p.Fork()
		mergeStage(f, sc)
		p.Join(f)
	}
	out := stream.ConcatChunks(accs, sc)
	for _, a := range accs {
		sc.Release(a)
	}
	stream.PutList[*stream.Vector](sc, accsBox)
	stream.PutList[*stream.Vector](sc, insBox)
	return out
}

// splitSend extracts chunk c of C of every peer's partition from v and
// sends it to the partition's owner under tag base + c·P + rank, recycling
// each slice once sent.
func splitSend(p *comm.Proc, v *stream.Vector, sc *stream.Scratch, base, C, c int) {
	rank, P := p.Rank(), p.Size()
	n := v.Dim()
	for off := 1; off < P; off++ {
		to := (rank + off) % P
		lo, hi := partition(n, P, to)
		clo, chi := stream.ChunkRange(hi-lo, C, c)
		piece := v.ExtractRangeInto(lo+clo, lo+chi, sc)
		p.Send(to, base+c*P+rank, piece, piece.WireBytes())
		p.Recycle(piece)
	}
}

// splitMerge reduces chunk c of C of this rank's partition: it extracts
// the chunk from v, receives the P−1 peers' slices of it into ins and
// merges them into the extraction in one k-way pass (mergeKCharged). The
// arrivals stay in ins for the caller to release.
func splitMerge(p *comm.Proc, v *stream.Vector, sc *stream.Scratch, base, C, c int, ins []*stream.Vector) *stream.Vector {
	rank, P := p.Rank(), p.Size()
	lo, hi := partition(v.Dim(), P, rank)
	clo, chi := stream.ChunkRange(hi-lo, C, c)
	acc := v.ExtractRangeInto(lo+clo, lo+chi, sc)
	for off := 1; off < P; off++ {
		from := (rank - off + P) % P
		ins[off-1] = p.Recv(from, base+c*P+from).Payload.(*stream.Vector)
	}
	mergeKCharged(p, acc, ins, sc)
	return acc
}

// ssarSplitAllgather implements SSAR_Split_allgather (§5.3.2): the split
// phase above, in C chunks, followed by a sparse concatenating allgather
// of the reduced partitions (their contents are disjoint by construction,
// so merging is concatenation — the "simple (concatenating) sparse
// allgather") under tags past the C·P chunk tags.
func ssarSplitAllgather(p *comm.Proc, v *stream.Vector, sc *stream.Scratch, base, chunks int) *stream.Vector {
	C := clampChunks(chunks, v.Dim(), p.Size())
	return sparseAllgatherConcat(p, splitPhase(p, v, sc, base, C), sc, base+C*p.Size()+8)
}

// sparseAllgatherConcat gathers disjoint sparse vectors from all ranks;
// every rank returns the union. It is the block allgather (allgatherBlocks)
// over one immutable block per rank, and mine itself is this rank's block:
// the allgather takes it over, and sc lends it (stream.Scratch.Lend) to
// every rank that holds it by reference — the whole communicator in
// process (Proc.ByReference), this rank alone over TCP, where the peers
// read framed copies. Stages forward lists of blocks by reference, and
// each rank assembles its result once, at its exact size, from sc
// (stream.ConcatChunks: end to end when the blocks ascend by rank, as
// split-phase partitions do; merged when their supports interleave; a
// shared coordinate panics). Then it counts down every block it holds by
// reference and recycles the copies it decoded (an excess rank of a fold
// gets a copy of its own block back at the fold-out over TCP), and sc
// takes mine back at a later grab, once every holder has counted it down.
// A nil sc lends nothing: mine is left to the GC. Also used directly for
// the SCD experiment (§8.2) where nodes contribute disjoint coordinate
// blocks.
//
// The modeled cost is that of exchanging and concatenating the accumulated
// stream itself at every stage, which depends on pair counts alone. A rank
// holding `held` pairs — a dense block counts as δ+1 — sends them as one
// stream: sparse while held ≤ δ, a dense array past it. An arrival is
// absorbed at the sparse merge rate over held+incoming pairs while both
// sides are still sparse, else at one dense pass. The assembly is the
// copy those absorbs already paid for.
func sparseAllgatherConcat(p *comm.Proc, mine *stream.Vector, sc *stream.Scratch, base int) *stream.Vector {
	sc.Lend(mine, holders(p))
	partsBox, parts := stream.GrabList[*stream.Vector](sc, p.Size())
	parts[p.Rank()] = mine
	n, delta, valueBytes := mine.Dim(), mine.Delta(), mine.ValueBytes()
	prof := p.Profile()
	allgatherBlocks(p, p.Size(), parts, sc, base,
		func(b *stream.Vector) int {
			if b.IsDense() {
				return delta + 1
			}
			return b.NNZ()
		},
		func(held int) int {
			if held > delta {
				return stream.HeaderBytes + n*valueBytes
			}
			return stream.HeaderBytes + held*(stream.IndexBytes+valueBytes)
		},
		func(held, incoming int) {
			if held > delta || incoming > delta {
				p.Compute(prof.DenseReduceTime(n))
			} else {
				p.Compute(prof.SparseMergeTime(held + incoming))
			}
		})
	out := stream.ConcatChunks(parts, sc)
	doneGathered(p, parts, mine)
	stream.PutList[*stream.Vector](sc, partsBox)
	return out
}

// holders is how many ranks hold a block this rank lends to a block
// allgather: the whole communicator where sends hand payloads over by
// reference (Proc.ByReference), this rank alone over TCP, where the peers
// read framed copies.
func holders(p *comm.Proc) int {
	if p.ByReference() {
		return p.Size()
	}
	return 1
}

// doneGathered ends this rank's reading of the blocks a block allgather
// gathered, mine being its own: it counts down every block it holds by
// reference — in process, all of them — and over TCP counts down mine and
// recycles the copies decoded for it (Proc.Recycle). Even parts[rank] is
// such a copy on an excess rank of a fold, which gets the whole list back
// at the fold-out.
func doneGathered[T interface {
	comparable
	stream.Lendable
}](p *comm.Proc, parts []T, mine T) {
	if p.ByReference() {
		for _, b := range parts {
			b.ReadDone()
		}
		return
	}
	mine.ReadDone()
	for _, b := range parts {
		if b != mine {
			p.Recycle(b)
		}
	}
}

// concatCharged appends the disjoint stream in to acc, charged like
// mergeCharged: the per-arrival concatenation of the ring and tree
// gathers. It builds in place, so the pool is unused.
func concatCharged(p *comm.Proc, acc, in *stream.Vector, _ *stream.Scratch) {
	prof := p.Profile()
	if acc.IsDense() || in.IsDense() {
		p.Compute(prof.DenseReduceTime(acc.Dim()))
		acc.Add(in)
		return
	}
	p.Compute(prof.SparseMergeTime(acc.NNZ() + in.NNZ()))
	acc.Concat(in)
}

// SparseAllgather gathers disjoint sparse contributions from all ranks
// (public wrapper allocating a tag range). What the ranks share is a copy
// of mine taken on entry, so the caller may modify its vector as soon as
// the call returns.
func SparseAllgather(p *comm.Proc, mine *stream.Vector) *stream.Vector {
	return sparseAllgatherConcat(p, mine.Clone(), nil, p.NextTagBase())
}

// dsarSplitAllgather implements DSAR_Split_allgather (§5.3.3): the sparse
// split phase, after which each rank *densifies* its reduced partition
// ("exploit the fact that every reduced split will become dense") and the
// partitions are exchanged with a dense recursive-doubling allgather,
// optionally QSGD-quantized (§6: "we employ the low-precision data
// representation only in the second part ... where the data becomes
// dense").
//
// Each partition is quantized once, by its owner; every rank decodes the
// same bytes, so all ranks return bit-identical results — the property
// that keeps data-parallel SGD replicas consistent.
func dsarSplitAllgather(p *comm.Proc, v *stream.Vector, opts Options, base int) *stream.Vector {
	sc := opts.Scratch
	C := clampChunks(opts.Chunks, v.Dim(), p.Size())
	reduced := splitPhase(p, v, sc, base, C)
	rank, P := p.Rank(), p.Size()
	n := v.Dim()
	lo, hi := partition(n, P, rank)

	// Densify my partition into a contiguous block. Every coordinate of the
	// result is covered by exactly one partition, so no neutral pre-fill of
	// the result array is needed — gathered blocks land directly in it.
	densify := func(block []float64) {
		if reduced.IsDense() {
			copy(block, reduced.ToDense()[lo:hi])
		} else {
			idx, val := reduced.Pairs()
			for i, ix := range idx {
				block[ix-int32(lo)] = val[i]
			}
		}
		sc.Release(reduced)
		p.Compute(p.Profile().DenseReduceTime(len(block)))
	}
	result := make([]float64, n)

	agBase := base + C*P + 8
	if opts.Quant != nil {
		// Quantize my block; exchange quantized blocks; decode each straight
		// into its slice of the result. The dense block dies once encoded,
		// so it is scratch-pooled; the quantized one is encoded into the
		// one sc lent at an earlier op, once every holder has decoded it,
		// and lent in turn to every rank that holds it by reference, as
		// sparseAllgatherConcat lends its partition.
		block := sc.GrabDense(hi-lo, v.Op().Neutral())
		p.SpanBegin("dsar:densify")
		densify(block)
		p.SpanEnd()
		p.SpanBegin("dsar:quantize")
		seed := opts.Seed ^ int64(rank+1)*0x5851F42D4C957F2D
		rng := sc.Rand(seed)
		if rng == nil {
			rng = rand.New(rand.NewSource(seed))
		}
		stale, _ := stream.GrabLent[*quant.Quantized](sc)
		q := quant.EncodeInto(stale, block, *opts.Quant, rng)
		sc.PutDense(block)                              // EncodeInto copies into q's storage
		p.Compute(p.Profile().DenseReduceTime(hi - lo)) // encode pass
		p.SpanEnd()
		p.SpanBegin("dsar:allgather")
		sc.Lend(q, holders(p))
		gatheredBox, gathered := stream.GrabList[*quant.Quantized](sc, P)
		gathered[rank] = q
		allgatherBlocks(p, P, gathered, sc, agBase, (*quant.Quantized).WireBytes, nil, nil)
		for r, qr := range gathered {
			rLo, rHi := partition(n, P, r)
			qr.DecodeInto(result[rLo:rHi])
		}
		doneGathered(p, gathered, q)
		stream.PutList[*quant.Quantized](sc, gatheredBox)
		p.Compute(p.Profile().DenseReduceTime(n)) // decode pass
		p.SpanEnd()
	} else {
		// The block goes on the wire itself (AllgatherDenseInto takes
		// ownership), so it is a dedicated allocation, not pool storage;
		// received peer blocks land directly in the result array with no
		// per-part assembly copies.
		block := make([]float64, hi-lo)
		if neutral := v.Op().Neutral(); neutral != 0 {
			for i := range block {
				block[i] = neutral
			}
		}
		p.SpanBegin("dsar:densify")
		densify(block)
		p.SpanEnd()
		p.SpanBegin("dsar:allgather")
		AllgatherDenseInto(p, block, result, sc, v.ValueBytes(), agBase)
		p.SpanEnd()
	}
	// The assembled array becomes the result's backing storage directly —
	// the caller owns it, so it is never recycled into the scratch.
	res := stream.WrapDense(result, v.Op())
	res.SetValueBytes(v.ValueBytes())
	return res
}

// ringSparse is the sparse counterpart of the ring allreduce compared in
// the Figure 3 micro-benchmarks: a ring reduce-scatter over sparse
// partition slices followed by a ring allgather of the reduced (still
// sparse) partitions. Bandwidth matches the dense ring scaled by density;
// latency is 2(P−1)·α.
func ringSparse(p *comm.Proc, v *stream.Vector, sc *stream.Scratch, base int) *stream.Vector {
	rank, P := p.Rank(), p.Size()
	n := v.Dim()
	if P == 1 {
		return v.Clone()
	}
	next := (rank + 1) % P
	prev := (rank - 1 + P) % P

	// Per-block sparse slices of my input.
	blocks := make([]*stream.Vector, P)
	for b := 0; b < P; b++ {
		lo, hi := partition(n, P, b)
		blocks[b] = v.ExtractRangeInto(lo, hi, sc)
	}

	// Reduce-scatter ring: circulate and accumulate sparse slices.
	for s := 0; s < P-1; s++ {
		sendBlk := ((rank-s)%P + P) % P
		recvBlk := ((rank-s-1)%P + P) % P
		out := blocks[sendBlk]
		blocks[sendBlk] = nil // passed along; no longer needed locally
		p.Send(next, base+s, out, out.WireBytes())
		in := p.Recv(prev, base+s).Payload.(*stream.Vector)
		mergeCharged(p, blocks[recvBlk], in, sc)
		// The circulated slice was merged (copied) into the accumulator and
		// its sender passed ownership along the ring: recycle it.
		sc.Release(in)
	}

	ownBlk := (rank + 1) % P
	acc := blocks[ownBlk]

	// Allgather ring of the reduced sparse blocks.
	have := map[int]*stream.Vector{ownBlk: acc}
	cur := ownBlk
	for s := 0; s < P-1; s++ {
		out := have[cur]
		p.Send(next, base+P+s, out, out.WireBytes())
		recvBlk := ((cur-1)%P + P) % P
		in := p.Recv(prev, base+P+s).Payload.(*stream.Vector)
		have[recvBlk] = in
		cur = recvBlk
	}

	// Assemble: blocks are disjoint; concatenate in index order.
	result := stream.Zero(n, v.Op())
	result.SetValueBytes(v.ValueBytes())
	for b := 0; b < P; b++ {
		concatCharged(p, result, have[b], nil)
	}
	return result
}
