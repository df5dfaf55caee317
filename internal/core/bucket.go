package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/comm"
	"repro/internal/stream"
)

// This file implements DDP-style bucket fusion for layer-wise training:
// instead of one tiny allreduce per model layer (each paying the split
// phase's (P−1)·α latency floor) or one monolithic fused exchange (no
// overlap with backprop at all), consecutive layers are coalesced into
// cost-model-sized buckets that are issued as nonblocking collectives in
// backprop order and drained before the optimizer step. Bucket boundaries
// are derived from the layer spans' coordinate counts — identical on every
// rank by construction — never from wire sizes, which differ across ranks
// when per-rank TopK selections are ragged and would desynchronize the
// collectives' program order.

// bucketLatencyShare is the bucket sizing rule's target ratio: a bucket is
// large enough when the fixed per-collective latency term is at most this
// fraction of its dense-equivalent transfer time.
const bucketLatencyShare = 0.1

// BucketCoords returns the bucket size, in span coordinates, that the
// scheduler should target under the scenario: the smallest coordinate
// count whose dense-equivalent transfer time keeps the fixed
// per-collective cost — the split phase's (P−1) serialized message
// latencies — at or below bucketLatencyShare of the payload term,
//
//	coords ≥ (P−1)·(α+o) / (share · (β+βsw) · valueBytes).
//
// Sizing uses dense-equivalent bytes (coordinates × value size) rather
// than observed wire bytes so the result depends only on the agreed
// scenario, keeping bucket boundaries replica-consistent under ragged
// per-rank sparsity. The result is clamped to [1, N]; degenerate profiles
// (no bandwidth term) fuse everything into one bucket.
func BucketCoords(s CostScenario) int {
	perByte := s.Profile.BetaPerByte + s.Profile.SoftwarePerByte
	fixed := float64(s.P-1) * (s.Profile.Alpha + s.Profile.SoftwareOverhead)
	if perByte <= 0 || fixed <= 0 {
		return s.N
	}
	coords := int(math.Ceil(fixed / (bucketLatencyShare * perByte * float64(s.valueBytesOr()))))
	if coords < 1 {
		coords = 1
	}
	if coords > s.N {
		coords = s.N
	}
	return coords
}

// BucketScheduler fuses per-layer gradient contributions into buckets and
// runs them as overlapped nonblocking collectives. Build one from the
// model's layer spans (NewBucketScheduler); each training step then calls
// Issue with the per-layer contribution vectors and Drain with the
// returned requests. Bucket composition is a pure function of the spans
// and the target size, so every rank constructing the scheduler from the
// same inputs issues the same collectives in the same program order.
type BucketScheduler struct {
	spans   [][2]int
	buckets [][]int // ascending layer indices per bucket, buckets in issue order
}

// NewBucketScheduler partitions the model's layer spans (model order,
// span i = [lo, hi) coordinate range of layer i) into buckets of at least
// `coords` coordinates each: layers are walked in reverse — the order
// backprop produces their gradients — and greedily accumulated until the
// bucket reaches the target, so bucket 0 holds the last layers and is
// ready to issue first. A non-positive coords puts every layer in its own
// bucket; a huge coords fuses all layers into one. The final (first-layer)
// bucket may be smaller than the target.
func NewBucketScheduler(spans [][2]int, coords int) *BucketScheduler {
	for i, sp := range spans {
		if sp[0] > sp[1] {
			panic(fmt.Sprintf("core: layer %d span [%d,%d) is inverted", i, sp[0], sp[1]))
		}
	}
	s := &BucketScheduler{spans: spans}
	var cur []int
	acc := 0
	for i := len(spans) - 1; i >= 0; i-- {
		cur = append(cur, i)
		acc += spans[i][1] - spans[i][0]
		if acc >= coords {
			s.buckets = append(s.buckets, reverseLayers(cur))
			cur, acc = nil, 0
		}
	}
	if len(cur) > 0 {
		s.buckets = append(s.buckets, reverseLayers(cur))
	}
	return s
}

// reverseLayers reverses the reverse-walked layer indices back into
// ascending (model) order, which is the order fusion concatenates in.
func reverseLayers(ls []int) []int {
	for i, j := 0, len(ls)-1; i < j; i, j = i+1, j-1 {
		ls[i], ls[j] = ls[j], ls[i]
	}
	return ls
}

// NumBuckets returns the number of buckets.
func (s *BucketScheduler) NumBuckets() int { return len(s.buckets) }

// Layers returns bucket b's layer indices in ascending model order. The
// slice is the scheduler's own; treat it as read-only.
func (s *BucketScheduler) Layers(b int) []int { return s.buckets[b] }

// Fuse concatenates bucket b's per-layer contributions (full-dimension
// vectors with disjoint supports, indexed by model layer) into the single
// vector the bucket's collective carries. Buffers come from sc (nil
// degrades to plain allocation); the inputs are not consumed.
func (s *BucketScheduler) Fuse(b int, contribs []*stream.Vector, sc *stream.Scratch) *stream.Vector {
	return (&BucketRun{s: s}).fuse(b, contribs, sc)
}

// Issue fuses every bucket and starts its nonblocking allreduce, in issue
// (backprop) order, returning the requests in that order. opts supplies
// the per-bucket collective options: nil means zero Options for all, a
// single element is replicated, otherwise the length must equal
// NumBuckets (the per-bucket decisions of adapt.Controller.PlanBuckets).
// Like all collectives, every rank must Issue with the same bucket
// composition in the same program order.
//
// Outstanding collectives must not share a pool (see IAllreduce), so a
// Scratch is honoured only when opts has one entry per bucket and no two
// entries name the same pool; otherwise it is stripped from every bucket.
// An honoured pool belongs to its bucket's collective until Drain: the
// bucket is fused into it, the collective owns the fused input and
// releases it there when it finishes, and the result is built there — the
// caller may release it into the same pool once applied. The
// contributions are only read, so they may be released as soon as Issue
// returns. The scheduler itself holds no pool and stays shareable.
//
// Issue is a one-shot BucketRun: every call builds fresh requests, each
// running on a goroutine of its own. A rank that steps repeatedly keeps a
// run instead (NewRun).
func (s *BucketScheduler) Issue(p *comm.Proc, contribs []*stream.Vector, opts []Options) []*Request {
	return (&BucketRun{s: s}).Issue(p, contribs, opts)
}

// Drain waits on Issue's requests in issue order and returns the summed
// bucket vectors in the same order. A bucket issued on its own pool
// returns the pool with its result (see Issue).
func (s *BucketScheduler) Drain(p *comm.Proc, reqs []*Request) []*stream.Vector {
	return (&BucketRun{s: s}).Drain(p, reqs)
}

// BucketRun is one rank's reusable state for stepping a scheduler: one
// persistent request per bucket (in the manner of MPI-4's persistent
// collectives), each with its forked Proc and a worker goroutine, and the
// slices a step fills. The scheduler is shared by every rank and holds no
// per-rank state; a run holds all of it and belongs to its rank's
// goroutine. A run's Issue and Drain are the scheduler's, except that the
// returned slices and requests are the run's own, reused by the next step:
// a request is re-armed by the next Issue and must have been waited on
// (Drain) by then. Close stops the workers and keeps the rest, so a run
// closed between bursts of steps holds no goroutine and builds nothing
// when it resumes.
type BucketRun struct {
	s          *BucketScheduler
	persistent bool
	reqs       []*Request       // one per bucket
	parts      []*stream.Vector // a bucket's contributions, for fuse
	sums       []*stream.Vector // Drain's result
}

// NewRun returns a run of the scheduler for one rank, whose requests
// persist from step to step and across Close.
func (s *BucketScheduler) NewRun() *BucketRun {
	return &BucketRun{s: s, persistent: true}
}

// fuse is Fuse through the run's parts slice.
func (r *BucketRun) fuse(b int, contribs []*stream.Vector, sc *stream.Scratch) *stream.Vector {
	r.parts = slices.Grow(r.parts[:0], len(r.s.buckets[b]))
	for _, li := range r.s.buckets[b] {
		r.parts = append(r.parts, contribs[li])
	}
	v := stream.ConcatChunks(r.parts, sc)
	clear(r.parts) // the contributions are the caller's
	return v
}

// Issue is BucketScheduler.Issue on the run's requests, each re-armed
// after the previous step's Drain. The returned slice is the run's.
func (r *BucketRun) Issue(p *comm.Proc, contribs []*stream.Vector, opts []Options) []*Request {
	s := r.s
	if len(contribs) != len(s.spans) {
		panic(fmt.Sprintf("core: %d contributions for %d layers", len(contribs), len(s.spans)))
	}
	optAt := func(b int) Options {
		switch len(opts) {
		case 0:
			return Options{}
		case 1:
			return opts[0]
		case len(s.buckets):
			return opts[b]
		default:
			panic(fmt.Sprintf("core: %d options for %d buckets", len(opts), len(s.buckets)))
		}
	}
	pooled := len(opts) == len(s.buckets) && distinctPools(opts)
	if len(r.reqs) != len(s.buckets) {
		r.reqs = make([]*Request, len(s.buckets))
	}
	for b := range s.buckets {
		o := optAt(b)
		if !pooled {
			o.Scratch = nil
		}
		if r.reqs[b] == nil {
			r.reqs[b] = newRequest(r.persistent)
		}
		r.reqs[b].start(p, r.fuse(b, contribs, o.Scratch), o, true, false)
	}
	return r.reqs
}

// distinctPools reports whether no two of the options name the same
// non-nil Scratch.
func distinctPools(opts []Options) bool {
	for i, o := range opts {
		for _, q := range opts[i+1:] {
			if o.Scratch != nil && o.Scratch == q.Scratch {
				return false
			}
		}
	}
	return true
}

// Drain is BucketScheduler.Drain. The returned slice is the run's.
func (r *BucketRun) Drain(p *comm.Proc, reqs []*Request) []*stream.Vector {
	r.sums = slices.Grow(r.sums[:0], len(reqs))
	for _, q := range reqs {
		r.sums = append(r.sums, q.Wait(p))
	}
	return r.sums
}

// Close stops the run's workers. It returns once every idle worker has
// exited; a request still outstanding may be waited on afterwards, and its
// worker exits once the operation has finished. The requests and their
// forks stay with the run: a later Issue starts new workers on them.
// Close is idempotent.
func (r *BucketRun) Close() {
	for _, q := range r.reqs {
		if q != nil {
			q.close()
		}
	}
}
