package train

import (
	"slices"

	"repro/internal/adapt"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/topk"
)

// topkExchange is one rank's TopK-SGD exchange: the model's parameter spans
// fused into buckets by a bucket scheduler, one nonblocking allreduce per
// bucket in backprop order, all overlapped with each other
// ("communication is done layer-wise using non-blocking calls", §8.3).
// Fused exchange is the one span [0, len(params)) in one bucket: one TopK
// selection over the whole vector and one collective. One layer per bucket
// is the paper's layer-wise exchange. The rank's world keeps it across
// Runs (runState): the spans, the scheduler and this rank's run of it (one
// persistent request per bucket, whose workers close stops and the next
// issue restarts) and the per-step slices. Its storage is the rank's pool
// (comm.Proc.Pool).
//
// Every buffer goes back where it dies. Contributions are drawn from the
// rank's pool and return to it once the scheduler has fused them. Bucket
// b's collective runs on the rank pool's child b — the bucket is fused
// into it, and the collective releases the fused input there and builds
// its result there — and the summed update returns to it once applied.
// Buckets in flight together therefore never share a pool, and the
// scheduler, which holds none, stays shareable.
type topkExchange struct {
	spans    [][2]int
	coords   int // the BucketCoords the buckets were sized by
	caller   int // the rank, in its group, the exchange was built on
	contribs []*stream.Vector
	rank     *stream.Scratch // the contributions' pool; bucket b's is its Child(b)

	sched *core.BucketScheduler
	run   *core.BucketRun // this rank's requests and slices for sched
	bopts []core.Options  // one per bucket
}

// newTopKExchange returns the exchange for task under cfg on the rank
// caller, drawing from pool, the rank's: the task's layer spans in buckets
// of cfg.BucketCoords when it exposes them and BucketCoords is positive,
// the whole parameter vector as one span otherwise. Bucket composition
// depends only on the spans, so every rank derives the same buckets. A nil
// pool allocates.
func newTopKExchange(task Task, cfg Config, caller int, pool *stream.Scratch) *topkExchange {
	spans := [][2]int{{0, len(task.Params())}}
	if s, ok := task.(Spanner); ok && cfg.BucketCoords > 0 {
		spans = slices.Clone(s.LayerSpans())
	}
	x := &topkExchange{spans: spans, coords: cfg.BucketCoords, caller: caller,
		contribs: make([]*stream.Vector, len(spans)), rank: pool}
	x.sched = core.NewBucketScheduler(spans, cfg.BucketCoords)
	x.run = x.sched.NewRun()
	x.bopts = make([]core.Options, x.sched.NumBuckets())
	return x
}

// fits reports whether x is the exchange newTopKExchange would build for
// task under cfg on the rank caller: the same spans, BucketCoords and rank.
func (x *topkExchange) fits(task Task, cfg Config, caller int) bool {
	if x == nil || x.coords != cfg.BucketCoords || x.caller != caller {
		return false
	}
	if s, ok := task.(Spanner); ok && cfg.BucketCoords > 0 {
		return slices.Equal(x.spans, s.LayerSpans())
	}
	return len(x.spans) == 1 && x.spans[0] == [2]int{0, len(task.Params())}
}

// extract removes every span's TopK contribution from the residual and
// returns their wire bytes.
func (x *topkExchange) extract(residual *topk.Residual, cfg Config) int64 {
	var bytes int64
	for si, span := range x.spans {
		x.contribs[si] = residual.ExtractSpanInto(span[0], span[1], cfg.Bucket, cfg.K, x.rank)
		bytes += int64(x.contribs[si].WireBytes())
	}
	return bytes
}

// issue starts the step's collectives over the extracted contributions.
// With a controller the parent proc decides per bucket
// (Controller.PlanBucketsInto) and the resolved choices go to the
// nonblocking calls, so no bucket bypasses it.
func (x *topkExchange) issue(p *comm.Proc, opts core.Options, ctrl *adapt.Controller) []*core.Request {
	bopts := x.bopts
	if ctrl != nil {
		bopts = ctrl.PlanBucketsInto(p, x.sched, x.contribs, opts, bopts)
	} else {
		for b := range bopts {
			bopts[b] = opts
		}
	}
	for b := range bopts {
		bopts[b].Scratch = x.rank.Child(b)
	}
	reqs := x.run.Issue(p, x.contribs, bopts)
	x.releaseContribs()
	return reqs
}

// apply waits for the step's collectives in issue order and applies each
// sum to params.
func (x *topkExchange) apply(p *comm.Proc, reqs []*core.Request, params []float64) {
	for b, sum := range x.run.Drain(p, reqs) {
		applyUpdateVec(params, sum)
		x.rank.Child(b).Release(sum)
	}
}

// close stops the bucket run's workers; the next issue starts them again.
func (x *topkExchange) close() { x.run.Close() }

// releaseContribs hands the step's contributions back to the rank pool.
func (x *topkExchange) releaseContribs() {
	for si, c := range x.contribs {
		x.rank.Release(c)
		x.contribs[si] = nil
	}
}
