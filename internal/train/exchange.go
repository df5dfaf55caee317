package train

import (
	"repro/internal/adapt"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/topk"
)

// layerExchange is one rank's layer-wise TopK-SGD exchange: one nonblocking
// allreduce per layer, overlapped with each other ("communication is done
// layer-wise using non-blocking calls", §8.3) — or, with a bucket
// scheduler, one per fused bucket in backprop order. Everything in it is
// built once per run and reused by every step: the layer spans, the
// scheduler and this rank's run of it (one persistent request per bucket,
// whose workers close stops), the per-step slices and the pools.
//
// Every buffer goes back where it dies. Contributions are drawn from the
// rank's own pool and return to it once the scheduler has fused them (or,
// per layer, once their collectives are done). Each bucket's collective
// runs on a pool of its own — the bucket is fused into it, and the
// collective releases the fused input there and builds its result there —
// and the summed update returns to it once applied. Buckets in flight
// together therefore never share a pool, and the scheduler, which holds
// none, stays shareable.
type layerExchange struct {
	spans    [][2]int
	contribs []*stream.Vector
	rank     *stream.Scratch // the contributions' pool

	sched *core.BucketScheduler // nil: one collective per layer
	run   *core.BucketRun       // this rank's requests and slices for sched
	pools []*stream.Scratch     // one per bucket
	bopts []core.Options        // one per bucket
	reqs  []*core.Request       // one per layer, without a scheduler
}

// newLayerExchange returns the exchange for a task whose model exposes
// layer spans when layer-wise or bucketed exchange is requested, nil
// otherwise. Bucket composition depends only on the spans, so every rank
// derives the same buckets.
func newLayerExchange(task Task, cfg Config) *layerExchange {
	s, ok := task.(Spanner)
	if !ok || (!cfg.LayerWise && cfg.BucketCoords <= 0) {
		return nil
	}
	spans := s.LayerSpans()
	x := &layerExchange{spans: spans, contribs: make([]*stream.Vector, len(spans)), rank: stream.NewScratch()}
	if cfg.BucketCoords <= 0 {
		x.reqs = make([]*core.Request, len(spans))
		return x
	}
	x.sched = core.NewBucketScheduler(spans, cfg.BucketCoords)
	x.run = x.sched.NewRun()
	x.pools = make([]*stream.Scratch, x.sched.NumBuckets())
	for b := range x.pools {
		x.pools[b] = stream.NewScratch()
	}
	x.bopts = make([]core.Options, len(x.pools))
	return x
}

// extract removes every layer's TopK contribution from the residual and
// returns their wire bytes.
func (x *layerExchange) extract(residual *topk.Residual, cfg Config) int64 {
	var bytes int64
	for si, span := range x.spans {
		x.contribs[si] = residual.ExtractSpanInto(span[0], span[1], cfg.Bucket, cfg.K, x.rank)
		bytes += int64(x.contribs[si].WireBytes())
	}
	return bytes
}

// issue starts the step's collectives over the extracted contributions.
// With a controller the parent proc decides once for the whole step
// (Controller.Plan fuses every layer's sketch; Controller.PlanBuckets
// decides per bucket) and the resolved choices go to the nonblocking
// calls, so neither path bypasses it.
func (x *layerExchange) issue(p *comm.Proc, opts core.Options, ctrl *adapt.Controller) []*core.Request {
	if x.sched == nil {
		if ctrl != nil {
			opts = ctrl.Plan(p, x.contribs, opts)
		}
		for si, c := range x.contribs {
			x.reqs[si] = core.IAllreduce(p, c, opts)
		}
		return x.reqs
	}
	bopts := x.bopts
	if ctrl != nil {
		bopts = ctrl.PlanBucketsInto(p, x.sched, x.contribs, opts, bopts)
	} else {
		for b := range bopts {
			bopts[b] = opts
		}
	}
	for b := range bopts {
		bopts[b].Scratch = x.pools[b]
	}
	reqs := x.run.Issue(p, x.contribs, bopts)
	x.releaseContribs()
	return reqs
}

// apply waits for the step's collectives in issue order and applies each
// sum to params.
func (x *layerExchange) apply(p *comm.Proc, reqs []*core.Request, params []float64) {
	if x.sched == nil {
		for _, r := range reqs {
			applyUpdateVec(params, r.Wait(p))
		}
		x.releaseContribs()
		return
	}
	for b, sum := range x.run.Drain(p, reqs) {
		applyUpdateVec(params, sum)
		x.pools[b].Release(sum)
	}
}

// close stops the bucket run's workers; the exchange must not be used
// afterwards.
func (x *layerExchange) close() {
	if x.run != nil {
		x.run.Close()
	}
}

// releaseContribs hands the step's contributions back to the rank pool.
func (x *layerExchange) releaseContribs() {
	for si, c := range x.contribs {
		x.rank.Release(c)
		x.contribs[si] = nil
	}
}
