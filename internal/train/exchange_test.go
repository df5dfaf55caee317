package train

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/adapt"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/topk"
)

// bucketedRank is one rank's state of a bucketed TopK-SGD run driven step
// by step, the way Run drives it.
type bucketedRank struct {
	task     *MLPTask
	residual *topk.Residual
	x        *layerExchange
	rng      *rand.Rand
	cfg      Config
	steps    int
}

// bucketedRanks builds P ranks of denseBlobTask with one bucket per layer
// (three: the input layer, the residual block and the classifier).
func bucketedRanks(P int, adaptive bool) []*bucketedRank {
	ranks := make([]*bucketedRank, P)
	for r := range ranks {
		cfg := Config{Method: MethodTopK, LR: 0.0125, BatchPerNode: 8,
			Bucket: 256, K: 8, Algorithm: core.Auto, BucketCoords: 1, Seed: 26}
		if adaptive {
			cfg.Adapt = adapt.NewController(adapt.Config{})
		}
		task := denseBlobTask(r, P)
		ranks[r] = &bucketedRank{task: task, residual: topk.NewResidual(len(task.Params())),
			x:   newLayerExchange(task, cfg),
			rng: scenario.NewPartitionedRNG(scenario.NewKey(cfg.Seed)).Stream(scenario.SubsystemBatch, r),
			cfg: cfg}
	}
	return ranks
}

// gradient runs forward and backward on a fresh batch and folds the
// gradient into the residual.
func (s *bucketedRank) gradient() {
	s.task.ZeroGrads()
	s.task.Step(sampleBatch(s.rng, s.task.NumSamples(), s.cfg.BatchPerNode))
	s.residual.Accumulate(s.task.Grads(), s.cfg.LR)
}

// opts returns the step's collective options, as Run builds them.
func (s *bucketedRank) opts() core.Options {
	s.steps++
	return core.Options{Algorithm: s.cfg.Algorithm, Seed: s.cfg.Seed + int64(s.steps)}
}

// step is one bucketed TopK-SGD step.
func (s *bucketedRank) step(p *comm.Proc) {
	s.gradient()
	s.x.extract(s.residual, s.cfg)
	s.x.apply(p, s.x.issue(p, s.opts(), s.cfg.Adapt), s.task.Params())
}

// pooled returns every rank's bucket pool sizes.
func pooled(ranks []*bucketedRank) [][]int {
	out := make([][]int, len(ranks))
	for r, s := range ranks {
		for _, sc := range s.x.pools {
			out[r] = append(out[r], sc.Buffers())
		}
	}
	return out
}

// TestBucketedStepSteadyState: on an 8-rank goroutine world with adaptive
// per-bucket decisions, a bucketed TopK-SGD step reaches steady state.
// Every buffer goes back to the pool it came from, so after five warm-up
// steps the bytes a step allocates stay within the budget — ×1.25 of the
// 296 KB measured when the pools were introduced; with the scheduler
// stripping them the same run allocated 558 KB a step and its pools grew to
// 120 buffers — and every bucket pool holds exactly as many buffers at step
// 40 as at step 10.
func TestBucketedStepSteadyState(t *testing.T) {
	const P, budget = 8, 1.25 * 296e3
	ranks := bucketedRanks(P, true)
	w := comm.NewWorld(P, simnet.Aries).UseGoroutineTransport()
	run := func(steps int) {
		comm.Run(w, func(p *comm.Proc) any {
			for i := 0; i < steps; i++ {
				ranks[p.Rank()].step(p)
			}
			return nil
		})
	}
	var before, after runtime.MemStats
	run(5)
	runtime.ReadMemStats(&before)
	run(5)
	at10 := pooled(ranks)
	run(30)
	runtime.ReadMemStats(&after)
	perStep := float64(after.TotalAlloc-before.TotalAlloc) / 35
	at40 := pooled(ranks)
	t.Logf("%.0f bytes allocated per step; bucket pools %v at step 40", perStep, at40)
	if perStep > budget {
		t.Errorf("%.0f bytes allocated per step after warm-up, budget %.0f", perStep, budget)
	}
	for r := range at10 {
		for b := range at10[r] {
			if at10[r][b] != at40[r][b] {
				t.Errorf("rank %d bucket %d: pool held %d buffers at step 10 and %d at step 40",
					r, b, at10[r][b], at40[r][b])
			}
		}
	}
}

// TestPooledBucketsInFlightDuringExtraction: three pooled buckets are in
// flight while the parent computes the next gradient and extracts the next
// contributions from the rank's own pool. ci.sh runs this under -race, where
// two buckets handed one pool — or a bucket handed the rank pool — race;
// without -race, a pool handed to two buckets is stripped by the scheduler,
// which the distinct-pool check catches. Replicas must stay identical.
func TestPooledBucketsInFlightDuringExtraction(t *testing.T) {
	const P = 4
	ranks := bucketedRanks(P, false)
	if B := ranks[0].x.sched.NumBuckets(); B < 3 {
		t.Fatalf("%d buckets, want at least 3 in flight", B)
	}
	comm.Run(comm.NewWorld(P, simnet.Aries).UseGoroutineTransport(), func(p *comm.Proc) any {
		s := ranks[p.Rank()]
		s.gradient()
		s.x.extract(s.residual, s.cfg)
		for step := 0; step < 6; step++ {
			reqs := s.x.issue(p, s.opts(), nil)
			s.gradient()
			s.x.extract(s.residual, s.cfg)
			s.x.apply(p, reqs, s.task.Params())
		}
		s.x.releaseContribs()
		return nil
	})
	for r, s := range ranks {
		seen := map[any]bool{s.x.rank: true}
		for b, sc := range s.x.pools {
			if seen[sc] {
				t.Fatalf("rank %d bucket %d shares a pool", r, b)
			}
			seen[sc] = true
			if sc.Buffers() == 0 {
				t.Errorf("rank %d bucket %d: its pool was never used", r, b)
			}
		}
		for i, x := range s.task.Params() {
			if x != ranks[0].task.Params()[i] {
				t.Fatalf("rank %d parameter %d diverged from rank 0", r, i)
			}
		}
	}
}
