package train

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/pin"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/topk"
)

// TestExchangeDigests pins whole training histories — every rank's Loss,
// Top1, Top5, Time, CommTime and BytesSent at every epoch — of TopK-SGD
// through each exchange granularity: fused (one TopK selection over the
// whole vector), per-layer (one collective per layer) and bucketed (layers
// fused into buckets of at least 200 coordinates), each under a pinned
// recursive-doubling SSAR on a flat world, static Auto with the chunk
// search on a two-level world, and 4-bit quantized DSAR, at P = 8 on the
// simulator. The entries train/exchange/* were recorded when each
// granularity had its own code path in Run, so they hold the one bucketed
// path to the same bits.
func TestExchangeDigests(t *testing.T) {
	const P = 8
	pin.Prefix(t, "train/exchange")
	grains := []struct {
		name string
		set  func(*Config)
	}{
		{"fused", func(*Config) {}},
		{"per-layer", func(c *Config) { c.BucketCoords = 1 }},
		{"bucketed200", func(c *Config) { c.BucketCoords = 200 }},
	}
	setups := []struct {
		name  string
		world func() *comm.World
		set   func(*Config)
	}{
		{"ssar-flat", func() *comm.World { return comm.NewWorld(P, testNet) },
			func(c *Config) { c.Algorithm = core.SSARRecDouble }},
		{"auto-chunks-two2", func() *comm.World {
			return comm.NewWorldHier(P, simnet.TwoLevel(2, simnet.NVLinkLike, simnet.Aries, 1))
		}, func(c *Config) { c.Algorithm, c.Chunks = core.Auto, core.AutoChunks }},
		{"dsar-q4", func() *comm.World { return comm.NewWorld(P, testNet) },
			func(c *Config) { c.Algorithm, c.QuantBits = core.DSARSplitAllgather, 4 }},
	}
	for _, g := range grains {
		for _, su := range setups {
			name := "train/exchange/" + g.name + "/" + su.name
			t.Run(g.name+"/"+su.name, func(t *testing.T) {
				cfg := Config{Method: MethodTopK, LR: 0.0125, BatchPerNode: 16, Epochs: 2, StepsPerEpoch: 3,
					Bucket: 256, K: 8, EvalSamples: 32, Seed: 37}
				g.set(&cfg)
				su.set(&cfg)
				hist := comm.Run(su.world(), func(p *comm.Proc) []Point {
					return Run(p, denseBlobTask(p.Rank(), P), cfg)
				})
				h := pin.New()
				for _, rank := range hist {
					for _, pt := range rank {
						binary.Write(h, binary.LittleEndian, []float64{pt.Loss, pt.Top1, pt.Top5, pt.Time, pt.CommTime})
						binary.Write(h, binary.LittleEndian, pt.BytesSent)
					}
				}
				pin.Check(t, name, h)
			})
		}
	}
}

// bucketedRank is one rank's state of a bucketed TopK-SGD run driven step
// by step, the way Run drives it.
type bucketedRank struct {
	task     *MLPTask
	residual *topk.Residual
	x        *topkExchange
	rng      *rand.Rand
	batch    []int
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
			x:   newTopKExchange(task, cfg),
			rng: scenario.NewPartitionedRNG(scenario.NewKey(cfg.Seed)).Stream(scenario.SubsystemBatch, r),
			cfg: cfg}
	}
	return ranks
}

// closeRanks stops every rank's bucket workers.
func closeRanks(ranks []*bucketedRank) {
	for _, s := range ranks {
		s.x.close()
	}
}

// gradient runs forward and backward on a fresh batch and folds the
// gradient into the residual.
func (s *bucketedRank) gradient() {
	s.task.ZeroGrads()
	s.batch = sampleBatch(s.rng, s.task.NumSamples(), s.cfg.BatchPerNode, s.batch)
	s.task.Step(s.batch)
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
// 50 as at step 10.
//
// The control plane is reused too: each rank's persistent bucket requests,
// the controller's agreement workspaces and the exchange's slices. So a
// warm step allocates nothing at all, counted over the whole world between
// barriers inside one Run, in three 10-step windows after ten more warm
// steps, of which the least is taken (whatever else the process does only
// adds to a count). It read 0.00 allocations per step; building the
// control plane afresh every step, as before, read 241. The budget is the
// measured 0 plus stepMallocNoise, two stray allocations in a window: a
// mailbox queue growing past its longest so far, a runtime wait record.
func TestBucketedStepSteadyState(t *testing.T) {
	const P, budget, stepMallocNoise = 8, 1.25 * 296e3, 0.2
	ranks := bucketedRanks(P, true)
	defer closeRanks(ranks)
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
	var windows [3]float64
	comm.Run(w, func(p *comm.Proc) any {
		var from, to runtime.MemStats
		for range 10 { // the new Run's goroutines warm their runtime caches
			ranks[p.Rank()].step(p)
		}
		for i := range windows {
			p.Barrier()
			if p.Rank() == 0 {
				runtime.ReadMemStats(&from)
			}
			p.Barrier()
			for range 10 {
				ranks[p.Rank()].step(p)
			}
			p.Barrier()
			if p.Rank() == 0 {
				runtime.ReadMemStats(&to)
				windows[i] = float64(to.Mallocs-from.Mallocs) / 10
			}
		}
		return nil
	})
	runtime.ReadMemStats(&after)
	perStep := float64(after.TotalAlloc-before.TotalAlloc) / 45
	at50 := pooled(ranks)
	mallocs := slices.Min(windows[:])
	t.Logf("%.0f bytes and %.2f allocations per step (windows %v); bucket pools %v at step 50", perStep, mallocs, windows, at50)
	if perStep > budget {
		t.Errorf("%.0f bytes allocated per step after warm-up, budget %.0f", perStep, budget)
	}
	if mallocs > stepMallocNoise {
		t.Errorf("%.2f allocations per warm step across %d ranks, budget 0 (+%.2f noise)", mallocs, P, stepMallocNoise)
	}
	for r := range at10 {
		for b := range at10[r] {
			if at10[r][b] != at50[r][b] {
				t.Errorf("rank %d bucket %d: pool held %d buffers at step 10 and %d at step 50",
					r, b, at10[r][b], at50[r][b])
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
	defer closeRanks(ranks)
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

// TestBucketedRunLeavesNoGoroutines: a TopK-SGD run keeps a worker
// goroutine per bucket on every rank while it steps — fused exchange too,
// as one bucket — and Run stops them when it returns. Around a short
// fused and a short layer-wise train.Run on a goroutine world and on a
// loopback TCP world, from before the world is built to after it is
// closed, the goroutine count is back to what it was within two seconds
// (the wall-clock benchmark's own rule), and each TCP run's loss matches
// the goroutine run's.
func TestBucketedRunLeavesNoGoroutines(t *testing.T) {
	const P = 4
	cfg := Config{Method: MethodTopK, LR: 0.0125, BatchPerNode: 8, Epochs: 1, StepsPerEpoch: 4,
		Bucket: 256, K: 8, Algorithm: core.Auto, Seed: 26, EvalSamples: 8}
	worlds := []struct {
		name string
		open func() (*comm.World, error)
	}{
		{"goroutine", func() (*comm.World, error) { return comm.NewWorld(P, simnet.Aries).UseGoroutineTransport(), nil }},
		{"tcp", func() (*comm.World, error) { return comm.NewWorldTCP(P, simnet.Aries, comm.TCPConfig{}) }},
	}
	for _, coords := range []int{0, 1} {
		var loss []float64
		for _, wc := range worlds {
			before := runtime.NumGoroutine()
			w, err := wc.open()
			if err != nil {
				t.Fatal(err)
			}
			got := comm.Run(w, func(p *comm.Proc) float64 {
				c := cfg
				c.BucketCoords = coords
				c.Adapt = adapt.NewController(adapt.Config{})
				return Run(p, denseBlobTask(p.Rank(), P), c)[0].Loss
			})
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%s, BucketCoords %d: %d goroutines before the world, %d two seconds after Close", wc.name, coords, before, n)
			}
			if loss == nil {
				loss = got
			} else if math.Float64bits(got[0]) != math.Float64bits(loss[0]) {
				t.Errorf("%s, BucketCoords %d: loss %v, goroutine world %v", wc.name, coords, got[0], loss[0])
			}
		}
	}
}
