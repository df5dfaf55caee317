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
	"repro/internal/stream"
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
			x:   newTopKExchange(task, cfg, r, stream.NewScratch()),
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
		for b := range s.x.sched.NumBuckets() {
			out[r] = append(out[r], s.x.rank.Child(b).Buffers())
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
		for b := range s.x.sched.NumBuckets() {
			sc := s.x.rank.Child(b)
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
// closed, the goroutine and open-descriptor counts are back to what they
// were within two seconds (the wall-clock benchmark's own rule), and each
// TCP run's loss matches the goroutine run's.
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
			wait := comm.LeakCheck()
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
			if err := wait(2 * time.Second); err != nil {
				t.Errorf("%s, BucketCoords %d: the closed world left %v", wc.name, coords, err)
			}
			if loss == nil {
				loss = got
			} else if math.Float64bits(got[0]) != math.Float64bits(loss[0]) {
				t.Errorf("%s, BucketCoords %d: loss %v, goroutine world %v", wc.name, coords, got[0], loss[0])
			}
		}
	}
}

// TestRepeatedRunStartsWarm: a rank's world keeps what Run sets up — the
// exchange with its persistent requests and their forks, the residual, the
// batch generator and the index buffer (comm.Keep) — and the storage it
// draws from (comm.Proc.Pool), so a second Run on the same world starts
// warm. On an 8-rank goroutine world and on a loopback TCP world, inside
// one comm.Run, three Runs with BucketCoords 1 and a fourth with fused
// exchange (BucketCoords 0, which rebuilds the exchange), each from the
// same initial parameters with a fresh controller, each return the
// history — loss, top-1, top-5 and bytes sent at every epoch; times are
// wall-clock — and the final parameters of one Run on a fresh world, bit
// for bit; so does a Run after a Run whose steps panicked on every rank,
// which drops the kept state. The goroutine count is back to its pre-call
// count after every Run. The third Run's allocations on the goroutine
// world, counted over the whole world between barriers, stay within the
// budget: ×1.25 of the 2.0–3.0 per step it read over ten runs (26–27
// before the world kept Run's state), against about 78 for the first Run,
// which builds the state and fills the pools. What is left is five per
// rank per Run — the history, the test's copy of the parameters and each
// fresh controller's own state — and the transport's wake-ups.
func TestRepeatedRunStartsWarm(t *testing.T) {
	const P, warm, budget = 8, 3, 1.25 * 3
	cfg := Config{Method: MethodTopK, LR: 0.0125, BatchPerNode: 8, Epochs: 2, StepsPerEpoch: 10,
		Bucket: 256, K: 8, Algorithm: core.Auto, BucketCoords: 1, EvalSamples: 16, Seed: 26}
	fused := cfg
	fused.BucketCoords = 0
	cfgs := []Config{cfg, cfg, cfg, fused}
	steps := float64(cfg.Epochs * cfg.StepsPerEpoch)
	tasks := make([]*MLPTask, P)
	for r := range tasks {
		tasks[r] = denseBlobTask(r, P)
	}
	initial := slices.Clone(tasks[0].Params())
	type outcome struct {
		hist   []Point
		params []float64
	}
	train := func(p *comm.Proc, task Task, c Config) outcome {
		copy(task.Params(), initial)
		c.Adapt = adapt.NewController(adapt.Config{})
		return outcome{Run(p, task, c), slices.Clone(task.Params())}
	}
	trainAll := func(c Config) func(p *comm.Proc) outcome {
		return func(p *comm.Proc) outcome { return train(p, tasks[p.Rank()], c) }
	}
	same := func(o, want outcome) bool {
		ok := len(o.hist) == len(want.hist) && slices.Equal(o.params, want.params)
		for e := 0; ok && e < len(o.hist); e++ {
			a, b := o.hist[e], want.hist[e]
			ok = a.Epoch == b.Epoch && a.BytesSent == b.BytesSent &&
				math.Float64bits(a.Loss) == math.Float64bits(b.Loss) &&
				math.Float64bits(a.Top1) == math.Float64bits(b.Top1) &&
				math.Float64bits(a.Top5) == math.Float64bits(b.Top5)
		}
		return ok
	}
	goroutines := func() *comm.World { return comm.NewWorld(P, simnet.Aries).UseGoroutineTransport() }
	fresh := map[int][]outcome{}
	for _, c := range cfgs[warm-1:] {
		fresh[c.BucketCoords] = comm.Run(goroutines(), trainAll(c))
	}

	worlds := []struct {
		name string
		open func() (*comm.World, error)
	}{
		{"goroutine", func() (*comm.World, error) { return goroutines(), nil }},
		{"tcp", func() (*comm.World, error) { return comm.NewWorldTCP(P, simnet.Aries, comm.TCPConfig{}) }},
	}
	for _, wc := range worlds {
		w, err := wc.open()
		if err != nil {
			t.Fatal(err)
		}
		// A TCP world dials a pair at its first message; every pair talks
		// before counting starts.
		comm.Run(w, func(p *comm.Proc) any {
			for q := range P {
				p.Send(q, 0, nil, 0)
			}
			for q := range P {
				p.Recv(q, 0)
			}
			return nil
		})
		mallocs := make([]float64, len(cfgs))
		got := comm.Run(w, func(p *comm.Proc) []outcome {
			var from, to runtime.MemStats
			var wait func(time.Duration) error
			out := make([]outcome, len(cfgs))
			for i, c := range cfgs {
				p.Barrier()
				if p.Rank() == 0 {
					wait = comm.LeakCheck()
					runtime.ReadMemStats(&from)
				}
				p.Barrier()
				out[i] = train(p, tasks[p.Rank()], c)
				p.Barrier()
				if p.Rank() == 0 {
					runtime.ReadMemStats(&to)
					mallocs[i] = float64(to.Mallocs-from.Mallocs) / steps
					if err := wait(2 * time.Second); err != nil {
						t.Errorf("%s, run %d left %v", wc.name, i+1, err)
					}
				}
			}
			return out
		})
		for r := range P {
			for i, o := range got[r] {
				if !same(o, fresh[cfgs[i].BucketCoords][r]) {
					t.Errorf("%s, rank %d, run %d: history or parameters differ from a fresh world's", wc.name, r, i+1)
				}
			}
		}

		// Every rank's Run panics at its third step; the world drops what
		// its ranks kept, and the next Run builds it anew.
		wait := comm.LeakCheck()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: the failing Run did not panic", wc.name)
				}
			}()
			comm.Run(w, func(p *comm.Proc) outcome {
				return train(p, &failingTask{MLPTask: tasks[p.Rank()], failAt: 3}, cfg)
			})
		}()
		if err := wait(2 * time.Second); err != nil {
			t.Errorf("%s, the failing Run left %v", wc.name, err)
		}
		wait = comm.LeakCheck()
		after := comm.Run(w, trainAll(cfg))
		if err := wait(2 * time.Second); err != nil {
			t.Errorf("%s, the Run after the failing one left %v", wc.name, err)
		}
		for r := range P {
			if !same(after[r], fresh[cfg.BucketCoords][r]) {
				t.Errorf("%s, rank %d: the Run after a panicking Run differs from a fresh world's", wc.name, r)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if wc.name != "goroutine" {
			continue
		}
		t.Logf("allocations per step across %d ranks, runs 1 to %d: %.1f", P, len(cfgs), mallocs)
		if mallocs[warm-1] > budget {
			t.Errorf("run %d allocated %.1f times per step, budget %.1f", warm, mallocs[warm-1], budget)
		}
	}
}

// failingTask is an MLPTask whose Step panics at its failAt-th call.
type failingTask struct {
	*MLPTask
	steps, failAt int
}

// Step is MLPTask.Step until the failAt-th call, which panics.
func (f *failingTask) Step(idx []int) (float64, int) {
	if f.steps++; f.steps == f.failAt {
		panic("train: the step fails")
	}
	return f.MLPTask.Step(idx)
}
