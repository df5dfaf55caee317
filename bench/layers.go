package main

import (
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/adapt"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/simnet"
	"repro/internal/stream"
	"repro/internal/topk"
)

// The per-layer probes time calls into each layer's public functions from
// outside, on the inputs of the workload being traced. The topk, train and
// cluster layers take no collective inputs, so their probes run on the
// inputs of the workload that owns them (gor-train-topk, sim-cluster-mix)
// in every traced run; every traced run therefore reports every metric.

// prober carries what every probe needs.
type prober struct {
	pi    probeInputs
	seed  int64
	quick bool
	track *obs.Track // rank 0 of the benchmark's hub
	set   func(name string, v float64)
}

// reps is how many calls a probe's median is taken over.
func (pr *prober) reps(full int) int {
	if pr.quick {
		return 3
	}
	return full
}

// sample times fn reps(20) times, or for 50 ms if that is longer, after
// one untimed call, and records one span per call. It returns seconds.
func (pr *prober) sample(name string, fn func()) []float64 {
	fn()
	var out []float64
	for start := time.Now(); len(out) < pr.reps(20) || (!pr.quick && time.Since(start) < 50*time.Millisecond && len(out) < 2000); {
		t0 := sinceEpoch()
		fn()
		t1 := sinceEpoch()
		pr.track.Event(name, t0, t1, obs.Attr{Key: "parent", Value: "probe"})
		out = append(out, t1-t0)
	}
	return out
}

// mallocs returns the process's cumulative allocation count and bytes.
func mallocs() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

func probeLayers(pi probeInputs, o options, hub *obs.Obs, set func(string, float64)) error {
	pr := &prober{pi: pi, seed: o.seed, quick: o.quick, track: hub.Rank(0), set: set}
	pr.probeStream()
	if err := pr.probeComm(); err != nil {
		return err
	}
	if err := pr.probeCore(); err != nil {
		return err
	}
	if err := pr.probeAdapt(); err != nil {
		return err
	}
	if err := pr.probeTrain(); err != nil {
		return err
	}
	pr.probeCluster()
	return nil
}

// probeStream times the stream and quant kernels on what rank 0 handles in
// a split phase: the P slices of partition 0, their merge, and its block.
func (pr *prober) probeStream() {
	vs := pr.pi.vectors
	n, P := vs[0].Dim(), len(vs)
	lo, hi := 0, n/P
	sc := stream.NewScratch()
	parts := make([]*stream.Vector, P)
	nnz := 0
	for r, v := range vs {
		parts[r] = v.ExtractRangeInto(lo, hi, sc)
		nnz += parts[r].NNZ()
	}
	perNNZ := 1e9 / float64(max(nnz, 1))

	m0, _ := mallocs()
	mergeK := pr.sample("stream.MergeK", func() { sc.Release(stream.MergeK(parts, sc)) })
	m1, _ := mallocs()
	pr.set("stream.merge_k_ns_per_nnz", median(mergeK)*perNNZ)
	pr.set("stream.merge_allocs_per_call", float64(m1-m0)/float64(len(mergeK)+1))
	workers := runtime.GOMAXPROCS(0)
	pr.set("stream.merge_parallel_ns_per_nnz",
		median(pr.sample("stream.MergeKParallel", func() { stream.MergeKParallel(parts, workers) }))*perNNZ)

	// One recursive-doubling round: rank 0's vector plus rank 1's.
	pair := float64(vs[0].NNZ() + vs[1].NNZ())
	var acc *stream.Vector
	addInto := pr.sample("stream.AddInto", func() {
		sc.Release(acc)
		acc = vs[0].CloneInto(sc)
		acc.AddInto(vs[1], sc)
	})
	clone := pr.sample("stream.CloneInto", func() { sc.Release(vs[0].CloneInto(sc)) })
	pr.set("stream.add_into_ns_per_nnz", max(median(addInto)-median(clone), 0)*1e9/pair)

	var wire []byte
	enc := pr.sample("stream.AppendWire", func() { wire = vs[0].AppendWire(wire[:0]) })
	pr.set("stream.wire_encode_ns_per_byte", median(enc)*1e9/float64(len(wire)))
	dec := pr.sample("stream.DecodeWire", func() {
		if _, _, err := stream.DecodeWire(wire); err != nil {
			panic(err)
		}
	})
	pr.set("stream.wire_decode_ns_per_byte", median(dec)*1e9/float64(len(wire)))

	reduced := stream.MergeK(parts, nil)
	dens := pr.sample("stream.DensifyInto", func() {
		c := reduced.CloneInto(sc)
		c.DensifyInto(sc)
		sc.Release(c)
	})
	cloneR := pr.sample("stream.CloneInto", func() { sc.Release(reduced.CloneInto(sc)) })
	pr.set("stream.densify_ns_per_coord", max(median(dens)-median(cloneR), 0)*1e9/float64(n))

	// quant: 4-bit encode and decode of rank 0's dense N/P block.
	block := reduced.ToDense()[lo:hi]
	cfg := quant.Config{Bits: 4, Bucket: 1024, Norm: quant.NormMax}
	rng := rand.New(rand.NewSource(pr.seed))
	var q *quant.Quantized
	encQ := pr.sample("quant.Encode", func() { q = quant.Encode(block, cfg, rng) })
	decQ := pr.sample("quant.Decode", func() { q.Decode() })
	pr.set("quant.encode_ns_per_coord", median(encQ)*1e9/float64(len(block)))
	pr.set("quant.decode_ns_per_coord", median(decQ)*1e9/float64(len(block)))
	pr.set("quant.wire_ratio", float64(q.WireBytes())/float64(8*len(block)))
}

// probeComm times the workload's transport alone: no collective, only
// Send, Recv and Barrier patterns between ranks of a fresh world.
func (pr *prober) probeComm() error {
	var setup []float64
	for i := 0; i < pr.reps(5); i++ {
		t0 := time.Now()
		w, err := pr.pi.world()
		if err != nil {
			return err
		}
		setup = append(setup, time.Since(t0).Seconds())
		w.Close()
	}
	pr.set("comm.world_setup_ms", median(setup)*1e3)

	w, err := pr.pi.world()
	if err != nil {
		return err
	}
	defer w.Close()
	rounds := pr.reps(2000)
	few := pr.reps(200)
	burst := max(few/4, 1) // payloads per stream, rounds of the mailbox scan
	small := []float64{1}
	// A sparse payload of about 1 MiB on the wire.
	nnz := (1 << 20) / (stream.IndexBytes + stream.DefaultValueBytes)
	idx, val := make([]int32, nnz), make([]float64, nnz)
	for i := range idx {
		idx[i], val[i] = int32(i*64), 0.5
	}
	big := stream.NewSparse(nnz*64, idx, val, stream.OpSum)

	type timings struct{ pingpong, stream, fanin, match, barrier, allocsPerMsg, allocPerByte float64 }
	t0 := sinceEpoch()
	got := comm.Run(w, func(p *comm.Proc) timings {
		var t timings
		rank, P := p.Rank(), p.Size()
		tag := p.NextTagBase()

		// Ranks 0 and 1 exchange 8 bytes, over and over.
		if rank < 2 {
			c0, _ := mallocs()
			start := time.Now()
			for i := 0; i < rounds; i++ {
				p.SendRecv(1-rank, tag, small, 8)
			}
			t.pingpong = time.Since(start).Seconds() / float64(rounds)
			c1, _ := mallocs()
			t.allocsPerMsg = float64(c1-c0) / float64(2*rounds)
		}
		p.Barrier()

		// Rank 0 streams 1 MiB payloads to rank 1, which acknowledges the lot.
		switch rank {
		case 0:
			_, b0 := mallocs()
			start := time.Now()
			for i := 0; i < burst; i++ {
				p.Send(1, tag+1, big, big.WireBytes())
			}
			p.Recv(1, tag+2)
			total := float64(burst * big.WireBytes())
			t.stream = total / time.Since(start).Seconds() / 1e6
			_, b1 := mallocs()
			t.allocPerByte = float64(b1-b0) / total
		case 1:
			for i := 0; i < burst; i++ {
				p.Recv(0, tag+1)
			}
			p.Send(0, tag+2, nil, 0)
		}
		p.Barrier()

		// Every other rank sends 8 bytes to rank 0, which answers each.
		start := time.Now()
		for i := 0; i < few; i++ {
			if rank == 0 {
				for r := 1; r < P; r++ {
					p.Recv(r, tag+3)
				}
				for r := 1; r < P; r++ {
					p.Send(r, tag+4, nil, 0)
				}
			} else {
				p.Send(0, tag+3, small, 8)
				p.Recv(0, tag+4)
			}
		}
		t.fanin = time.Since(start).Seconds() / float64(few)
		p.Barrier()

		// Rank 1 posts 64 tags; rank 0 receives them newest first, so each
		// Recv scans past everything still pending in its mailbox.
		const depth = 64
		for i := 0; i < burst; i++ {
			switch rank {
			case 1:
				for d := 0; d <= depth; d++ {
					p.Send(0, tag+10+d, nil, 0)
				}
				p.Recv(0, tag+5)
			case 0:
				p.Recv(1, tag+10+depth)
				start := time.Now()
				for d := depth - 1; d >= 0; d-- {
					p.Recv(1, tag+10+d)
				}
				t.match += time.Since(start).Seconds()
				p.Send(1, tag+5, nil, 0)
			}
		}
		t.match /= float64(burst * depth)
		p.Barrier()

		start = time.Now()
		for i := 0; i < few; i++ {
			p.Barrier()
		}
		t.barrier = time.Since(start).Seconds() / float64(few)
		return t
	})[0]
	pr.track.Event("comm.Send/Recv/Barrier", t0, sinceEpoch(), obs.Attr{Key: "parent", Value: "probe"})
	pr.set("comm.pingpong_us", got.pingpong*1e6)
	pr.set("comm.stream_mb_per_s", got.stream)
	pr.set("comm.fanin_us", got.fanin*1e6)
	pr.set("comm.match_depth64_ns", got.match*1e9)
	pr.set("comm.barrier_us", got.barrier*1e6)
	pr.set("comm.allocs_per_msg", got.allocsPerMsg)
	pr.set("comm.alloc_bytes_per_wire_byte", got.allocPerByte)
	return nil
}

// lockstepped runs call on every rank of a fresh world of the workload's
// transport, in lockstep and unchecked, after up to two warm-up calls, and
// returns the per-call latencies.
func (pr *prober) lockstepped(name string, calls int, call func(rank int, p *comm.Proc, sc *stream.Scratch)) ([]float64, error) {
	w, err := pr.pi.world()
	if err != nil {
		return nil, err
	}
	defer w.Close()
	P := pr.pi.ranks
	scratch := make([]*stream.Scratch, P)
	for r := range scratch {
		scratch[r] = stream.NewScratch()
	}
	s := &session{ranks: P, w: w,
		call:  func(rank int, p *comm.Proc, _ int) any { call(rank, p, scratch[rank]); return nil },
		check: func(int, int, any) bool { return true },
	}
	t0 := sinceEpoch()
	m, err := loop(s, &instance{name: name, layerCall: name, stepsPerCall: 1}, plan{warm: min(2, calls-1), calls: calls})
	pr.track.Event(name, t0, sinceEpoch(), obs.Attr{Key: "parent", Value: "probe"})
	return m.lat, err
}

// allreduce is the lockstepped call of one allreduce with the given options.
func (pr *prober) allreduce(name string, o core.Options) (float64, error) {
	lat, err := pr.lockstepped(name, pr.reps(20), func(rank int, p *comm.Proc, sc *stream.Scratch) {
		o := o
		o.Scratch = sc
		core.Allreduce(p, pr.pi.vectors[rank], o)
	})
	return median(lat), err
}

// probeCore runs every pinned algorithm, Auto, the simulator and the cost
// model on the workload's inputs and transport.
func (pr *prober) probeCore() error {
	pinned := []struct {
		metric string
		alg    core.Algorithm
	}{
		{"core.ssar_rec_double_ms", core.SSARRecDouble},
		{"core.ssar_split_ms", core.SSARSplitAllgather},
		{"core.dsar_ms", core.DSARSplitAllgather},
		{"core.dense_rabenseifner_ms", core.DenseRabenseifner},
	}
	best := 0.0
	for _, c := range pinned {
		o := pr.pi.opts
		o.Algorithm = c.alg
		sec, err := pr.allreduce(c.metric, o)
		if err != nil {
			return err
		}
		pr.set(c.metric, sec*1e3)
		if best == 0 || sec < best {
			best = sec
		}
	}
	auto := pr.pi.opts
	auto.Algorithm = core.Auto
	autoSec, err := pr.allreduce("core.Allreduce(Auto)", auto)
	if err != nil {
		return err
	}
	pr.set("core.auto_regret", autoSec/best)

	// The same call on the simulator: virtual seconds, and what the cost
	// model predicted for the algorithm Auto resolves to.
	sim, err := pr.pi.world()
	if err != nil {
		return err
	}
	if sim.WallClock() {
		sim.Close()
		sim = comm.NewWorld(pr.pi.ranks, simnet.Aries)
	}
	model := comm.Run(sim, func(p *comm.Proc) float64 {
		kmax := 0
		for _, v := range pr.pi.vectors {
			kmax = max(kmax, v.NNZ())
		}
		s := core.ScenarioFor(p, pr.pi.vectors[0], auto, kmax)
		alg, levels, chunks := core.ChooseAutoLevels(s)
		s.Levels, s.Chunks = levels, chunks
		core.Allreduce(p, pr.pi.vectors[p.Rank()], auto)
		return core.PredictSeconds(alg, s)
	})[0]
	simSec := sim.MaxTime()
	pr.set("core.sim_s_per_op", simSec)
	pr.set("core.model_over_sim", model/simSec)
	pr.set("core.wall_over_sim", autoSec/simSec)

	sched := core.NewBucketScheduler(pr.pi.spans, pr.pi.coords)
	lat, err := pr.lockstepped("core.BucketScheduler.Issue+Drain", pr.reps(20), func(rank int, p *comm.Proc, _ *stream.Scratch) {
		sched.Drain(p, sched.Issue(p, pr.pi.contribs[rank], []core.Options{auto}))
	})
	pr.set("core.bucket_issue_drain_ms", median(lat)*1e3)
	return err
}

// probeAdapt prices the controller: what its decision adds to a call, and
// what one bucketed plan costs.
func (pr *prober) probeAdapt() error {
	ctrls := make([]*adapt.Controller, pr.pi.ranks)
	for r := range ctrls {
		ctrls[r] = adapt.NewController(adapt.Config{})
	}
	auto := pr.pi.opts
	auto.Algorithm = core.Auto
	adaptive, err := pr.lockstepped("adapt.Controller.Allreduce", pr.reps(20), func(rank int, p *comm.Proc, sc *stream.Scratch) {
		o := auto
		o.Scratch = sc
		ctrls[rank].Allreduce(p, pr.pi.vectors[rank], o)
	})
	if err != nil {
		return err
	}
	chosen := auto
	chosen.Algorithm, chosen.Levels = ctrls[0].Choice()
	direct, err := pr.allreduce("core.Allreduce(chosen)", chosen)
	if err != nil {
		return err
	}
	pr.set("adapt.overhead_us", (median(adaptive)-direct)*1e6)

	sched := core.NewBucketScheduler(pr.pi.spans, pr.pi.coords)
	plan, err := pr.lockstepped("adapt.Controller.PlanBuckets", pr.reps(20), func(rank int, p *comm.Proc, _ *stream.Scratch) {
		ctrls[rank].PlanBuckets(p, sched, pr.pi.contribs[rank], auto)
	})
	pr.set("adapt.plan_buckets_us", median(plan)*1e6)
	pr.set("adapt.switches", float64(ctrls[0].Switches()+ctrls[0].BucketSwitches()))
	pr.set("adapt.choice_id", float64(chosen.Algorithm))
	return err
}

// probeTrain splits one training step into compute, TopK and the rest, on
// the gor-train-topk model and data under this run's seed.
func (pr *prober) probeTrain() error {
	ts := newTrainSetup(trainWorkload, pr.seed, pr.quick)
	tasks := ts.tasks()
	n := len(tasks[0].Params())
	spans := tasks[0].LayerSpans()
	batch := []int{0, 1}

	// Single-threaded kernel cost, on rank 0's first gradient.
	tasks[0].ZeroGrads()
	tasks[0].Step(batch)
	res := topk.NewResidual(n)
	acc := pr.sample("topk.Residual.Accumulate", func() { res.Accumulate(tasks[0].Grads(), ts.cfg.LR) })
	ext := pr.sample("topk.Residual.ExtractSpan", func() {
		for _, sp := range spans {
			res.ExtractSpan(sp[0], sp[1], ts.cfg.Bucket, ts.cfg.K)
		}
		res.Accumulate(tasks[0].Grads(), ts.cfg.LR) // refill what was extracted
	})
	pr.set("topk.accumulate_ns_per_coord", median(acc)*1e9/float64(n))
	pr.set("topk.extract_ns_per_coord", max(median(ext)-median(acc), 0)*1e9/float64(n))

	// The same two pieces with every rank busy at once, as in a real step,
	// but with no exchange between them.
	world := func() (*comm.World, error) { return newWorld("goroutine", wallRanks) }
	on := prober{pi: probeInputs{world: world, ranks: wallRanks}, quick: pr.quick, track: pr.track}
	compute, err := on.lockstepped("train.MLPTask.Step", pr.reps(20), func(rank int, _ *comm.Proc, _ *stream.Scratch) {
		tasks[rank].ZeroGrads()
		tasks[rank].Step(batch)
	})
	if err != nil {
		return err
	}
	residuals := make([]*topk.Residual, wallRanks)
	for r := range residuals {
		residuals[r] = topk.NewResidual(n)
	}
	sparsify, err := on.lockstepped("topk.Accumulate+ExtractSpan", pr.reps(20), func(rank int, _ *comm.Proc, _ *stream.Scratch) {
		residuals[rank].Accumulate(tasks[rank].Grads(), ts.cfg.LR)
		for _, sp := range spans {
			residuals[rank].ExtractSpan(sp[0], sp[1], ts.cfg.Bucket, ts.cfg.K)
		}
	})
	if err != nil {
		return err
	}

	// One whole repetition for the step time and the loss.
	run := ts.runner()
	var loss float64
	rep, err := on.lockstepped("train.Run", 1, func(rank int, p *comm.Proc, _ *stream.Scratch) {
		if l := run(rank, p, ts.shape.steps); rank == 0 {
			loss = l
		}
	})
	if err != nil {
		return err
	}
	step := median(rep) / float64(ts.shape.steps)
	pr.set("train.compute_ms", median(compute)*1e3)
	pr.set("train.comm_share", 1-(median(compute)+median(sparsify))/step)
	pr.set("train.loss_final", loss)
	return nil
}

// probeCluster times one run of the sim-cluster-mix op and the placement
// decision inside it.
func (pr *prober) probeCluster() {
	mix := newClusterMix(pr.quick)
	var stats []cluster.JobStats
	c0, _ := mallocs()
	host := pr.sample("cluster.Run", func() { stats = mix.run(nil) })
	c1, _ := mallocs()
	steps := float64(mix.jobSteps())
	pr.set("cluster.job_steps_per_s", steps/median(host))
	pr.set("cluster.allocs_per_job_step", float64(c1-c0)/float64(len(host)+1)/steps)
	switches, makespan := 0, 0.0
	for _, s := range stats {
		switches += s.Switches
		makespan = max(makespan, s.Finished)
	}
	pr.set("cluster.switches", float64(switches))
	pr.set("cluster.makespan_sim_s", makespan)

	// The first job's placement request on the idle machine.
	job := mix.jobs[0].Scenario
	free := make([]int, mix.cfg.Slots)
	for i := range free {
		free[i] = i
	}
	top := mix.cfg.Machine.Levels[mix.cfg.Machine.Depth()-1].Profile
	req := cluster.PlaceRequest{Machine: mix.cfg.Machine, Free: free, P: job.P,
		Cost:  core.CostScenario{N: job.N, P: job.P, K: int(job.Density.At(0, job.Calls) * float64(job.N)), Profile: top, Chunks: core.AutoChunks},
		Flows: func(int, int) int { return 0 }}
	place := pr.sample("cluster.CostAware.Place", func() { cluster.CostAware{}.Place(req) })
	pr.set("cluster.place_us", median(place)*1e6)
}

// phaseShares attributes rank 0's time inside the traced ops to the phase
// spans the program's own obs records, by name. Time covered by more than
// one span counts once, for the span that started first; what no span
// covers, including all time blocked in Recv outside a phase, is
// unattributed. The shares therefore sum to one.
func phaseShares(spans []obs.Span, rank0Seconds float64) map[string]float64 {
	metric := map[string]string{
		"split:send":     "core.split_send_share",
		"split:merge":    "core.split_merge_share",
		"dsar:densify":   "core.dsar_densify_share",
		"dsar:quantize":  "core.dsar_quantize_share",
		"dsar:allgather": "core.dsar_allgather_share",
	}
	var mine []obs.Span
	for _, sp := range spans {
		if sp.Rank == 0 && sp.Lane == obs.LaneMain && metric[sp.Name] != "" {
			mine = append(mine, sp)
		}
	}
	sort.SliceStable(mine, func(a, b int) bool { return mine[a].Start < mine[b].Start })
	out := map[string]float64{}
	for _, name := range metric {
		out[name] = 0
	}
	covered, attributed := 0.0, 0.0
	for _, sp := range mine {
		if from := max(sp.Start, covered); sp.End > from {
			out[metric[sp.Name]] += (sp.End - from) / rank0Seconds
			attributed += sp.End - from
			covered = sp.End
		}
	}
	out["core.unattributed_share"] = 1 - attributed/rank0Seconds
	return out
}
