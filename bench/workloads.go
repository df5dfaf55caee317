package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/adapt"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/stream"
	"repro/internal/topk"
	"repro/internal/train"
)

// wallRanks is the rank count of every real-transport workload. The sandbox
// has two cores, so eight ranks are four times oversubscribed: enough to
// exercise every collective's log₂P and P−1 message patterns, too few cores
// to report a scaling efficiency. Larger P lives on the simulator workload.
const wallRanks = 8

// inputCalls is how many distinct input sets an allreduce workload rotates
// through, so consecutive ops never reduce the very same vectors.
const inputCalls = 3

// session is one constructed world (or cluster configuration) with its
// per-rank state, ready to run calls in lockstep.
type session struct {
	ranks int
	w     *comm.World // nil on sim-cluster-mix, whose worlds are internal to cluster
	hub   *obs.Obs    // the program's own obs hub when opened with observe
	// call is one rank's share of call i: the only thing that is timed.
	call func(rank int, p *comm.Proc, i int) any
	// check reports whether rank's result of call i is correct (untimed).
	check func(rank, i int, res any) bool
}

// run executes body once per rank, concurrently, and returns when all have
// returned: one long-lived comm.Run for a world, a plain call otherwise.
func (s *session) run(body func(rank int, p *comm.Proc)) {
	if s.w == nil {
		body(0, nil)
		return
	}
	comm.Run(s.w, func(p *comm.Proc) struct{} {
		body(p.Rank(), p)
		return struct{}{}
	})
}

func (s *session) close() error {
	if s.w == nil {
		return nil
	}
	return s.w.Close()
}

// counters returns the world's cumulative message and wire-byte counts.
func (s *session) counters() (msgs, wire int64) {
	if s.w == nil {
		return 0, 0
	}
	return s.w.TotalMessages(), s.w.TotalBytes()
}

// probeInputs is what the per-layer probes of a traced run work on: one
// op's per-rank inputs, the transport it runs on, and a layer-span view of
// the same inputs for the bucketed path.
type probeInputs struct {
	world    func() (*comm.World, error)
	ranks    int
	vectors  []*stream.Vector
	opts     core.Options // the op's options, without Scratch
	spans    [][2]int
	contribs [][]*stream.Vector // [rank][span]
	coords   int                // bucket-fusion target for spans
}

// instance is one workload bound to a seed: generated inputs, reference
// results, and how to open a session on them.
type instance struct {
	name         string
	ranks        int
	layerCall    string // the public function one call enters, for spans
	digest       string
	genSeconds   float64
	refSeconds   float64
	stepsPerCall int // ops one call stands for (a train.Run repetition is many steps)
	warmCalls    int
	tracedCalls  int
	open         func(observe bool) (*session, error)
	probe        func() (probeInputs, error)
}

// workloadDef declares one workload; the name must match BENCHMARK.json.
type workloadDef struct {
	name string
	// procs is the GOMAXPROCS the workload runs at; 0 leaves the process's
	// own (nproc). The latency pair runs on one P: its ops are 48 tiny
	// messages, a second P only adds hand-offs (they complete 15–35 % more
	// ops per second on one P than on two), and each hand-off to an idle
	// virtual CPU costs whatever the shared host makes a wake-up cost at that
	// moment, which is what made their timings irreproducible.
	procs int
	build func(name string, seed int64, quick bool) (*instance, error)
}

var workloads = []workloadDef{
	{"gor-latency", 1, collective{transport: "goroutine", n: 1 << 16, k: 128,
		opts: core.Options{Algorithm: core.Auto}, warm: 100, traced: 2000}.build},
	{"tcp-latency", 1, collective{transport: "tcp", n: 1 << 16, k: 128,
		opts: core.Options{Algorithm: core.Auto}, warm: 100, traced: 1000}.build},
	{"gor-bandwidth", 0, collective{transport: "goroutine", n: 1 << 20, k: 1 << 16,
		opts: core.Options{Algorithm: core.Auto}, warm: 3, traced: 20}.build},
	{"tcp-dense-q4", 0, collective{transport: "tcp", n: 1 << 20, k: 1 << 17,
		opts: core.Options{Algorithm: core.DSARSplitAllgather, Seed: 4,
			Quant: &quant.Config{Bits: 4, Bucket: 1024, Norm: quant.NormMax}}, warm: 3, traced: 12}.build},
	{trainWorkload, 0, buildTrain},
	{"sim-cluster-mix", 0, buildClusterMix},
}

func newWorld(transport string, p int) (*comm.World, error) {
	switch transport {
	case "sim":
		return comm.NewWorld(p, simnet.Aries), nil
	case "goroutine":
		return comm.NewWorld(p, simnet.Aries).UseGoroutineTransport(), nil
	case "tcp":
		return comm.NewWorldTCP(p, simnet.Aries, comm.TCPConfig{})
	}
	return nil, fmt.Errorf("unknown transport %q", transport)
}

// streamName is the PartitionedRNG namespace of one workload's inputs.
func streamName(workload string) string { return "bench/" + workload }

// collective is an allreduce workload: wallRanks ranks each reduce a
// k-sparse vector of dimension n with the given options.
type collective struct {
	transport string
	n, k      int
	opts      core.Options
	warm      int // warm-up calls: until Scratch pools, lazy dials and the heap settle
	traced    int // measured calls of a traced run
}

func (c collective) build(name string, seed int64, quick bool) (*instance, error) {
	if quick {
		c.n, c.k, c.warm, c.traced = c.n/64, max(c.k/64, 8), 3, 3
	}
	inst := &instance{name: name, ranks: wallRanks, layerCall: "core.Allreduce", stepsPerCall: 1,
		warmCalls: c.warm, tracedCalls: c.traced}

	t0 := time.Now()
	sc := scenario.Scenario{Name: streamName(name), N: c.n, P: wallRanks, Calls: inputCalls,
		Density: scenario.Const(float64(c.k) / float64(c.n))}
	calls := sc.Generator(scenario.NewKey(seed)).All()
	inst.genSeconds = time.Since(t0).Seconds()
	h := sha256.New()
	var buf []byte
	for _, call := range calls {
		for _, v := range call {
			buf = v.AppendWire(buf[:0])
			h.Write(buf)
		}
	}
	inst.digest = hex.EncodeToString(h.Sum(nil))

	// The reference is the same call on the simulator backend: the repo's
	// cross-transport contract is bit-identical results.
	t0 = time.Now()
	sim := comm.NewWorld(wallRanks, simnet.Aries)
	refs := make([]reference, len(calls))
	for ci, in := range calls {
		ref := comm.Run(sim, func(p *comm.Proc) *stream.Vector {
			return core.Allreduce(p, in[p.Rank()], c.opts)
		})[0]
		if c.opts.Quant == nil && !equalsDenseSum(ref, in) {
			return nil, fmt.Errorf("%s: simulator result differs from the dense reference sum", name)
		}
		refs[ci] = newReference(ref)
	}
	inst.refSeconds = time.Since(t0).Seconds()

	inst.open = func(observe bool) (*session, error) {
		w, err := newWorld(c.transport, wallRanks)
		if err != nil {
			return nil, err
		}
		s := &session{ranks: wallRanks, w: w}
		if observe {
			s.hub = w.EnableObservability()
		}
		scratch := make([]*stream.Scratch, wallRanks)
		for r := range scratch {
			scratch[r] = stream.NewScratch()
		}
		s.call = func(rank int, p *comm.Proc, i int) any {
			o := c.opts
			o.Scratch = scratch[rank]
			return core.Allreduce(p, calls[i%len(calls)][rank], o)
		}
		// Rank 0 and one rotating other rank are compared per op.
		s.check = func(rank, i int, res any) bool {
			if rank != 0 && rank != 1+i%(wallRanks-1) {
				return true
			}
			return refs[i%len(refs)].matches(res.(*stream.Vector))
		}
		return s, nil
	}
	inst.probe = func() (probeInputs, error) {
		pi := probeInputs{
			world: func() (*comm.World, error) { return newWorld(c.transport, wallRanks) },
			ranks: wallRanks, vectors: calls[0], opts: c.opts, coords: c.n / 2,
		}
		pi.spans, pi.contribs = evenSpans(c.n, calls[0])
		return pi, nil
	}
	return inst, nil
}

// reference is a result every checked op must reproduce bit for bit: the
// same representation, the same indices, the same value bits. It holds the
// expected storage so that checking an op allocates nothing.
type reference struct {
	dense []float64 // non-nil when the expected result is dense
	idx   []int32
	val   []float64
	dim   int
}

func newReference(v *stream.Vector) reference {
	r := reference{dim: v.Dim()}
	if v.IsDense() {
		r.dense = v.ToDense()
	} else {
		r.idx, r.val = v.Pairs()
	}
	return r
}

func (r reference) matches(v *stream.Vector) bool {
	if v == nil || v.Dim() != r.dim || v.IsDense() != (r.dense != nil) {
		return false
	}
	if r.dense != nil {
		for i, x := range r.dense {
			if math.Float64bits(v.Get(i)) != math.Float64bits(x) {
				return false
			}
		}
		return true
	}
	idx, val := v.Pairs()
	if len(idx) != len(r.idx) {
		return false
	}
	for i := range idx {
		if idx[i] != r.idx[i] || math.Float64bits(val[i]) != math.Float64bits(r.val[i]) {
			return false
		}
	}
	return true
}

// equalsDenseSum checks an unquantised sum against plain dense addition of
// the inputs; lattice values make that addition exact in any order.
func equalsDenseSum(got *stream.Vector, in []*stream.Vector) bool {
	sum := make([]float64, got.Dim())
	for _, v := range in {
		idx, val := v.Pairs()
		for i, ix := range idx {
			sum[ix] += val[i]
		}
	}
	for i, x := range got.ToDense() {
		if x != sum[i] {
			return false
		}
	}
	return true
}

// evenSpans cuts [0, n) into five equal layer spans and each rank's vector
// into the matching contributions, for workloads whose inputs have no layers.
func evenSpans(n int, vectors []*stream.Vector) (spans [][2]int, contribs [][]*stream.Vector) {
	const count = 5
	for s := 0; s < count; s++ {
		lo, hi := stream.ChunkRange(n, count, s)
		spans = append(spans, [2]int{lo, hi})
	}
	for _, v := range vectors {
		contribs = append(contribs, v.SplitChunks(count, nil))
	}
	return spans, contribs
}

// trainWorkload names the workload whose model and data the topk and train
// probes also use.
const trainWorkload = "gor-train-topk"

// trainShape sizes the gor-train-topk model, data and repetition length.
type trainShape struct{ width, blocks, rows, steps, bucketCoords int }

// trainSetup is the gor-train-topk problem under one seed: a residual MLP
// (413 962 parameters in five layer spans at full size) on synthetic dense
// data, trained by bucketed TopK-SGD with an adaptive controller.
type trainSetup struct {
	shape      trainShape
	seed       int64
	ds         *data.DenseDataset
	cfg        train.Config
	genSeconds float64
}

func newTrainSetup(name string, seed int64, quick bool) *trainSetup {
	ts := &trainSetup{seed: seed,
		shape: trainShape{width: 256, blocks: 3, rows: 2048, steps: 25, bucketCoords: 1 << 15}}
	if quick {
		ts.shape = trainShape{width: 64, blocks: 1, rows: 256, steps: 5, bucketCoords: 1 << 11}
	}
	key := scenario.NewKey(seed)
	t0 := time.Now()
	ts.ds = data.SyntheticDense(data.DenseConfig{Rows: ts.shape.rows, Dim: 64, Classes: 10, Sep: 2.2,
		Seed: key.Derive(streamName(name) + "/data")})
	ts.genSeconds = time.Since(t0).Seconds()
	ts.cfg = train.Config{Method: train.MethodTopK, LR: 0.01, BatchPerNode: 2,
		Epochs: 1, Bucket: 512, K: 8, Algorithm: core.Auto,
		BucketCoords: ts.shape.bucketCoords, EvalSamples: 8,
		Seed: key.Derive(streamName(name) + "/batch")}
	return ts
}

// tasks builds every rank's model replica over its shard of the data.
func (ts *trainSetup) tasks() []*train.MLPTask {
	tasks := make([]*train.MLPTask, wallRanks)
	for r := range tasks {
		tasks[r] = &train.MLPTask{Net: nn.ResidualMLP(ts.seed+77, 64, ts.shape.width, ts.shape.blocks, 10, 1),
			Shard: ts.ds.Shard(r, wallRanks)}
	}
	return tasks
}

// runner returns one rank's train.Run of the given length. Every run starts
// from the initial parameters with a fresh controller and no tracer, so
// repetitions do identical arithmetic and their final loss can be compared
// bit for bit.
func (ts *trainSetup) runner() func(rank int, p *comm.Proc, steps int) float64 {
	tasks := ts.tasks()
	initial := append([]float64(nil), tasks[0].Params()...)
	return func(rank int, p *comm.Proc, steps int) float64 {
		copy(tasks[rank].Params(), initial)
		c := ts.cfg
		c.StepsPerEpoch = steps
		c.Adapt = adapt.NewController(adapt.Config{})
		return train.Run(p, tasks[rank], c)[0].Loss
	}
}

func buildTrain(name string, seed int64, quick bool) (*instance, error) {
	ts := newTrainSetup(name, seed, quick)
	warmSteps := min(3, ts.shape.steps)
	inst := &instance{name: name, ranks: wallRanks, layerCall: "train.Run", stepsPerCall: ts.shape.steps,
		warmCalls: 1, tracedCalls: 2, genSeconds: ts.genSeconds}
	h := sha256.New()
	for _, row := range ts.ds.X {
		binary.Write(h, binary.LittleEndian, row)
	}
	inst.digest = hex.EncodeToString(h.Sum(nil))

	// Call 0 of a session is the short warm-up; the rest are full repetitions.
	stepsOf := func(i int) int {
		if i == 0 {
			return warmSteps
		}
		return ts.shape.steps
	}

	t0 := time.Now()
	sim := comm.NewWorld(wallRanks, simnet.Aries)
	simRun := ts.runner()
	ref := map[int]float64{}
	for _, steps := range []int{warmSteps, ts.shape.steps} {
		ref[steps] = comm.Run(sim, func(p *comm.Proc) float64 { return simRun(p.Rank(), p, steps) })[0]
	}
	inst.refSeconds = time.Since(t0).Seconds()

	inst.open = func(observe bool) (*session, error) {
		w, err := newWorld("goroutine", wallRanks)
		if err != nil {
			return nil, err
		}
		s := &session{ranks: wallRanks, w: w}
		if observe {
			s.hub = w.EnableObservability()
		}
		run := ts.runner()
		s.call = func(rank int, p *comm.Proc, i int) any { return run(rank, p, stepsOf(i)) }
		s.check = func(_, i int, res any) bool {
			return math.Float64bits(res.(float64)) == math.Float64bits(ref[stepsOf(i)])
		}
		return s, nil
	}
	inst.probe = func() (probeInputs, error) {
		pi := probeInputs{
			world: func() (*comm.World, error) { return newWorld("goroutine", wallRanks) },
			ranks: wallRanks, opts: core.Options{Algorithm: core.Auto}, coords: ts.shape.bucketCoords,
		}
		for r, task := range ts.tasks() {
			contribs, spans := firstStepContribs(task, ts.cfg, r)
			pi.spans = spans
			pi.contribs = append(pi.contribs, contribs)
			pi.vectors = append(pi.vectors, stream.ConcatChunks(contribs, nil))
		}
		return pi, nil
	}
	return inst, nil
}

// firstStepContribs reproduces what train.Run hands the bucket scheduler on
// its first step: one TopK contribution per layer span of rank's gradient.
func firstStepContribs(task *train.MLPTask, c train.Config, rank int) ([]*stream.Vector, [][2]int) {
	rng := scenario.NewPartitionedRNG(scenario.NewKey(c.Seed)).Stream(scenario.SubsystemBatch, rank)
	idx := make([]int, c.BatchPerNode)
	for i := range idx {
		idx[i] = rng.Intn(task.NumSamples())
	}
	task.ZeroGrads()
	task.Step(idx)
	res := topk.NewResidual(len(task.Params()))
	res.Accumulate(task.Grads(), c.LR)
	spans := task.LayerSpans()
	contribs := make([]*stream.Vector, len(spans))
	for i, sp := range spans {
		contribs[i] = res.ExtractSpan(sp[0], sp[1], c.Bucket, c.K)
	}
	return contribs, spans
}

// clusterSeed is BENCH_8's key: the mix is pinned to it rather than to
// -seed so that every run reproduces the committed fly4x4/128 rows.
const clusterSeed = 801

// clusterMix is the BENCH_8 fly4x4/128 cell: eight 16-rank jobs on an
// ingress-capped DragonflyLike(4,4) machine of 128 slots.
type clusterMix struct {
	cfg  cluster.Config
	jobs []cluster.Job
}

func newClusterMix(quick bool) clusterMix {
	n := 1 << 16
	if quick {
		n = 1 << 12
	}
	machine := simnet.DragonflyLike(4, 4)
	for i := range machine.Levels {
		machine.Levels[i].IngressSerial = machine.Levels[i].Serial
	}
	mix := clusterMix{cfg: cluster.Config{Machine: machine, Slots: 128, Key: scenario.NewKey(clusterSeed)}}
	for i := 0; i < 8; i++ {
		sc := scenario.Scenario{Name: "uniform", N: n, P: 16, Calls: 3,
			Density: scenario.Const(0.02 + 0.01*float64(i%3))}
		if i%2 == 1 {
			sc.Name = "clustered"
			sc.Blocks = []scenario.Block{{Start: 0, Frac: 0.05, Weight: 1}}
			sc.HotMass = scenario.Const(0.9)
		}
		mix.jobs = append(mix.jobs, cluster.Job{Name: fmt.Sprintf("job%d", i), Scenario: sc})
	}
	return mix
}

// run is one op: build the cluster, admit the eight jobs, run to completion.
func (m clusterMix) run(hub *obs.Obs) []cluster.JobStats {
	cfg := m.cfg
	cfg.Obs = hub
	c := cluster.New(cfg, cluster.CostAware{})
	for _, j := range m.jobs {
		c.Add(j)
	}
	return c.Run()
}

// jobSteps is how many job steps one run of the mix executes.
func (m clusterMix) jobSteps() int {
	n := 0
	for _, j := range m.jobs {
		n += j.Scenario.Calls
	}
	return n
}

func buildClusterMix(name string, _ int64, quick bool) (*instance, error) {
	t0 := time.Now()
	mix := newClusterMix(quick)
	inst := &instance{name: name, ranks: 1, layerCall: "cluster.Run", stepsPerCall: 1,
		warmCalls: 1, tracedCalls: 5, genSeconds: time.Since(t0).Seconds()}
	if quick {
		inst.tracedCalls = 3
	}
	decl, err := json.Marshal(mix.jobs)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(append(decl, byte(clusterSeed>>8), byte(clusterSeed&0xff)))
	inst.digest = hex.EncodeToString(sum[:])

	t0 = time.Now()
	ref := mix.run(nil)
	inst.refSeconds = time.Since(t0).Seconds()
	if !quick {
		if err := checkAgainstBench8(ref); err != nil {
			return nil, err
		}
	}

	inst.open = func(observe bool) (*session, error) {
		s := &session{ranks: 1}
		if observe {
			s.hub = obs.New(1, obs.ClockVirtual)
		}
		s.call = func(int, *comm.Proc, int) any { return mix.run(s.hub) }
		s.check = func(_, _ int, res any) bool { return reflect.DeepEqual(res, ref) }
		return s, nil
	}
	// The probes see what one job's step sees: job 0's first inputs on the
	// placed world cluster built for it.
	inst.probe = func() (probeInputs, error) {
		job := mix.jobs[0]
		sc := job.Scenario
		sc.Name = job.Name + "/" + sc.Name // the namespace cluster gives the job's streams
		pi := probeInputs{
			world: func() (*comm.World, error) {
				return comm.NewWorldPlaced(sc.P, mix.cfg.Machine, ref[0].Slots), nil
			},
			ranks: sc.P, vectors: sc.Generator(mix.cfg.Key).Next(),
			opts: core.Options{Algorithm: core.Auto}, coords: sc.N / 2,
		}
		pi.spans, pi.contribs = evenSpans(sc.N, pi.vectors)
		return pi, nil
	}
	return inst, nil
}

// checkAgainstBench8 compares the mix's stats with BENCH_8.json's committed
// fly4x4/128 cost-aware rows, when that file is present in the checkout.
func checkAgainstBench8(got []cluster.JobStats) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCH_8.json"))
	if os.IsNotExist(err) {
		return nil // retired by a later change; run-to-run identity still holds
	}
	if err != nil {
		return err
	}
	var doc struct {
		Cells []struct {
			Scale, Policy, Job, Algorithm string
			SimSeconds                    float64 `json:"sim_seconds"`
			PredictedJob                  float64 `json:"predicted_job_seconds"`
			Switches                      int
		}
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("BENCH_8.json: %w", err)
	}
	matched := 0
	for _, c := range doc.Cells {
		if c.Scale != "fly4x4/128" || c.Policy != "cost-aware" {
			continue
		}
		for _, s := range got {
			if s.Name != c.Job {
				continue
			}
			matched++
			if s.SimSeconds != c.SimSeconds || s.PredictedJob != c.PredictedJob ||
				s.Algorithm != c.Algorithm || s.Switches != c.Switches {
				return fmt.Errorf("sim-cluster-mix: %s differs from BENCH_8's fly4x4/128 cost-aware row: got %+v", c.Job, s)
			}
		}
	}
	if matched != len(got) {
		return fmt.Errorf("sim-cluster-mix: BENCH_8.json has %d fly4x4/128 cost-aware rows for %d jobs", matched, len(got))
	}
	return nil
}
