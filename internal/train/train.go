// Package train implements data-parallel distributed training of neural
// networks with SparCML: the Quantized TopK SGD of Algorithm 1 (error
// feedback + per-bucket TopK + sparse allreduce + optional QSGD), the
// fully dense SGD baseline, and the block-momentum (BMUF) baseline used in
// the ASR experiment (§8.4). Wall-clock is simulated: device compute time
// (FLOPs ÷ device rate) plus the communication substrate's α–β virtual
// clock, which is what lets the harness reproduce the paper's
// error-versus-time curves at 16–128 simulated GPUs.
package train

import (
	"math"
	"math/rand"
	"slices"
	"strconv"

	"repro/internal/adapt"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/stream"
	"repro/internal/topk"
)

// Task abstracts a model + local data shard trainable by the distributed
// loop. Implementations wrap the nn package's models (see MLPTask and
// LSTMTask in task.go).
type Task interface {
	// NumSamples returns the local shard size.
	NumSamples() int
	// Params returns the flat parameter buffer (live).
	Params() []float64
	// Grads returns the flat gradient buffer (live).
	Grads() []float64
	// ZeroGrads clears the gradient buffer.
	ZeroGrads()
	// Step runs forward+backward on the given local sample indices,
	// accumulating the batch-averaged gradient; returns the mean loss and
	// top-1 correct count.
	Step(idx []int) (loss float64, correct int)
	// Eval runs forward only; returns summed loss, top-1 and top-5 correct
	// counts over the given indices.
	Eval(idx []int) (loss float64, top1, top5 int)
	// FlopsPerSample models per-sample compute cost (forward+backward).
	FlopsPerSample() float64
}

// Method selects the distributed training algorithm.
type Method int

const (
	// MethodDense is standard synchronous data-parallel SGD with a dense
	// allreduce of the full gradient — the paper's baseline.
	MethodDense Method = iota
	// MethodTopK is SparCML's Quantized TopK SGD (Algorithm 1): error
	// feedback, per-bucket TopK selection, sparse allreduce, optional QSGD
	// quantization of the dense stage.
	MethodTopK
	// MethodBMUF is block-momentum SGD (Chen & Huo): nodes run local SGD
	// for a block of steps, then average models with block-level momentum.
	// The ASR experiment's full-precision baseline.
	MethodBMUF
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodDense:
		return "dense"
	case MethodTopK:
		return "topk"
	case MethodBMUF:
		return "bmuf"
	default:
		return "unknown"
	}
}

// Config configures a distributed training run.
type Config struct {
	// Method selects the algorithm.
	Method Method
	// LR is the learning rate. For MethodDense and MethodBMUF the update
	// is LR times the *mean* gradient; for MethodTopK the summed TopK
	// contributions are applied directly, as in Algorithm 1, so LR should
	// be scaled down by roughly the node count relative to the dense value.
	LR float64
	// Momentum applies heavy-ball momentum to the dense and BMUF local
	// updates (TopK follows Algorithm 1, which is plain SGD + feedback).
	Momentum float64
	// BatchPerNode is the per-node minibatch size.
	BatchPerNode int
	// StepsPerEpoch caps the steps per epoch (0 = one full pass over the
	// largest shard, a count the ranks agree on with one allreduce).
	StepsPerEpoch int
	// Epochs is the number of epochs.
	Epochs int
	// Bucket and K select K entries from every Bucket consecutive
	// coordinates (§8.3 uses e.g. 8/512); Bucket 0 selects K globally.
	Bucket, K int
	// QuantBits enables QSGD quantization of the DSAR dense stage (0 off).
	QuantBits int
	// Algorithm is the sparse allreduce algorithm for MethodTopK.
	Algorithm core.Algorithm
	// Device models per-node compute speed (zero value: P100).
	Device simnet.Device
	// BMUFBlockSteps is the number of local steps between BMUF model
	// averages.
	BMUFBlockSteps int
	// BMUFMomentum is the block-level momentum (0.9 typical).
	BMUFMomentum float64
	// EvalSamples caps per-epoch evaluation work (0 = whole shard).
	EvalSamples int
	// DisableErrorFeedback drops the residual after every TopK extraction
	// instead of accumulating it — an ablation of Algorithm 1's error
	// feedback. Convergence degrades without it.
	DisableErrorFeedback bool
	// BucketCoords sets MethodTopK's exchange granularity. Every exchange
	// runs through one bucket scheduler (core.NewBucketScheduler): TopK is
	// selected per span, spans are coalesced into buckets of at least this
	// many coordinates, and the buckets are issued as nonblocking
	// collectives in backprop order and drained before the update —
	// DDP-style bucket fusion. 0 is fused exchange: one span over the
	// whole vector, so one TopK selection and one collective. 1 is
	// layer-wise exchange, one collective per layer ("communication is
	// done layer-wise using non-blocking calls", §8.3); core.BucketCoords
	// gives the cost-model-derived size in between. A positive value
	// needs the task to implement LayerSpans; a task that does not (such
	// as LSTMTask) exchanges fused.
	BucketCoords int
	// Chunks is forwarded to core.Options.Chunks for MethodTopK's
	// collectives: ≥ 2 pipelines each collective's split phase at that
	// degree, core.AutoChunks lets the cost model pick, and 0 keeps the
	// unchunked schedule. Under Adapt with Algorithm Auto, the planner
	// picks the chunk count per bucket instead.
	Chunks int
	// Adapt, when non-nil, routes MethodTopK's gradient allreduces
	// through the runtime adaptation controller instead of static Auto:
	// each call is sketched, and algorithm/depth are chosen from the
	// measured support shape and calibrated link constants with
	// hysteresis. One controller per rank (the facade's
	// World.EnableAdaptation builds them). TopK SGD is the canonical
	// adaptive workload: the residual's density and clustering drift as
	// training progresses, so a static support assumption is wrong for
	// part of every run. The parent proc decides
	// once per bucket per step (adapt.Controller.PlanBuckets) and pins a
	// concrete choice for each bucket's nonblocking call. Ignored by the
	// dense and BMUF methods.
	Adapt *adapt.Controller
	// LRSchedule, when non-nil, multiplies LR by LRSchedule(epoch) — the
	// paper's Table 3 schedules ("we start with a learning rate of 1,
	// which is divided by 10 at 30 and 60 epochs") and the diminishing
	// rates Theorem 4.1 requires. See StepDecay and InvSqrtDecay.
	LRSchedule func(epoch int) float64
	// Seed drives batch sampling (combined with the rank).
	Seed int64
}

// Point is one epoch of training history. Times are cumulative simulated
// seconds since the start of the run.
type Point struct {
	// Epoch is the zero-based epoch index.
	Epoch int
	// Time is the cumulative simulated wall-clock.
	Time float64
	// CommTime is the cumulative time spent in collectives.
	CommTime float64
	// Loss is the global training loss.
	Loss float64
	// Top1 and Top5 are global training accuracies.
	Top1, Top5 float64
	// BytesSent is this rank's cumulative modeled gradient payload.
	BytesSent int64
}

// agreedSteps is the steps per epoch of one full pass over the largest
// shard. Shards differing by a row can straddle a batch boundary, and every
// rank must run the same number of collectives, so the ranks agree on the
// largest count.
func agreedSteps(p *comm.Proc, rows, batch int) int {
	local := float64((rows + batch - 1) / batch)
	return int(core.AllreduceDense(p, []float64{local}, stream.OpMax)[0])
}

// Run executes distributed training on this rank and returns the per-epoch
// history (identical on every rank up to float determinism — all replicas
// apply identical updates).
func Run(p *comm.Proc, task Task, cfg Config) []Point {
	if cfg.Device.FlopsPerSec == 0 {
		cfg.Device = simnet.GPUP100
	}
	if cfg.BatchPerNode <= 0 {
		cfg.BatchPerNode = 32
	}
	// Batch sampling draws from the rank's seed-isolated stream: adding
	// ranks or other consumers never perturbs an existing rank's batches.
	rng := scenario.NewPartitionedRNG(scenario.NewKey(cfg.Seed)).Stream(scenario.SubsystemBatch, p.Rank())
	params := task.Params()
	P := p.Size()

	var residual *topk.Residual
	var exchange *topkExchange
	if cfg.Method == MethodTopK {
		residual = topk.NewResidual(len(params))
		exchange = newTopKExchange(task, cfg)
		defer exchange.close()
	}
	var velocity []float64
	if cfg.Momentum > 0 {
		velocity = make([]float64, len(params))
	}
	// BMUF state.
	var blockAnchor, blockVelocity []float64
	if cfg.Method == MethodBMUF {
		blockAnchor = append([]float64(nil), params...)
		blockVelocity = make([]float64, len(params))
	}

	steps := cfg.StepsPerEpoch
	if steps <= 0 {
		steps = agreedSteps(p, task.NumSamples(), cfg.BatchPerNode)
	}
	var history []Point
	commTime := 0.0
	var bytesSent int64
	globalStep := 0
	var idx []int // the step's batch, refilled every step

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		lr := cfg.LR
		if cfg.LRSchedule != nil {
			lr = cfg.LR * cfg.LRSchedule(epoch)
		}
		for s := 0; s < steps; s++ {
			stepStart := p.Now()
			idx = sampleBatch(rng, task.NumSamples(), cfg.BatchPerNode, idx)
			task.ZeroGrads()
			task.Step(idx)
			p.Compute(cfg.Device.ComputeTime(task.FlopsPerSample() * float64(len(idx))))

			switch cfg.Method {
			case MethodDense:
				t0 := p.Now()
				sum := core.AllreduceRabenseifner(p, task.Grads(), stream.OpSum, stream.DefaultValueBytes, p.NextTagBase())
				commTime += p.Now() - t0
				bytesSent += int64(len(sum) * 8)
				applyDense(params, velocity, sum, lr/float64(P), cfg.Momentum)

			case MethodTopK:
				// Algorithm 1: acc ← ε + α∇F; ε ← acc − TopK(acc);
				// g ← allreduce(Q(TopK(acc))); v ← v − g.
				residual.Accumulate(task.Grads(), lr)
				opts := core.Options{Algorithm: cfg.Algorithm, Chunks: cfg.Chunks, Seed: cfg.Seed + int64(globalStep)}
				if cfg.QuantBits > 0 {
					opts.Quant = &quant.Config{Bits: cfg.QuantBits, Bucket: 1024, Norm: quant.NormMax}
				}
				// TopK selection cost: one pass over the parameters.
				p.Compute(cfg.Device.ComputeTime(float64(len(params)) * 2))

				t0 := p.Now()
				bytesSent += exchange.extract(residual, cfg)
				exchange.apply(p, exchange.issue(p, opts, cfg.Adapt), params)
				commTime += p.Now() - t0
				if cfg.DisableErrorFeedback {
					residual.Reset()
				}

			case MethodBMUF:
				// Local step; sync every BMUFBlockSteps.
				applyDense(params, velocity, task.Grads(), lr, cfg.Momentum)
				if (globalStep+1)%max(1, cfg.BMUFBlockSteps) == 0 {
					t0 := p.Now()
					avg := core.AllreduceRabenseifner(p, params, stream.OpSum, stream.DefaultValueBytes, p.NextTagBase())
					commTime += p.Now() - t0
					bytesSent += int64(len(avg) * 8)
					for i := range avg {
						avg[i] /= float64(P)
					}
					// Block momentum: v ← μv + (avg − anchor); w ← anchor + v.
					for i := range params {
						g := avg[i] - blockAnchor[i]
						blockVelocity[i] = cfg.BMUFMomentum*blockVelocity[i] + g
						params[i] = blockAnchor[i] + blockVelocity[i]
						blockAnchor[i] = params[i]
					}
				}
			}
			if o := p.Obs(); o != nil {
				o.Event("train:step", stepStart, p.Now(),
					obs.Attr{Key: "epoch", Value: strconv.Itoa(epoch)},
					obs.Attr{Key: "step", Value: strconv.Itoa(globalStep)})
			}
			globalStep++
		}
		loss, top1, top5 := globalEval(p, task, cfg)
		if o := p.Obs(); o != nil {
			o.Metrics().Gauge("train.loss").Set(loss)
			o.Metrics().Gauge("train.top1").Set(top1)
		}
		history = append(history, Point{
			Epoch: epoch, Time: p.Now(), CommTime: commTime,
			Loss: loss, Top1: top1, Top5: top5, BytesSent: bytesSent,
		})
	}
	return history
}

// sampleBatch draws a batch of local sample indices with replacement into
// buf's storage when it is large enough.
func sampleBatch(rng *rand.Rand, n, batch int, buf []int) []int {
	if batch > n {
		batch = n
	}
	idx := slices.Grow(buf[:0], batch)[:batch]
	for i := range idx {
		idx[i] = rng.Intn(n)
	}
	return idx
}

// applyDense applies w ← w − lr·g (with optional momentum) given the
// summed gradient g.
func applyDense(params, velocity, grad []float64, lr, momentum float64) {
	if momentum > 0 {
		for i := range params {
			velocity[i] = momentum*velocity[i] - lr*grad[i]
			params[i] += velocity[i]
		}
		return
	}
	for i := range params {
		params[i] -= lr * grad[i]
	}
}

// applyUpdateVec applies v ← v − g where g already carries the learning
// rate (Algorithm 1's final line).
func applyUpdateVec(params []float64, g *stream.Vector) {
	if g.IsDense() {
		for i, x := range g.ToDense() {
			params[i] -= x
		}
		return
	}
	idx, val := g.Pairs()
	for j, ix := range idx {
		params[ix] -= val[j]
	}
}

// globalEval computes the global training loss/top-1/top-5 by evaluating a
// deterministic local subset on every rank and allreducing the counts.
func globalEval(p *comm.Proc, task Task, cfg Config) (loss, top1, top5 float64) {
	n := task.NumSamples()
	cap := cfg.EvalSamples
	if cap <= 0 || cap > n {
		cap = n
	}
	idx := make([]int, cap)
	for i := range idx {
		idx[i] = i * n / cap
	}
	l, c1, c5 := task.Eval(idx)
	sums := core.AllreduceDense(p, []float64{l, float64(c1), float64(c5), float64(cap)}, stream.OpSum)
	if sums[3] == 0 {
		return 0, 0, 0
	}
	return sums[0] / sums[3], sums[1] / sums[3], sums[2] / sums[3]
}

// Spanner is implemented by tasks whose model exposes per-layer parameter
// spans for layer-wise and bucketed exchange (Config.BucketCoords).
type Spanner interface {
	LayerSpans() [][2]int
}

// StepDecay returns a schedule that divides the learning rate by
// `divisor` at each of the given epochs — the paper's ImageNet schedule is
// StepDecay(10, 30, 60).
func StepDecay(divisor float64, at ...int) func(epoch int) float64 {
	return func(epoch int) float64 {
		m := 1.0
		for _, a := range at {
			if epoch >= a {
				m /= divisor
			}
		}
		return m
	}
}

// InvSqrtDecay returns the diminishing schedule 1/√(1+epoch) satisfying
// Theorem 4.1's requirement that "learning rates should be diminishing".
func InvSqrtDecay() func(epoch int) float64 {
	return func(epoch int) float64 {
		return 1 / math.Sqrt(1+float64(epoch))
	}
}
