package mlopt

import (
	"math/rand"
	"sort"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// CommMode selects the gradient exchange implementation.
type CommMode int

const (
	// CommDense exchanges full dense gradients with Rabenseifner's
	// allreduce — the "Cray MPI dense" baseline of Table 2.
	CommDense CommMode = iota
	// CommSparse exchanges sparse gradients with a SparCML algorithm.
	CommSparse
)

// SGDConfig configures distributed SGD.
type SGDConfig struct {
	// Loss is the training objective.
	Loss Loss
	// LR is the learning rate.
	LR float64
	// BatchPerNode is the per-node minibatch size (the paper runs "large
	// batches (1,000 × P)", i.e. 1000 per node).
	BatchPerNode int
	// Epochs is the number of dataset passes.
	Epochs int
	// Mode selects dense vs sparse gradient exchange.
	Mode CommMode
	// Algorithm is the SparCML algorithm for CommSparse (Auto by default).
	Algorithm core.Algorithm
	// Device models per-node compute speed; zero value means CPUXeon.
	Device simnet.Device
	// Async enables pipelined (one-step-stale) aggregation: the gradient
	// allreduce is issued nonblocking and applied at the *next* step,
	// overlapping communication with the following batch's computation —
	// MPI-OPT's asynchronous aggregation mode (§7: "sparse, dense,
	// synchronous, and asynchronous aggregation").
	Async bool
	// Seed drives batch sampling.
	Seed int64
}

// EpochStats records one epoch of distributed training. Times are
// simulated (virtual-clock) seconds for this rank.
type EpochStats struct {
	// Epoch is the zero-based epoch index.
	Epoch int
	// Time is the total simulated time spent in the epoch.
	Time float64
	// CommTime is the portion spent in collective communication.
	CommTime float64
	// Loss is the global mean training loss after the epoch.
	Loss float64
	// Accuracy is the global training accuracy after the epoch.
	Accuracy float64
}

// sgdFlopsPerEntry models the multiply-adds per stored feature touched in
// a forward+backward pass of a linear model.
const sgdFlopsPerEntry = 6

// TrainSGD runs data-parallel minibatch SGD on this rank's shard,
// exchanging gradients every step, and returns per-epoch statistics
// (identical on every rank). Gradients of linear models on sparse data are
// sparse — the experiment of §8.2 exploits exactly this, with no
// sparsification or quantization.
func TrainSGD(p *comm.Proc, shard *data.SparseDataset, cfg SGDConfig) []EpochStats {
	if cfg.Device.FlopsPerSec == 0 {
		cfg.Device = simnet.CPUXeon
	}
	if cfg.BatchPerNode <= 0 {
		cfg.BatchPerNode = 100
	}
	w := make([]float64, shard.Dim)
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(p.Rank()+1)))
	stats := make([]EpochStats, 0, cfg.Epochs)
	// Shards differing by a row can straddle a batch boundary, and every
	// rank must run the same number of collectives: agree on the largest
	// count.
	local := float64((shard.Rows() + cfg.BatchPerNode - 1) / cfg.BatchPerNode)
	stepsPerEpoch := int(core.AllreduceDense(p, []float64{local}, stream.OpMax)[0])
	P := float64(p.Size())

	algOpts := core.Options{Algorithm: cfg.Algorithm}
	if cfg.Mode == CommDense {
		algOpts.Algorithm = core.DenseRabenseifner
	}
	var pending *core.Request

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		epochStart := p.Now()
		commTime := 0.0
		for step := 0; step < stepsPerEpoch; step++ {
			grad, nnzTouched := minibatchGradient(w, shard, cfg, rng)
			p.Compute(cfg.Device.ComputeTime(float64(nnzTouched) * sgdFlopsPerEntry))

			commStart := p.Now()
			var sum *stream.Vector
			if cfg.Async {
				// Pipelined: apply last step's (stale) aggregate and issue
				// this step's exchange in the background.
				if pending != nil {
					sum = pending.Wait(p)
				}
				pending = core.IAllreduce(p, grad, algOpts)
			} else if cfg.Mode == CommDense {
				sum = AllreduceRabenseifnerWrapped(p, grad)
			} else {
				sum = core.Allreduce(p, grad, algOpts)
			}
			commTime += p.Now() - commStart

			if sum != nil {
				applyUpdate(w, sum, cfg.LR/P)
				p.Compute(cfg.Device.ComputeTime(float64(sum.NNZ()) * 2))
			}
		}
		// Drain the pipeline at epoch boundaries so reported metrics
		// reflect all issued gradients.
		if pending != nil {
			commStart := p.Now()
			sum := pending.Wait(p)
			pending = nil
			commTime += p.Now() - commStart
			applyUpdate(w, sum, cfg.LR/P)
		}
		loss, acc := globalEval(p, w, shard, cfg.Loss)
		stats = append(stats, EpochStats{
			Epoch:    epoch,
			Time:     p.Now() - epochStart,
			CommTime: commTime,
			Loss:     loss,
			Accuracy: acc,
		})
	}
	return stats
}

// AllreduceRabenseifnerWrapped runs the dense baseline on a sparse
// gradient: the vector is densified first (that is the point of the
// baseline — it cannot exploit sparsity) and the full dense vector crosses
// the network.
func AllreduceRabenseifnerWrapped(p *comm.Proc, grad *stream.Vector) *stream.Vector {
	dense := core.AllreduceRabenseifner(p, grad.ToDense(), grad.Op(), grad.ValueBytes(), p.NextTagBase())
	return stream.NewDense(dense, grad.Op())
}

// minibatchGradient computes the summed gradient of the loss over a random
// minibatch, as a sparse stream over the union of the batch's feature
// indices. Returns the stream and the number of stored entries touched
// (for compute-time modeling).
func minibatchGradient(w []float64, shard *data.SparseDataset, cfg SGDConfig, rng *rand.Rand) (*stream.Vector, int) {
	acc := make(map[int32]float64, cfg.BatchPerNode*8)
	touched := 0
	rows := shard.Rows()
	for b := 0; b < cfg.BatchPerNode; b++ {
		i := rng.Intn(rows)
		idx, val := shard.Row(i)
		y := shard.Label[i]
		d := cfg.Loss.DMargin(margin(w, idx, val, y))
		touched += len(idx)
		if d == 0 {
			continue // hinge: correctly classified with margin
		}
		for j, ix := range idx {
			acc[ix] += d * y * val[j]
		}
	}
	scale := 1 / float64(cfg.BatchPerNode)
	idx := make([]int32, 0, len(acc))
	for ix := range acc {
		idx = append(idx, ix)
	}
	sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	val := make([]float64, len(idx))
	for j, ix := range idx {
		val[j] = acc[ix] * scale
	}
	return stream.NewSparse(shard.Dim, idx, val, stream.OpSum), touched
}

// applyUpdate performs w ← w − lr·g for every present entry of g.
func applyUpdate(w []float64, g *stream.Vector, lr float64) {
	if g.IsDense() {
		for i, x := range g.ToDense() {
			w[i] -= lr * x
		}
		return
	}
	idx, val := g.Pairs()
	for j, ix := range idx {
		w[ix] -= lr * val[j]
	}
}

// globalEval evaluates w on this rank's shard and allreduces the counts so
// every rank reports the global training loss and accuracy. The tiny
// 3-element allreduce is charged to the clock like any other message.
func globalEval(p *comm.Proc, w []float64, shard *data.SparseDataset, loss Loss) (meanLoss, accuracy float64) {
	localLoss, localAcc := Evaluate(w, shard, loss)
	n := float64(shard.Rows())
	sums := core.AllreduceDense(p, []float64{localLoss * n, localAcc * n, n}, stream.OpSum)
	if sums[2] == 0 {
		return 0, 0
	}
	return sums[0] / sums[2], sums[1] / sums[2]
}
