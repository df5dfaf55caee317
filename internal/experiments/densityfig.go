package experiments

import (
	"math/rand"

	"repro/internal/data"
	"repro/internal/density"
	"repro/internal/nn"
	"repro/internal/topk"
)

// Fig1Row is one cell of the Figure 1 grid: the density of the reduced
// gradient versus node count and per-node density.
type Fig1Row struct {
	// PerNodeDensity is the TopK selection fraction at each node.
	PerNodeDensity float64 `json:"per_node_density"`
	P              int     `json:"p"`
	// Analytic is the closed-form expected reduced density under uniform
	// index placement.
	Analytic float64 `json:"analytic"`
	// Empirical is the measured reduced density of real per-bucket TopK
	// gradient selections from a model under training (0 in Fig1Grid).
	Empirical float64 `json:"empirical"`
}

// Fig1Grid computes the analytic reduced-density grid of Figure 1 for a
// model of dimension n (the paper snapshots ResNet20 on CIFAR-10, ~270k
// parameters).
func Fig1Grid(n int, nodeCounts []int, densities []float64) []Fig1Row {
	var rows []Fig1Row
	for _, d := range densities {
		for _, P := range nodeCounts {
			rows = append(rows, Fig1Row{
				P:              P,
				PerNodeDensity: d,
				Analytic:       density.ReducedDensity(n, d, P),
			})
		}
	}
	return rows
}

// Fig1Empirical measures reduced density from *real* gradients: a small
// residual MLP is trained on CIFAR-shaped synthetic data; at the snapshot
// epoch each of P simulated nodes computes a minibatch gradient, selects
// per-bucket TopK at the given density, and the union of supports is
// measured — exactly the Figure 1 procedure. Real gradients cluster (hot
// layers), so the measured fill-in is lower than the uniform worst case.
func Fig1Empirical(nodeCounts []int, densities []float64, seed int64) []Fig1Row {
	// A deliberately hard task (low separation) so the mid-training
	// snapshot has live gradients everywhere — a converged model's softmax
	// saturates and its gradients underflow to exact zeros, which would
	// make TopK selections degenerate.
	ds := data.SyntheticDense(data.DenseConfig{Rows: 2048, Dim: 64, Classes: 10, Sep: 1.2, Seed: seed})
	net := nn.ResidualMLP(seed, 64, 64, 2, 10, 1)
	n := net.NumParams()
	rng := rand.New(rand.NewSource(seed))

	// Brief warm-up so gradients reflect mid-training structure (the
	// paper snapshots epoch 5 of 160).
	opt := &nn.SGDMomentum{LR: 0.02, Momentum: 0.9}
	for step := 0; step < 30; step++ {
		x, y := sampleDenseBatch(rng, ds, 32)
		net.ZeroGrads()
		_, dl, _ := nn.SoftmaxCE(net.Forward(x), y)
		net.Backward(dl)
		opt.Step(net.Params(), net.Grads())
	}

	gradAt := func() []float64 {
		x, y := sampleDenseBatch(rng, ds, 32)
		net.ZeroGrads()
		_, dl, _ := nn.SoftmaxCE(net.Forward(x), y)
		net.Backward(dl)
		return append([]float64(nil), net.Grads()...)
	}

	var rows []Fig1Row
	maxP := 0
	for _, P := range nodeCounts {
		if P > maxP {
			maxP = P
		}
	}
	// Per-node gradients (one per simulated node).
	grads := make([][]float64, maxP)
	for i := range grads {
		grads[i] = gradAt()
	}

	for _, d := range densities {
		k := int(d * 512)
		if k < 1 {
			k = 1
		}
		sets := make([][]int32, maxP)
		for i, g := range grads {
			sel := topk.SparsifyBuckets(g, 512, k)
			idx, _ := sel.Pairs()
			sets[i] = idx
		}
		for _, P := range nodeCounts {
			union := density.MeasureK(sets[:P])
			rows = append(rows, Fig1Row{
				P:              P,
				PerNodeDensity: d,
				Analytic:       density.ReducedDensity(n, d, P),
				Empirical:      float64(union) / float64(n),
			})
		}
	}
	return rows
}

func sampleDenseBatch(rng *rand.Rand, ds *data.DenseDataset, batch int) ([][]float64, []int) {
	x := make([][]float64, batch)
	y := make([]int, batch)
	for i := range x {
		s := rng.Intn(ds.Rows())
		x[i] = ds.X[s]
		y[i] = ds.Y[s]
	}
	return x, y
}

// Fig7Row is one cell of Figure 7: the expected multiplicative growth of
// the reduced result under uniform sparsity at N=512.
type Fig7Row struct {
	K int `json:"k"`
	P int `json:"p"`
	// Expected is E[K], the expected non-zeros of the reduced result, and
	// Growth is E[K]/k.
	Expected float64 `json:"expected_k"`
	Growth   float64 `json:"growth"`
}

// Fig7Table computes the Figure 7 surface for N=512.
func Fig7Table(ks, ps []int) []Fig7Row {
	const n = 512
	var rows []Fig7Row
	for _, k := range ks {
		for _, p := range ps {
			rows = append(rows, Fig7Row{
				K: k, P: p,
				Growth:   density.Growth(n, k, p),
				Expected: density.ExpectedKUniform(n, k, p),
			})
		}
	}
	return rows
}
