package experiments

import (
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/mlopt"
	"repro/internal/simnet"
)

// Table2Row is one row of Table 2: distributed optimization with MPI-OPT,
// comparing a SparCML sparse reduction against the dense MPI baseline.
type Table2Row struct {
	System    string `json:"system"`
	Dataset   string `json:"dataset"`
	Model     string `json:"model"`
	Nodes     int    `json:"nodes"`
	Algorithm string `json:"algorithm"`
	// Per-epoch simulated times (communication part in parentheses in
	// the paper).
	BaselineTime float64 `json:"baseline_seconds"`
	BaselineComm float64 `json:"baseline_comm_seconds"`
	AlgoTime     float64 `json:"algo_seconds"`
	AlgoComm     float64 `json:"algo_comm_seconds"`
	// End-to-end and communication speedups.
	Speedup     float64 `json:"speedup"`
	CommSpeedup float64 `json:"comm_speedup"`
	// FinalAccuracy sanity-checks that training converges.
	FinalAccuracy float64 `json:"final_accuracy"`
}

// Table2Case describes one experimental row to run.
type Table2Case struct {
	System    string
	Profile   simnet.Profile
	Dataset   string
	Gen       data.SparseConfig
	Loss      mlopt.Loss
	Nodes     int
	Algorithm core.Algorithm
}

// DefaultTable2Cases mirrors the paper's Table 2 rows (Piz Daint at 32
// nodes with recursive doubling; Piz Daint/Greina-IB/Greina-GigE at 8
// nodes with split allgather) at the given dataset scale.
func DefaultTable2Cases(scale float64) []Table2Case {
	web := scaledSparse(data.WebspamShape(1), scale)
	url := scaledSparse(data.URLShape(1), scale)
	return []Table2Case{
		{"Piz Daint", simnet.Aries, "Webspam", web, mlopt.Logistic, 32, core.SSARRecDouble},
		{"Piz Daint", simnet.Aries, "Webspam", web, mlopt.Hinge, 32, core.SSARRecDouble},
		{"Piz Daint", simnet.Aries, "URL", url, mlopt.Logistic, 32, core.SSARRecDouble},
		{"Piz Daint", simnet.Aries, "URL", url, mlopt.Hinge, 32, core.SSARRecDouble},
		{"Piz Daint", simnet.Aries, "Webspam", web, mlopt.Logistic, 8, core.SSARSplitAllgather},
		{"Piz Daint", simnet.Aries, "URL", url, mlopt.Logistic, 8, core.SSARSplitAllgather},
		{"Greina (IB)", simnet.InfiniBandFDR, "Webspam", web, mlopt.Logistic, 8, core.SSARSplitAllgather},
		{"Greina (IB)", simnet.InfiniBandFDR, "URL", url, mlopt.Logistic, 8, core.SSARSplitAllgather},
		{"Greina (GigE)", simnet.GigE, "Webspam", web, mlopt.Logistic, 8, core.SSARSplitAllgather},
		{"Greina (GigE)", simnet.GigE, "URL", url, mlopt.Logistic, 8, core.SSARSplitAllgather},
	}
}

// scaledSparse shrinks a dataset shape by `scale` in rows and dimension
// while keeping per-row sparsity structure.
func scaledSparse(cfg data.SparseConfig, scale float64) data.SparseConfig {
	cfg.Rows = max(200, int(float64(cfg.Rows)*scale))
	cfg.Dim = max(1000, int(float64(cfg.Dim)*scale))
	// Per-row nnz shrinks with the dimension so the per-row *density* —
	// the quantity the sparse collectives exploit — matches the original
	// dataset's.
	cfg.NNZPerRow = max(10, int(float64(cfg.NNZPerRow)*scale))
	if cfg.NNZPerRow > cfg.Dim/10 {
		cfg.NNZPerRow = cfg.Dim / 10
	}
	return cfg
}

// RunTable2Case trains with the dense baseline and the SparCML algorithm
// and reports per-epoch times and speedups.
func RunTable2Case(tc Table2Case, epochs int, seed int64) Table2Row {
	ds := data.SyntheticSparse(tc.Gen)
	run := func(mode mlopt.CommMode) (time, commT, acc float64) {
		w := comm.NewWorld(tc.Nodes, tc.Profile)
		results := comm.Run(w, func(p *comm.Proc) []mlopt.EpochStats {
			return mlopt.TrainSGD(p, ds.Shard(p.Rank(), tc.Nodes), mlopt.SGDConfig{
				Loss: tc.Loss, LR: 0.8, BatchPerNode: 100, Epochs: epochs,
				Mode: mode, Algorithm: tc.Algorithm, Seed: seed,
			})
		})
		stats := results[0]
		for _, e := range stats {
			time += e.Time
			commT += e.CommTime
		}
		return time / float64(epochs), commT / float64(epochs), stats[len(stats)-1].Accuracy
	}
	bTime, bComm, _ := run(mlopt.CommDense)
	aTime, aComm, acc := run(mlopt.CommSparse)
	model := "LR"
	if tc.Loss == mlopt.Hinge {
		model = "SVM"
	}
	return Table2Row{
		System: tc.System, Dataset: tc.Dataset, Model: model,
		Nodes: tc.Nodes, Algorithm: tc.Algorithm.String(),
		BaselineTime: bTime, BaselineComm: bComm,
		AlgoTime: aTime, AlgoComm: aComm,
		Speedup: bTime / aTime, CommSpeedup: bComm / aComm,
		FinalAccuracy: acc,
	}
}

// SCDResult compares the sparse and dense allgather variants of the
// distributed coordinate-descent experiment (§8.2).
type SCDResult struct {
	// Per-epoch simulated times, in total and in communication.
	SparseEpochTime float64 `json:"sparse_epoch_seconds"`
	SparseCommTime  float64 `json:"sparse_comm_seconds"`
	DenseEpochTime  float64 `json:"dense_epoch_seconds"`
	DenseCommTime   float64 `json:"dense_comm_seconds"`
	// Dense over sparse, end to end and in communication.
	Speedup       float64 `json:"speedup"`
	CommSpeedup   float64 `json:"comm_speedup"`
	FinalAccuracy float64 `json:"final_accuracy"`
}

// RunSCDExperiment reproduces the §8.2 SCD comparison on a URL-shaped
// dataset across 8 nodes, 100 coordinates per node per iteration.
func RunSCDExperiment(scale float64, epochs int, seed int64) SCDResult {
	cfg := scaledSparse(data.URLShape(1), scale)
	ds := data.SyntheticSparse(cfg)
	const P = 8
	run := func(sparse bool) (time, commT, acc float64) {
		w := comm.NewWorld(P, simnet.Aries)
		results := comm.Run(w, func(p *comm.Proc) []mlopt.EpochStats {
			return mlopt.TrainSCD(p, ds.Shard(p.Rank(), P), mlopt.SCDConfig{
				Loss: mlopt.Logistic, LR: 4, CoordsPerIter: 100,
				ItersPerEpoch: 30, Epochs: epochs, Sparse: sparse, Seed: seed,
			})
		})
		stats := results[0]
		for _, e := range stats {
			time += e.Time
			commT += e.CommTime
		}
		return time / float64(epochs), commT / float64(epochs), stats[len(stats)-1].Accuracy
	}
	sTime, sComm, acc := run(true)
	dTime, dComm, _ := run(false)
	return SCDResult{
		SparseEpochTime: sTime, SparseCommTime: sComm,
		DenseEpochTime: dTime, DenseCommTime: dComm,
		Speedup: dTime / sTime, CommSpeedup: dComm / sComm,
		FinalAccuracy: acc,
	}
}

// SparkResult compares MPI-OPT's communication layers against a Spark-like
// stack (§8.2's comparison with Apache Spark).
type SparkResult struct {
	// Per-epoch simulated times: Spark-like dense, MPI dense, SparCML
	// sparse — all on the same cluster profile plus the Spark software
	// overhead for the first.
	SparkEpoch  float64 `json:"spark_epoch_seconds"`
	SparkComm   float64 `json:"spark_comm_seconds"`
	DenseEpoch  float64 `json:"dense_epoch_seconds"`
	DenseComm   float64 `json:"dense_comm_seconds"`
	SparseEpoch float64 `json:"sparse_epoch_seconds"`
	SparseComm  float64 `json:"sparse_comm_seconds"`
	// Headline ratios as reported in §8.2.
	DenseVsSparkComm  float64 `json:"dense_vs_spark_comm"`
	SparseVsSparkComm float64 `json:"sparse_vs_spark_comm"`
}

// RunSparkComparison reproduces the §8.2 Spark comparison: the same
// URL-shaped SGD workload through (a) a Spark-like communication layer
// (dense, high software overhead), (b) dense MPI, and (c) SparCML sparse
// collectives, on an 8-node cluster.
func RunSparkComparison(scale float64, epochs int, seed int64) SparkResult {
	cfg := scaledSparse(data.URLShape(1), scale)
	ds := data.SyntheticSparse(cfg)
	const P = 8
	run := func(profile simnet.Profile, mode mlopt.CommMode) (time, commT float64) {
		w := comm.NewWorld(P, profile)
		results := comm.Run(w, func(p *comm.Proc) []mlopt.EpochStats {
			return mlopt.TrainSGD(p, ds.Shard(p.Rank(), P), mlopt.SGDConfig{
				Loss: mlopt.Logistic, LR: 0.8, BatchPerNode: 100, Epochs: epochs,
				Mode: mode, Algorithm: core.SSARSplitAllgather, Seed: seed,
			})
		})
		for _, e := range results[0] {
			time += e.Time
			commT += e.CommTime
		}
		return time / float64(epochs), commT / float64(epochs)
	}
	r := SparkResult{}
	r.SparkEpoch, r.SparkComm = run(simnet.SparkLike, mlopt.CommDense)
	r.DenseEpoch, r.DenseComm = run(simnet.GigE, mlopt.CommDense)
	r.SparseEpoch, r.SparseComm = run(simnet.GigE, mlopt.CommSparse)
	r.SparseVsSparkComm = r.SparkComm / r.SparseComm
	r.DenseVsSparkComm = r.SparkComm / r.DenseComm
	return r
}
