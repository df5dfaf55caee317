package experiments

import (
	"fmt"
	"strings"

	"repro/internal/report"
	"repro/internal/simnet"
)

// This file is the sweep registry: the one table that says what a sweep
// is. cmd/sparbench looks an entry up by name (or BENCH id), runs it and
// hands the document to the generic renderer; scripts/ci.sh records every
// entry with a BENCH id and compares it with the committed file. A row
// struct's json tags are the only schema — of the BENCH documents, of
// -json, and of the table and -csv columns.

// Params are the numbers and machine profiles a sweep takes from the
// command line. Every sweep gets all of them and reads the ones it needs:
// the fixed-cell sweeps behind the BENCH documents read none, so the
// gated bytes depend on no flag.
type Params struct {
	// N is the vector dimension (fig1: the model's), Density the per-node
	// non-zero fraction.
	N       int
	Density float64
	// MaxP is the largest rank count of a node-count sweep (nodes, hier,
	// hierdsar); P the rank count of the density sweep and the base rank
	// count of the DNN figures.
	MaxP, P int
	// RPN is the ranks per node and NIC the per-node NIC serialization cap
	// (0 = uncapped) of the two-level topologies; Intra prices their
	// intra-node links and Profile the network.
	RPN, NIC       int
	Intra, Profile simnet.Profile
	// Gens data generations × Runs runs per cell (the paper uses 5 × 10).
	Gens, Runs int
	// Rows is the dataset size of the DNN figures (fig4a, fig4b, fig5,
	// fig6); Epochs their training length and that of the §8.2 sweeps
	// (table2, scd, spark); Scale the §8.2 datasets' size relative to the
	// paper's.
	Rows, Epochs int
	Scale        float64
}

// DefaultParams returns the defaults every sweep starts from; a Sweep's
// Defaults differ where its regime does.
func DefaultParams() Params {
	return Params{N: 1 << 20, Density: 0.00781, MaxP: 64, P: 8, RPN: 4, NIC: 1,
		Intra: simnet.NVLinkLike, Profile: simnet.Aries, Gens: 2, Runs: 3,
		Rows: 2000, Epochs: 3, Scale: 0.02}
}

// Validate rejects numbers no world or workload can be built from, naming
// the command-line flag at fault. It is the one place CLI numbers are
// checked: past it, simnet, comm and scenario treat a bad shape as a bug
// and panic.
func (p Params) Validate() error {
	for _, c := range []struct {
		flag   string
		v, min int
	}{
		{"n", p.N, 1}, {"maxp", p.MaxP, 1}, {"p", p.P, 1}, {"rpn", p.RPN, 1},
		{"nic", p.NIC, 0}, {"gens", p.Gens, 1}, {"runs", p.Runs, 1},
		{"rows", p.Rows, 1}, {"epochs", p.Epochs, 1},
	} {
		if c.v < c.min {
			return fmt.Errorf("-%s must be >= %d, got %d", c.flag, c.min, c.v)
		}
	}
	if !(p.Density > 0 && p.Density <= 1) {
		return fmt.Errorf("-density must be in (0, 1], got %g", p.Density)
	}
	if !(p.Scale > 0 && p.Scale <= 1) {
		return fmt.Errorf("-scale must be in (0, 1], got %g", p.Scale)
	}
	return nil
}

// Sweep is one registered experiment.
type Sweep struct {
	// Name is the `sparbench -sweep` name. Bench is the id of the
	// committed BENCH_<n>.json document scripts/ci.sh records from the
	// sweep and byte-compares; empty means snapshot-only (never gated:
	// wall-clock numbers, CLI-shaped cells, or a row set that grows).
	Name, Bench string
	// Note describes the rows; it is the document's "note".
	Note string
	// Defaults are the parameters the sweep runs at when no flag says
	// otherwise.
	Defaults Params
	// Run measures the sweep's cells and returns its sections in document
	// order, each a slice of row structs.
	Run func(Params) ([]report.Section, error)
}

// Document validates p, runs the sweep at it and returns the document:
// the BENCH id and note, then the sections.
func (s Sweep) Document(p Params) (report.Document, error) {
	if err := p.Validate(); err != nil {
		return report.Document{}, err
	}
	sections, err := s.Run(p)
	return report.Document{ID: s.Bench, Note: s.Note, Sections: sections}, err
}

// Lookup returns the sweep registered under a name or a BENCH id.
func Lookup(name string) (Sweep, error) {
	var names []string
	for _, s := range Sweeps() {
		if name == s.Name || (name == s.Bench && name != "") {
			return s, nil
		}
		names = append(names, s.Name)
	}
	return Sweep{}, fmt.Errorf("unknown sweep %q (want %s, or a BENCH id)", name, strings.Join(names, " | "))
}

// cells wraps the rows of a single-section sweep.
func cells(rows any) ([]report.Section, error) {
	return []report.Section{{Name: "cells", Rows: rows}}, nil
}

// pow2Ranks is the power-of-two rank counts from `from` up to -maxp that a
// node-count sweep runs; none is an error naming -maxp, not an empty table.
func pow2Ranks(from, maxP int, what string) ([]int, error) {
	ranks := report.Pow2Range(from, maxP)
	if len(ranks) == 0 {
		return nil, fmt.Errorf("-maxp %d yields no %s (need at least %d ranks)", maxP, what, from)
	}
	return ranks, nil
}

// shardable rejects a -rows that leaves a rank of a DNN sweep's largest
// world, maxP ranks, an empty shard to draw batches from.
func shardable(p Params, maxP int) error {
	if p.Rows < maxP {
		return fmt.Errorf("-rows %d leaves ranks of the %d-rank world no sample", p.Rows, maxP)
	}
	return nil
}

// dnnCells is the body of the single-world DNN figures, whose largest world
// is -p ranks.
func dnnCells(p Params, fig func(Params, int64) []DNNRow) ([]report.Section, error) {
	if err := shardable(p, p.P); err != nil {
		return nil, err
	}
	return cells(fig(p, 1))
}

// hierSweep is the body of the hier and hierdsar entries: the
// flat-vs-hierarchical cell across power-of-two rank counts from two nodes
// up (single-node shapes carry no hierarchy).
func hierSweep(p Params, dense bool) ([]report.Section, error) {
	ranks, err := pow2Ranks(2*p.RPN, p.MaxP, fmt.Sprintf("multi-node shapes of -rpn %d", p.RPN))
	if err != nil {
		return nil, err
	}
	nic := 0
	if dense {
		nic = p.NIC
	}
	machine := simnet.TwoLevel(p.RPN, p.Intra, p.Profile, nic)
	return cells(HierNodeSweep(p.N, p.Density, ranks, machine, dense, p.Gens, p.Runs))
}

// Sweeps returns the registry in listing order.
func Sweeps() []Sweep {
	with := func(edit func(*Params)) Params {
		p := DefaultParams()
		edit(&p)
		return p
	}
	return []Sweep{
		{
			Name: "nodes",
			Note: "Figure 3 (left): simulated reduction time versus node count at fixed density, " +
				"all six algorithms (paper: Piz Daint, N=16M, d=0.781%)",
			Defaults: DefaultParams(),
			Run: func(p Params) ([]report.Section, error) {
				ranks, err := pow2Ranks(2, p.MaxP, "node counts")
				if err != nil {
					return nil, err
				}
				return cells(Fig3NodeSweep(p.N, p.Density, ranks, p.Profile, p.Gens, p.Runs))
			},
		},
		{
			Name: "density",
			Note: "Figure 3 (right): simulated reduction time versus per-node density at fixed node " +
				"count, all six algorithms (paper: Greina GigE, N=16M, P=8)",
			Defaults: with(func(p *Params) { p.Profile = simnet.GigE }),
			Run: func(p Params) ([]report.Section, error) {
				densities := []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25}
				return cells(Fig3DensitySweep(p.N, p.P, densities, p.Profile, p.Gens, p.Runs))
			},
		},
		{
			Name: "fig1",
			Note: "Figure 1: density of the reduced gradient versus node count and per-node TopK " +
				"density. cells: the closed form under uniform index placement at model dimension n " +
				"(default ~ResNet20's 270k parameters). empirical: the measured union of real " +
				"per-bucket TopK gradient selections of a residual MLP under training, up to P=64, " +
				"beside the closed form at that model's dimension; real gradients share hot " +
				"coordinates, so it stays near or below the uniform case",
			Defaults: with(func(p *Params) { p.N = 270000 }),
			Run: func(p Params) ([]report.Section, error) {
				densities := []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25}
				nodes := report.Pow2Range(2, 256)
				return []report.Section{
					{Name: "cells", Rows: Fig1Grid(p.N, nodes, densities)},
					{Name: "empirical", Rows: Fig1Empirical(nodes[:6], densities, 1)},
				}, nil
			},
		},
		{
			Name: "fig4a",
			Note: "Figure 4a: train accuracy of TopK 8/512 and 16/512 with 4-bit QSGD versus dense " +
				"SGD on CIFAR-shaped data, a residual MLP standing in for ResNet-110, -p ranks",
			Defaults: with(func(p *Params) { p.Rows, p.Epochs, p.P = 2000, 8, 8 }),
			Run:      func(p Params) ([]report.Section, error) { return dnnCells(p, Fig4aCIFAR) },
		},
		{
			Name: "fig4b",
			Note: "Figure 4b: train accuracy of an LSTM on ATIS-shaped intent data, TopK 2/512 " +
				"versus dense SGD, -p ranks",
			Defaults: with(func(p *Params) { p.Rows, p.Epochs, p.P = 1200, 8, 4 }),
			Run:      func(p Params) ([]report.Section, error) { return dnnCells(p, Fig4bATIS) },
		},
		{
			Name: "fig5",
			Note: "Figure 5: top-1/top-5 train accuracy of a 4x-wide residual network on " +
				"ImageNet-shaped data (1000 classes), TopK 1/512 versus dense SGD, -p ranks",
			Defaults: with(func(p *Params) { p.Rows, p.Epochs, p.P = 4000, 6, 8 }),
			Run:      func(p Params) ([]report.Section, error) { return dnnCells(p, Fig5Wide) },
		},
		{
			Name: "fig6",
			Note: "Figure 6: an ASR-shaped LSTM on InfiniBand. cells (6a): CE loss versus simulated " +
				"time of the BMUF baseline on -p ranks and of SparCML TopK on 2x, 4x and 8x as many. " +
				"scalability (6b): each TopK run's end-of-run time and its speedup over the smallest",
			Defaults: with(func(p *Params) { p.Rows, p.Epochs, p.P = 3200, 12, 4 }),
			Run: func(p Params) ([]report.Section, error) {
				if err := shardable(p, 8*p.P); err != nil {
					return nil, err
				}
				curves, scaling := Fig6ASR(p, 1)
				return []report.Section{{Name: "cells", Rows: curves}, {Name: "scalability", Rows: scaling}}, nil
			},
		},
		{
			Name:     "fig7",
			Note:     "Figure 7: expected size growth of the reduced result under uniform sparsity, N=512",
			Defaults: DefaultParams(),
			Run: func(Params) ([]report.Section, error) {
				return cells(Fig7Table([]int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}, report.Pow2Range(2, 64)))
			},
		},
		{
			Name: "table2",
			Note: "Table 2: distributed SGD with MPI-OPT on URL- and Webspam-shaped data at -scale " +
				"of the paper's size: per-epoch simulated time of the dense MPI baseline and of the " +
				"SparCML algorithm, in total and in communication, the speedups, and the final accuracy",
			Defaults: DefaultParams(),
			Run: func(p Params) ([]report.Section, error) {
				var rows []Table2Row
				for _, tc := range DefaultTable2Cases(p.Scale) {
					rows = append(rows, RunTable2Case(tc, p.Epochs, 1))
				}
				return cells(rows)
			},
		},
		{
			Name: "scd",
			Note: "§8.2 SCD: stochastic coordinate descent on URL-shaped data at -scale, 8 nodes, " +
				"100 coordinates per node per iteration, sparse versus dense allgather; per-epoch " +
				"simulated times (paper: 1.8x overall, 5.3x in communication)",
			Defaults: DefaultParams(),
			Run: func(p Params) ([]report.Section, error) {
				return cells([]SCDResult{RunSCDExperiment(p.Scale, p.Epochs, 1)})
			},
		},
		{
			Name: "spark",
			Note: "§8.2 Spark comparison: URL-shaped SGD at -scale on 8 nodes through a Spark-like " +
				"dense layer, dense MPI and SparCML sparse collectives; per-epoch simulated times and " +
				"the communication speedups over Spark-like (paper: 12x for dense MPI on GigE, up to " +
				"185x for SparCML on Piz Daint)",
			Defaults: DefaultParams(),
			Run: func(p Params) ([]report.Section, error) {
				return cells([]SparkResult{RunSparkComparison(p.Scale, p.Epochs, 1)})
			},
		},
		{
			Name: "hier",
			Note: "hierarchical crossover: flat SSAR_Split_allgather on the network profile versus " +
				"the same algorithm at full depth on -rpn ranks per node of -intra links, at a latency-bound density",
			Defaults: with(func(p *Params) { p.Density = 1e-4 }),
			Run:      func(p Params) ([]report.Section, error) { return hierSweep(p, false) },
		},
		{
			Name: "hierdsar",
			Note: "hierarchical DSAR under NIC contention: DSAR_Split_allgather flat versus at full " +
				"depth on the same two-level world capped at -nic concurrent inter-node " +
				"sends per node, at a dense-regime density",
			Defaults: with(func(p *Params) { p.N, p.Density = 1<<18, 0.6 }),
			Run:      func(p Params) ([]report.Section, error) { return hierSweep(p, true) },
		},
		{
			Name: "regret", Bench: "BENCH_2",
			Note: "regret grid: Auto judged against the simulator over the scenario library. A cell is " +
				"one library scenario's first call (key 1) drawn at P in {8, 16, 31} on one machine: flat " +
				"Aries, two4 (4-rank NVLink-like nodes on Aries), two4-nic1 (the same, NIC capped at one " +
				"send) or fly4x4 (DragonflyLike(4,4)). candidates: every priced algorithm flat and at every " +
				"depth Auto searches there, unchunked, with its modeled and simulated seconds. cells: pick " +
				"is ChooseAutoLevels on the call's scenario (k = the largest per-rank nnz), cheapest the " +
				"candidate that simulates fastest, regret = pick_sim / cheapest_sim. Acceptance: " +
				"TestBench2AcceptanceCriteria",
			Defaults: DefaultParams(),
			Run: func(Params) ([]report.Section, error) {
				cells, cands := RegretSweep()
				return []report.Section{{Name: "cells", Rows: cells}, {Name: "candidates", Rows: cands}}, nil
			},
		},
		{
			Name: "merge", Bench: "BENCH_3",
			Note: "k-way merge + scratch ablation: allocations per P-stream reduction for chained " +
				"two-way Add vs one-pass MergeK vs MergeK with a warm Scratch pool, bitwise equivalence, " +
				"and the deterministic simulated time of SSAR_Split_allgather at each shape. " +
				"Wall-clock snapshot at recording time (go1.24, one shared machine, k=2000, N=2^18): " +
				"chained 1.89ms/op vs k-way+scratch 0.22ms/op at P=16; 26.8ms/op vs 0.94ms/op at P=64 " +
				"(see BenchmarkAblationKWayMerge).",
			Defaults: DefaultParams(),
			Run:      func(Params) ([]report.Section, error) { return cells(MergeSweep()) },
		},
		{
			Name: "overlap", Bench: "BENCH_7",
			Note: "overlap/bucketing ablation: the library's layered workload profiles at N=2^20 run as " +
				"(1) one fused blocking allreduce per call, (2) one blocking allreduce per model layer — " +
				"the naive layer-wise loop, and (3) the bucket-fusion scheduler (core.BucketScheduler, " +
				"BucketCoords-sized buckets issued nonblocking in backprop order, AutoChunks pipelining). " +
				"bucketed_vs_layerwise > 1 is the drift-gated headline; bucketed_vs_fused > 1 shows " +
				"model-sized buckets also beat the monolithic exchange. " +
				"layerwise_nonblocking_sim_seconds records per-layer nonblocking issue for comparison: " +
				"on the simulator outstanding collectives max-compose at zero per-call cost, so at equal " +
				"per-collective options it is a virtual-time lower bound — chunked pipelining is how the " +
				"bucketed arm still undercuts it, and the per-call issue cost it hides is a wall " +
				"phenomenon. Wall snapshot at recording time (goroutine transport, go1.24, one " +
				"shared machine, median of 5, pinned SSAR_Split_allgather): " +
				"lstm-1m (3 layers -> 3 buckets) layerwise 222ms vs bucketed 208ms (1.07x), " +
				"transformer-1m (4 layers -> 3 buckets) 173ms vs 172ms (1.00x); the wall margin is modest " +
				"because P=8 rank goroutines already saturate the recording machine's cores, so overlapped " +
				"merges add little throughput — the latency floors bucketing removes are what the simulated " +
				"cells isolate" +
				" — " +
				"machine-dependent, NOT drift-gated, re-measure with `sparbench -sweep overlapwall`. " +
				"pipeline_model_cells validate the cost model's chunked-pipelining term: the same " +
				"seeded instance simulated at chunks 1/2/4/8 vs PredictSeconds; model_over_sim stays " +
				"within the band asserted by TestBench7PipelineModelBand.",
			Defaults: DefaultParams(),
			Run: func(Params) ([]report.Section, error) {
				return []report.Section{
					{Name: "cells", Rows: OverlapSweep()},
					{Name: "pipeline_model_cells", Rows: PipeModelSweep()},
				}, nil
			},
		},
		{
			Name: "overlapwall",
			Note: "wall-clock complement of the overlap sweep: blocking per-layer versus bucketed " +
				"issue on the goroutine transport, median of -runs. Machine-dependent, NOT drift-gated.",
			Defaults: DefaultParams(),
			Run:      func(p Params) ([]report.Section, error) { return cells(OverlapWallSweep(p.Runs)) },
		},
		{
			Name: "cluster", Bench: "BENCH_8",
			Note: "multi-tenant cluster sweep: the same eight-job mix (uniform and clustered workloads, " +
				"densities cycling around the regime gate) gang-scheduled onto a shared ingress-capped " +
				"three-level machine under each placement policy — packed, spread, random, cost-aware — " +
				"at two scales (64 slots the mix fills exactly, 128 slots with headroom). slowdown is " +
				"sim_seconds over the job's isolated baseline (alone on the idle machine, packed, no " +
				"jitter); contention is dynamic, from the in-flight flow counters the cluster serves " +
				"through the comm ActivitySource seam. Acceptance (TestBench8AcceptanceCriteria): the " +
				"full mix runs concurrently (concurrent_peak = jobs), no job runs faster than isolated, " +
				"packed slowdown stays 1.0 on exclusive groups, and the cost-aware policy's " +
				"mean_predicted_job_seconds strictly beats random's at every scale. adapt_cells are the " +
				"scenario-diversity adaptation rows (Bench8AdaptNames: the library as of this file's " +
				"introduction, pinned by name so library growth never drifts this file), the " +
				"runtime-adaptation ablation on a 4-ranks-per-node machine with NIC serial 1 under seed 701: " +
				"the same call schedule run under static-uniform Auto (the default), static-clustered Auto " +
				"(Options.Support pinned to the 10%/70% default shape), and the adaptive controller " +
				"(internal/adapt: ShapeSketch support detection + LinkCalibrator + hysteresis). Acceptance " +
				"(TestBench8AdaptDiversity, noise 3%, two tiny agreement allreduces per call): at most 3 " +
				"switches per cell; adaptive_vs_uniform >= 1 - noise with no clustered call on uniform, > 1 " +
				"+ noise with at least one on clustered, drift-cluster and drift-shift, >= 0.85 on every " +
				"other library shape; adaptive_vs_best_static >= 1 - noise on the two drifting cells. Sketch " +
				"overhead wall-clock snapshot at recording time (go1.24, one shared machine): ~8us per " +
				"observed call vs ~1.3ms per P=16 k-way split-phase merge (~0.6%, within the 2% budget; " +
				"~0.1% at P=64) — see BenchmarkAblationSketchOverhead, re-measure with go test -bench (wall " +
				"time is machine-dependent and cannot be drift-gated).",
			Defaults: DefaultParams(),
			Run: func(Params) ([]report.Section, error) {
				rows, summaries := ClusterSweep()
				return []report.Section{
					{Name: "cells", Rows: rows},
					{Name: "policy_summary", Rows: summaries},
					{Name: "adapt_cells", Rows: ClusterAdaptCells()},
				}, nil
			},
		},
	}
}
