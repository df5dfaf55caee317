// Command sparbench regenerates the Figure 3 micro-benchmarks: sparse
// allreduce time versus node count (left panel; paper: Piz Daint, N=16M,
// d=0.781%) and versus per-node density (right panel; paper: Greina GigE,
// N=16M, P=8), for all six algorithms — plus the hierarchical extensions:
// flat SSAR versus topology-aware HierSSAR on a two-level machine, flat
// DSAR versus HierDSAR under a per-node NIC serialization cap, and the
// contention-model validation sweep recorded as BENCH_2.json.
//
// Usage:
//
//	sparbench -sweep nodes      [-n 1048576] [-density 0.00781] [-maxp 64] [-profile aries]
//	sparbench -sweep density    [-n 1048576] [-p 8] [-profile gige]
//	sparbench -sweep hier       [-n 1048576] [-density 0.0001] [-maxp 64] [-rpn 4] [-intra nvlink] [-profile aries]
//	sparbench -sweep hierdsar   [-n 262144] [-density 0.6] [-maxp 32] [-rpn 4] [-nic 1] [-intra nvlink] [-profile aries]
//	sparbench -sweep contention [-intra nvlink] [-profile aries] [-json]
//	sparbench -sweep merge      [-json]
//	sparbench -sweep hierlevels [-json]
//	sparbench -sweep adapt      [-json]
//	sparbench -sweep adaptdiv   [-json]
//	sparbench -sweep cluster    [-json]
//	sparbench -sweep transport  [-transport goroutine|tcp|all] [-json]
//	sparbench -sweep overlap    [-json]
//	sparbench -sweep overlapwall [-runs 5]
//	sparbench -replay t.trace   [-rpn 4] [-nic 1] [-json] [-obs trace.json] [-obsmetrics m.txt]
//	sparbench -csv  # machine-readable output
//
// Any invocation also takes -cpuprofile/-memprofile to write pprof
// profiles of the run (inspect with `go tool pprof`).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/stream"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sparbench: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h/-help: usage already printed, exit 0
		}
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sparbench", flag.ContinueOnError)
	var (
		sweep     = fs.String("sweep", "nodes", "sweep to run: nodes | density | hier | hierdsar | contention | merge | hierlevels | adapt | adaptdiv | cluster | transport | overlap | overlapwall")
		transport = fs.String("transport", "goroutine", "real backend(s) for the transport sweep: goroutine | tcp | all")
		n         = fs.Int("n", 1<<20, "vector dimension N (paper uses 16M; 2^20 default keeps memory modest)")
		densityF  = fs.Float64("density", 0.00781, "per-node density d for the nodes sweep")
		maxP      = fs.Int("maxp", 64, "largest node count for the nodes sweep")
		p         = fs.Int("p", 8, "node count for the density sweep")
		rpn       = fs.Int("rpn", 4, "ranks per node for the hier/hierdsar sweeps")
		nic       = fs.Int("nic", 1, "per-node NIC serialization cap for the hierdsar sweep (0 disables contention)")
		intra     = fs.String("intra", "nvlink", "intra-node profile for the hier/hierdsar/contention sweeps")
		profile   = fs.String("profile", "", "network profile: aries | ib-fdr | gige | spark | nvlink (default: aries for nodes/hier, gige for density)")
		gens      = fs.Int("gens", 2, "data generations per cell (paper: 5)")
		runs      = fs.Int("runs", 3, "runs per generation (paper: 10)")
		csv       = fs.Bool("csv", false, "emit CSV instead of an aligned table")
		jsonOut   = fs.Bool("json", false, "for -sweep contention: emit the BENCH_2-format JSON document")
		trace     = fs.Bool("trace", false, "dump a message timeline of one SSAR_Recursive_double allreduce and exit")
		replayF   = fs.String("replay", "", "workload trace file: replay one adaptation cell from it and exit (record with cmd/sparreplay)")
		obsOut    = fs.String("obs", "", "for -replay: write the adaptive arm's Chrome trace-event JSON (Perfetto) here")
		obsMet    = fs.String("obsmetrics", "", "for -replay: write the adaptive arm's plain-text metrics dump here")
		cpuProf   = fs.String("cpuprofile", "", "write a pprof CPU profile of the run here")
		memProf   = fs.String("memprofile", "", "write a pprof heap profile (after the run) here")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				log.Printf("memprofile: %v", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("memprofile: %v", err)
			}
		}()
	}

	if *replayF != "" {
		tr, err := scenario.ReadFile(*replayF)
		if err != nil {
			return err
		}
		var row experiments.AdaptRow
		if *obsOut != "" || *obsMet != "" {
			var hub *obs.Obs
			row, hub = experiments.ReplayAdaptCellObs(*rpn, *nic, tr)
			if err := exportObs(hub, *obsOut, *obsMet); err != nil {
				return err
			}
		} else {
			row = experiments.ReplayAdaptCell(*rpn, *nic, tr)
		}
		if *jsonOut {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(row)
		}
		tb := report.NewTable("workload", "N", "P", "calls", "k-range", "static-uniform", "static-clustered", "adaptive", "vs-uniform", "vs-best", "switches", "clustered-calls", "final")
		tb.AddRowRaw(
			row.Workload, fmt.Sprint(row.N), fmt.Sprint(row.P), fmt.Sprint(row.Calls),
			fmt.Sprintf("%d..%d", row.KStart, row.KEnd),
			report.FormatSeconds(row.StaticUniformSim),
			report.FormatSeconds(row.StaticClusteredSim),
			report.FormatSeconds(row.AdaptiveSim),
			fmt.Sprintf("%.3f", row.AdaptiveVsUniform),
			fmt.Sprintf("%.3f", row.AdaptiveVsBestStatic),
			fmt.Sprint(row.AdaptiveSwitches),
			fmt.Sprint(row.AdaptiveClusteredCalls),
			row.FinalChoice,
		)
		return tb.Emit(stdout, *csv)
	}

	if *trace {
		prof, err := profileOrDefault(*profile, "aries")
		if err != nil {
			return err
		}
		return dumpTrace(stdout, *n, *densityF, *p, prof)
	}

	if *sweep == "contention" {
		interProf, err := profileOrDefault(*profile, "aries")
		if err != nil {
			return err
		}
		intraProf, err := profileOrDefault(*intra, "nvlink")
		if err != nil {
			return err
		}
		rows := experiments.ContentionSweep(intraProf, interProf)
		if *jsonOut {
			return emitBench2(stdout, rows)
		}
		tb := report.NewTable("N", "P", "rpn", "nic", "density%", "auto", "old-heuristic", "cheapest-sim", "auto-ok", "old-ok")
		for _, r := range rows {
			tb.AddRowRaw(
				fmt.Sprint(r.N), fmt.Sprint(r.P), fmt.Sprint(r.RanksPerNode), fmt.Sprint(r.NICSerial),
				fmt.Sprintf("%.4f", r.Density*100),
				r.AutoChoice, r.OldChoice, r.CheapestSim,
				fmt.Sprint(r.AutoMatchesCheapest), fmt.Sprint(r.OldMatchesCheapest),
			)
		}
		return tb.Emit(stdout, *csv)
	}

	if *sweep == "merge" {
		rows := experiments.MergeSweep()
		if *jsonOut {
			return emitBench3(stdout, rows)
		}
		tb := report.NewTable("P", "N", "k", "pattern", "chained-allocs", "kway-allocs", "kway+scratch", "reduction%", "bit-identical", "split-sim")
		for _, r := range rows {
			tb.AddRowRaw(
				fmt.Sprint(r.P), fmt.Sprint(r.N), fmt.Sprint(r.K), r.Pattern,
				fmt.Sprintf("%.0f", r.ChainedAllocs),
				fmt.Sprintf("%.0f", r.KWayAllocs),
				fmt.Sprintf("%.0f", r.KWayScratchAllocs),
				fmt.Sprintf("%.1f", r.AllocReduction*100),
				fmt.Sprint(r.BitIdentical),
				report.FormatSeconds(r.SplitSimSeconds),
			)
		}
		return tb.Emit(stdout, *csv)
	}

	if *sweep == "hierlevels" {
		rows := experiments.HierLevelsSweep()
		if *jsonOut {
			return emitBench4(stdout, rows)
		}
		tb := report.NewTable("family", "N", "P", "density%", "flat", "2-level", "3-level", "vs-flat", "vs-2level", "auto", "auto-ok")
		for _, r := range rows {
			auto := fmt.Sprintf("%s@%d", r.AutoChoice, r.AutoLevels)
			if r.AutoLevels == 0 {
				auto = r.AutoChoice
			}
			tb.AddRowRaw(
				r.Family, fmt.Sprint(r.N), fmt.Sprint(r.P),
				fmt.Sprintf("%.4f", r.Density*100),
				report.FormatSeconds(r.FlatSim),
				report.FormatSeconds(r.TwoLevelSim),
				report.FormatSeconds(r.ThreeLevelSim),
				fmt.Sprintf("%.2f", r.SpeedupOverFlat),
				fmt.Sprintf("%.2f", r.SpeedupOverTwoLevel),
				auto,
				fmt.Sprint(r.AutoMatchesCheapest),
			)
		}
		return tb.Emit(stdout, *csv)
	}

	if *sweep == "adapt" {
		rows := experiments.AdaptSweep()
		if *jsonOut {
			return emitBench5(stdout, rows)
		}
		tb := report.NewTable("workload", "N", "P", "calls", "k-range", "static-uniform", "static-clustered", "adaptive", "vs-uniform", "vs-best", "switches", "clustered-calls", "final")
		for _, r := range rows {
			tb.AddRowRaw(
				r.Workload, fmt.Sprint(r.N), fmt.Sprint(r.P), fmt.Sprint(r.Calls),
				fmt.Sprintf("%d..%d", r.KStart, r.KEnd),
				report.FormatSeconds(r.StaticUniformSim),
				report.FormatSeconds(r.StaticClusteredSim),
				report.FormatSeconds(r.AdaptiveSim),
				fmt.Sprintf("%.3f", r.AdaptiveVsUniform),
				fmt.Sprintf("%.3f", r.AdaptiveVsBestStatic),
				fmt.Sprint(r.AdaptiveSwitches),
				fmt.Sprint(r.AdaptiveClusteredCalls),
				r.FinalChoice,
			)
		}
		return tb.Emit(stdout, *csv)
	}

	if *sweep == "cluster" {
		rows, summaries := experiments.ClusterSweep()
		if *jsonOut {
			return emitBench8(stdout, rows, summaries, experiments.ClusterAdaptCells())
		}
		tb := report.NewTable("scale", "policy", "job", "P", "steps", "sim", "isolated", "slowdown", "predicted-job", "algorithm", "switches")
		for _, r := range rows {
			tb.AddRowRaw(
				r.Scale, r.Policy, r.Job, fmt.Sprint(r.P), fmt.Sprint(r.Steps),
				report.FormatSeconds(r.SimSeconds),
				report.FormatSeconds(r.IsolatedSim),
				fmt.Sprintf("%.3f", r.Slowdown),
				report.FormatSeconds(r.PredictedJob),
				r.Algorithm, fmt.Sprint(r.Switches),
			)
		}
		if err := tb.Emit(stdout, *csv); err != nil {
			return err
		}
		st := report.NewTable("scale", "policy", "jobs", "peak", "mean-slowdown", "max-slowdown", "mean-predicted-job", "makespan")
		for _, s := range summaries {
			st.AddRowRaw(
				s.Scale, s.Policy, fmt.Sprint(s.Jobs), fmt.Sprint(s.ConcurrentPeak),
				fmt.Sprintf("%.3f", s.MeanSlowdown),
				fmt.Sprintf("%.3f", s.MaxSlowdown),
				report.FormatSeconds(s.MeanPredictedJob),
				report.FormatSeconds(s.MakespanSeconds),
			)
		}
		return st.Emit(stdout, *csv)
	}

	if *sweep == "transport" {
		var backends []string
		switch *transport {
		case "goroutine", "tcp":
			backends = []string{*transport}
		case "all":
			backends = []string{"goroutine", "tcp"}
		default:
			return fmt.Errorf("unknown -transport %q (want goroutine, tcp, or all)", *transport)
		}
		rows, demo, err := experiments.TransportSweep(backends)
		if err != nil {
			return err
		}
		tb := report.NewTable("transport", "algorithm", "N", "P", "k", "sim", "wall", "bit-identical")
		for _, r := range rows {
			tb.AddRowRaw(
				r.Transport, r.Algorithm,
				fmt.Sprint(r.N), fmt.Sprint(r.P), fmt.Sprint(r.K),
				report.FormatSeconds(r.SimSeconds),
				report.FormatSeconds(r.WallSeconds),
				fmt.Sprint(r.BitIdenticalToSim),
			)
		}
		if err := tb.Emit(stdout, *csv); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# calibration demo (%s, P=%d N=%d k=%d, %d adaptive calls): samples=%d fit_ok=%v alpha=%.3gs beta=%.3gs/B choice=%s ranks_agree=%v bit_identical=%v\n",
			demo.Transport, demo.P, demo.N, demo.K, demo.Calls, demo.Samples, demo.FitOK,
			demo.AlphaSeconds, demo.BetaSecondsPerByte, demo.Choice, demo.RanksAgree, demo.BitIdenticalToStatic)
		return nil
	}

	if *sweep == "overlap" {
		rows := experiments.OverlapSweep()
		pm := experiments.PipeModelSweep()
		if *jsonOut {
			return emitBench7(stdout, rows, pm)
		}
		tb := report.NewTable("workload", "N", "P", "calls", "layers", "buckets", "bucket-coords", "fused", "layerwise", "bucketed", "layerwise-nb", "bucketed-vs-fused", "bucketed-vs-layerwise")
		for _, r := range rows {
			tb.AddRowRaw(
				r.Workload, fmt.Sprint(r.N), fmt.Sprint(r.P), fmt.Sprint(r.Calls),
				fmt.Sprint(r.Layers), fmt.Sprint(r.Buckets), fmt.Sprint(r.BucketCoords),
				report.FormatSeconds(r.FusedSim),
				report.FormatSeconds(r.LayerwiseSim),
				report.FormatSeconds(r.BucketedSim),
				report.FormatSeconds(r.LayerwiseNBSim),
				fmt.Sprintf("%.3f", r.BucketedVsFused),
				fmt.Sprintf("%.3f", r.BucketedVsLayerwise),
			)
		}
		if err := tb.Emit(stdout, *csv); err != nil {
			return err
		}
		pt := report.NewTable("N", "P", "k", "chunks", "sim", "model", "model/sim")
		for _, r := range pm {
			pt.AddRowRaw(
				fmt.Sprint(r.N), fmt.Sprint(r.P), fmt.Sprint(r.K), fmt.Sprint(r.Chunks),
				report.FormatSeconds(r.SimSeconds),
				report.FormatSeconds(r.ModelSeconds),
				fmt.Sprintf("%.3f", r.ModelOverSim),
			)
		}
		return pt.Emit(stdout, *csv)
	}

	if *sweep == "overlapwall" {
		rows := experiments.OverlapWallSweep(*runs)
		if *jsonOut {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(rows)
		}
		tb := report.NewTable("workload", "calls", "layers", "buckets", "runs", "layerwise-wall", "bucketed-wall", "bucketed-vs-layerwise")
		for _, r := range rows {
			tb.AddRowRaw(
				r.Workload, fmt.Sprint(r.Calls), fmt.Sprint(r.Layers), fmt.Sprint(r.Buckets),
				fmt.Sprint(r.Runs),
				report.FormatSeconds(r.LayerwiseWall),
				report.FormatSeconds(r.BucketedWall),
				fmt.Sprintf("%.3f", r.BucketedVsLayerwise),
			)
		}
		return tb.Emit(stdout, *csv)
	}

	if *sweep == "adaptdiv" {
		rows := experiments.AdaptDiversitySweep()
		if *jsonOut {
			// Snapshot-only: unlike BENCH_5 this document is NOT
			// drift-gated — the library grows, and each new scenario
			// legitimately adds a row.
			doc := struct {
				Note  string                 `json:"note"`
				Cells []experiments.AdaptRow `json:"cells"`
			}{
				Note: "scenario-diversity check: the adaptation ablation arms run over the entire " +
					"scenario library (not just the BENCH_5 cells). Snapshot-only, NOT drift-gated.",
				Cells: rows,
			}
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(doc)
		}
		tb := report.NewTable("workload", "N", "P", "calls", "k-range", "static-uniform", "static-clustered", "adaptive", "vs-uniform", "vs-best", "switches", "clustered-calls", "final")
		for _, r := range rows {
			tb.AddRowRaw(
				r.Workload, fmt.Sprint(r.N), fmt.Sprint(r.P), fmt.Sprint(r.Calls),
				fmt.Sprintf("%d..%d", r.KStart, r.KEnd),
				report.FormatSeconds(r.StaticUniformSim),
				report.FormatSeconds(r.StaticClusteredSim),
				report.FormatSeconds(r.AdaptiveSim),
				fmt.Sprintf("%.3f", r.AdaptiveVsUniform),
				fmt.Sprintf("%.3f", r.AdaptiveVsBestStatic),
				fmt.Sprint(r.AdaptiveSwitches),
				fmt.Sprint(r.AdaptiveClusteredCalls),
				r.FinalChoice,
			)
		}
		return tb.Emit(stdout, *csv)
	}

	if *sweep == "hierdsar" {
		if *rpn < 1 {
			return fmt.Errorf("-rpn must be >= 1, got %d", *rpn)
		}
		if *nic < 0 {
			return fmt.Errorf("-nic must be >= 0, got %d", *nic)
		}
		interProf, err := profileOrDefault(*profile, "aries")
		if err != nil {
			return err
		}
		intraProf, err := profileOrDefault(*intra, "nvlink")
		if err != nil {
			return err
		}
		// The hierdsar sweep defaults to a dense-regime density and a
		// moderate dimension; explicit flags win.
		d := *densityF
		if !flagPassed(fs, "density") {
			d = 0.6
		}
		dim := *n
		if !flagPassed(fs, "n") {
			dim = 1 << 18
		}
		ranks := report.Pow2Range(2*(*rpn), *maxP)
		if len(ranks) == 0 {
			return fmt.Errorf("-maxp %d yields no multi-node shapes (need at least %d ranks for 2 nodes of %d)",
				*maxP, 2*(*rpn), *rpn)
		}
		fmt.Fprintf(stdout, "# hierarchical DSAR under NIC contention: flat DSAR vs DSAR_Hierarchical on %d×%s/%s nodes, nic=%d; N=%d d=%.2f%%\n",
			*rpn, intraProf.Name, interProf.Name, *nic, dim, d*100)
		rows := experiments.HierDSARNodeSweep(dim, d, ranks, *rpn, *nic, intraProf, interProf, *gens, *runs)
		tb := report.NewTable("P", "ranks/node", "flat-median", "hier-median", "speedup", "flat-msgs", "hier-msgs")
		for _, r := range rows {
			tb.AddRowRaw(
				fmt.Sprint(r.P),
				fmt.Sprint(r.RanksPerNode),
				report.FormatSeconds(r.FlatMedian),
				report.FormatSeconds(r.HierMedian),
				fmt.Sprintf("%.2f", r.Speedup),
				fmt.Sprint(r.FlatMsgs),
				fmt.Sprint(r.HierMsgs),
			)
		}
		return tb.Emit(stdout, *csv)
	}

	if *sweep == "hier" {
		if *rpn < 1 {
			return fmt.Errorf("-rpn must be >= 1, got %d", *rpn)
		}
		interProf, err := profileOrDefault(*profile, "aries")
		if err != nil {
			return err
		}
		intraProf, err := profileOrDefault(*intra, "nvlink")
		if err != nil {
			return err
		}
		// The hier sweep defaults to a latency-bound density; an explicit
		// -density flag wins.
		d := *densityF
		if !flagPassed(fs, "density") {
			d = 1e-4
		}
		// Start at two nodes: single-node shapes (P ≤ rpn) carry no
		// hierarchy and are skipped by the sweep anyway.
		ranks := report.Pow2Range(2*(*rpn), *maxP)
		if len(ranks) == 0 {
			return fmt.Errorf("-maxp %d yields no multi-node shapes (need at least %d ranks for 2 nodes of %d)",
				*maxP, 2*(*rpn), *rpn)
		}
		fmt.Fprintf(stdout, "# hierarchical crossover: flat SSAR_Split_allgather on %s vs SSAR_Hierarchical on %d×%s/%s nodes; N=%d d=%.4f%%\n",
			interProf.Name, *rpn, intraProf.Name, interProf.Name, *n, d*100)
		rows := experiments.HierNodeSweep(*n, d, ranks, *rpn, intraProf, interProf, *gens, *runs)
		tb := report.NewTable("P", "ranks/node", "flat-median", "hier-median", "speedup", "flat-msgs", "hier-msgs")
		for _, r := range rows {
			tb.AddRowRaw(
				fmt.Sprint(r.P),
				fmt.Sprint(r.RanksPerNode),
				report.FormatSeconds(r.FlatMedian),
				report.FormatSeconds(r.HierMedian),
				fmt.Sprintf("%.2f", r.Speedup),
				fmt.Sprint(r.FlatMsgs),
				fmt.Sprint(r.HierMsgs),
			)
		}
		return tb.Emit(stdout, *csv)
	}

	var rows []experiments.MicrobenchRow
	switch *sweep {
	case "nodes":
		prof, err := profileOrDefault(*profile, "aries")
		if err != nil {
			return err
		}
		nodes := report.Pow2Range(2, *maxP)
		fmt.Fprintf(stdout, "# Figure 3 (left): reduction time vs node count; N=%d d=%.4f%% profile=%s\n",
			*n, *densityF*100, prof.Name)
		rows = experiments.Fig3NodeSweep(*n, *densityF, nodes, prof, *gens, *runs)
	case "density":
		prof, err := profileOrDefault(*profile, "gige")
		if err != nil {
			return err
		}
		densities := []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25}
		fmt.Fprintf(stdout, "# Figure 3 (right): reduction time vs density; N=%d P=%d profile=%s\n",
			*n, *p, prof.Name)
		rows = experiments.Fig3DensitySweep(*n, *p, densities, prof, *gens, *runs)
	default:
		return fmt.Errorf("unknown sweep %q", *sweep)
	}

	tb := report.NewTable("algorithm", "P", "density%", "median", "q25", "q75", "result_nnz", "dense?")
	for _, r := range rows {
		tb.AddRowRaw(
			r.Algorithm.String(),
			fmt.Sprint(r.P),
			fmt.Sprintf("%.4f", r.Density*100),
			report.FormatSeconds(r.Median),
			report.FormatSeconds(r.Q25),
			report.FormatSeconds(r.Q75),
			fmt.Sprint(r.ResultNNZ),
			fmt.Sprint(r.ResultDense),
		)
	}
	return tb.Emit(stdout, *csv)
}

// emitBench2 writes the BENCH_2.json document: the contention-model sweep
// with modeled and simulated seconds per algorithm per cell. Every metric
// is simulated virtual time (deterministic given the seeded inputs), so
// the file is reproducible byte-for-byte — scripts/ci.sh regenerates it.
func emitBench2(w io.Writer, rows []experiments.ContentionRow) error {
	doc := struct {
		ID    string                      `json:"id"`
		Note  string                      `json:"note"`
		Cells []experiments.ContentionRow `json:"cells"`
	}{
		ID: "BENCH_2",
		Note: "contention-model sweep: per-algorithm modeled vs simulated time on two-level " +
			"topologies with the per-node NIC serialization cap on/off; auto_choice is the " +
			"cost-model Auto, old_heuristic_choice the replaced topology-presence rule, " +
			"cheapest_sim the empirically cheapest algorithm",
		Cells: rows,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// emitBench3 writes the BENCH_3.json document: the k-way merge / scratch
// ablation. Allocation counts (testing.AllocsPerRun on deterministic
// single-goroutine reductions) and simulated seconds are reproducible
// byte-for-byte, so scripts/ci.sh regenerates the file and hard-fails on
// drift, exactly like BENCH_2. Wall-clock ns/op for the same cells lives
// in the note as a one-time snapshot (wall time is machine-dependent and
// cannot be drift-gated; re-measure with
// `go test -bench BenchmarkAblationKWayMerge`).
func emitBench3(w io.Writer, rows []experiments.MergeCell) error {
	doc := struct {
		ID    string                  `json:"id"`
		Note  string                  `json:"note"`
		Cells []experiments.MergeCell `json:"cells"`
	}{
		ID: "BENCH_3",
		Note: "k-way merge + scratch ablation: allocations per P-stream reduction for chained " +
			"two-way Add vs one-pass MergeK vs MergeK with a warm Scratch pool, bitwise equivalence, " +
			"and the deterministic simulated time of SSAR_Split_allgather at each shape. " +
			"Wall-clock snapshot at recording time (go1.24, one shared machine, k=2000, N=2^18): " +
			"chained 1.48ms/op vs k-way+scratch 0.95ms/op at P=16; 17.5ms/op vs 5.9ms/op at P=64 " +
			"(see BenchmarkAblationKWayMerge).",
		Cells: rows,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// emitBench4 writes the BENCH_4.json document: the hierarchy-depth
// ablation (flat vs 2-level vs 3-level schemes on a DragonflyLike
// machine). Every metric is simulated virtual time on seeded inputs, so
// the file is reproducible byte-for-byte — scripts/ci.sh regenerates it
// and hard-fails on drift, exactly like BENCH_2 and BENCH_3.
func emitBench4(w io.Writer, rows []experiments.HierLevelsRow) error {
	doc := struct {
		ID    string                      `json:"id"`
		Note  string                      `json:"note"`
		Cells []experiments.HierLevelsRow `json:"cells"`
	}{
		ID: "BENCH_4",
		Note: "hierarchy-depth ablation on DragonflyLike(4,4): the same allreduce instance run " +
			"flat, with the 2-level (node-only) hierarchical scheme, and with the full 3-level " +
			"recursion on one world; auto_choice/auto_levels is what the level-aware cost model " +
			"(ChooseAutoLevels) resolves to, cheapest_sim the empirically cheapest depth",
		Cells: rows,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// emitBench5 writes the BENCH_5.json document: the runtime-adaptation
// ablation (static-uniform vs static-clustered vs adaptive Auto on
// stationary and drifting workloads). Every metric is simulated virtual
// time on seeded inputs, so the file is reproducible byte-for-byte —
// scripts/ci.sh regenerates it and hard-fails on drift, exactly like
// BENCH_2–4.
func emitBench5(w io.Writer, rows []experiments.AdaptRow) error {
	doc := struct {
		ID    string                 `json:"id"`
		Note  string                 `json:"note"`
		Cells []experiments.AdaptRow `json:"cells"`
	}{
		ID: "BENCH_5",
		Note: "runtime-adaptation ablation: the same call schedule run under static-uniform Auto " +
			"(the default), static-clustered Auto (Options.Support pinned to the 10%/70% default " +
			"shape), and the adaptive controller (internal/adapt: ShapeSketch support detection + " +
			"LinkCalibrator + hysteresis). Acceptance: adaptive_vs_uniform > 1 on the clustered and " +
			"drifting cells, within agreement-overhead noise (~1%, two tiny allreduces per call) of " +
			"1 on stationary uniform, and adaptive_vs_best_static within the same noise of >= 1 on " +
			"the drifting cells. Sketch overhead wall-clock snapshot at recording time (go1.24, one " +
			"shared machine): ~8us per observed call vs ~1.3ms per P=16 k-way split-phase merge " +
			"(~0.6%, within the 2% budget; ~0.1% at P=64) — see BenchmarkAblationSketchOverhead, " +
			"re-measure with go test -bench (wall time is machine-dependent and cannot be drift-gated).",
		Cells: rows,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// emitBench7 writes the BENCH_7.json document: the overlap/bucketing
// ablation (fused vs per-layer nonblocking vs bucket-fusion scheduler on
// the layered workloads) plus the pipelining-term validation cells. Every
// numeric field is simulated virtual time on seeded inputs, so the file
// is reproducible byte-for-byte — scripts/ci.sh regenerates it and
// hard-fails on drift like BENCH_2–5. The wall-clock side of the story
// (where bucketing beats per-layer issue) is machine-dependent and lives
// in the Note as a recorded snapshot; re-measure with
// `sparbench -sweep overlapwall`.
func emitBench7(w io.Writer, rows []experiments.OverlapRow, pm []experiments.PipeModelRow) error {
	doc := struct {
		ID        string                     `json:"id"`
		Note      string                     `json:"note"`
		Cells     []experiments.OverlapRow   `json:"cells"`
		PipeModel []experiments.PipeModelRow `json:"pipeline_model_cells"`
	}{
		ID: "BENCH_7",
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
			"shared machine, median of 5, pinned SSAR_Split_allgather): " + wallSnapshot + " — " +
			"machine-dependent, NOT drift-gated, re-measure with `sparbench -sweep overlapwall`. " +
			"pipeline_model_cells validate the cost model's chunked-pipelining term: the same " +
			"seeded instance simulated at chunks 1/2/4/8 vs PredictSeconds; model_over_sim stays " +
			"within the band asserted by TestBench7PipelineModelBand.",
		Cells:     rows,
		PipeModel: pm,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// wallSnapshot is the recorded one-machine wall measurement quoted in the
// BENCH_7 Note (static text so the document stays byte-gateable).
const wallSnapshot = "lstm-1m (3 layers -> 3 buckets) layerwise 222ms vs bucketed 208ms (1.07x), " +
	"transformer-1m (4 layers -> 3 buckets) 173ms vs 172ms (1.00x); the wall margin is modest " +
	"because P=8 rank goroutines already saturate the recording machine's cores, so overlapped " +
	"merges add little throughput — the latency floors bucketing removes are what the simulated " +
	"cells isolate"

// emitBench8 writes the BENCH_8.json document: the multi-tenant cluster
// sweep (per-job slowdown and per-policy summaries across placement
// policies on shared ingress-capped machines) plus the pinned
// scenario-diversity adaptation cells promoted from the snapshot-only
// adaptdiv sweep. Every metric is simulated virtual time on seed-isolated
// streams, so the file is reproducible byte-for-byte — scripts/ci.sh
// regenerates it and hard-fails on drift like BENCH_2–5 and 7, and
// TestBench8AcceptanceCriteria enforces the acceptance invariants against
// the committed file.
func emitBench8(w io.Writer, rows []experiments.ClusterRow, summaries []experiments.ClusterPolicySummary, adaptCells []experiments.AdaptRow) error {
	doc := struct {
		ID         string                             `json:"id"`
		Note       string                             `json:"note"`
		Cells      []experiments.ClusterRow           `json:"cells"`
		Policies   []experiments.ClusterPolicySummary `json:"policy_summary"`
		AdaptCells []experiments.AdaptRow             `json:"adapt_cells"`
	}{
		ID: "BENCH_8",
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
			"scenario-diversity adaptation rows (Bench8AdaptNames: the whole library, pinned by " +
			"name so library growth never drifts this file) on the BENCH_5 machine shape and key — " +
			"the four shared workloads reproduce the BENCH_5 rows exactly, and the gate extends " +
			"adaptive >= static-uniform (within noise) to the clustered/drifting diversity cells.",
		Cells:      rows,
		Policies:   summaries,
		AdaptCells: adaptCells,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// exportObs writes the hub's Chrome trace and/or metrics dump to the
// given paths (empty path = skip).
func exportObs(hub *obs.Obs, tracePath, metricsPath string) error {
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := hub.WriteChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		if err := hub.WriteMetrics(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func flagPassed(fs *flag.FlagSet, name string) bool {
	passed := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			passed = true
		}
	})
	return passed
}

// dumpTrace runs one recursive-doubling sparse allreduce with tracing
// enabled and prints the virtual-time message timeline (the Figure 2
// schedule, observable directly).
func dumpTrace(w io.Writer, n int, density float64, P int, prof simnet.Profile) error {
	world := comm.NewWorld(P, prof)
	tr := world.EnableTrace()
	rng := rand.New(rand.NewSource(1))
	k := int(density * float64(n))
	if k < 1 {
		k = 1
	}
	inputs := make([]*stream.Vector, P)
	for r := range inputs {
		seen := map[int32]bool{}
		idx := make([]int32, 0, k)
		val := make([]float64, 0, k)
		for len(idx) < k {
			ix := int32(rng.Intn(n))
			if !seen[ix] {
				seen[ix] = true
				idx = append(idx, ix)
				val = append(val, rng.NormFloat64())
			}
		}
		inputs[r] = stream.NewSparse(n, idx, val, stream.OpSum)
	}
	comm.Run(world, func(p *comm.Proc) any {
		return core.Allreduce(p, inputs[p.Rank()], core.Options{Algorithm: core.SSARRecDouble})
	})
	fmt.Fprintf(w, "# SSAR_Recursive_double message timeline: N=%d d=%.4f%% P=%d profile=%s\n",
		n, density*100, P, prof.Name)
	tr.Dump(w)
	counts, bytes := tr.Rounds()
	fmt.Fprintf(w, "\n# rounds: %d; per-round messages %v\n", len(counts), counts)
	fmt.Fprintf(w, "# per-round bytes %v (geometric growth under low overlap)\n", bytes)
	return nil
}

func profileOrDefault(name, fallback string) (simnet.Profile, error) {
	if name == "" {
		name = fallback
	}
	return simnet.ProfileByName(name)
}
