// Command bench is the repo's benchmark: six closed-loop workloads, each in
// its own process, measured end to end (untraced) or layer by layer
// (-trace 1). BENCHMARK.json at the repo root declares the metrics and the
// four workloads the driver gates; see README.md in this directory for what
// each one means.
//
//	go run ./bench                         # all six workloads, end to end
//	go run ./bench -traced                 # all six, per-layer metrics and Chrome traces
//	go run ./bench -workload gor-latency   # one workload, in this process
//	go run ./bench -selfcheck              # two sets back to back, compared against the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// contract is the part of BENCHMARK.json the program reads: the single
// declaration of metric names, units and bounds, and of the workloads the
// driver runs (a subset of this program's, see workloads.go).
type contract struct {
	Workloads []workloadSpec `json:"workloads"`
	EndToEnd  []metricSpec   `json:"end_to_end"`
	PerLayer  []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// repoRoot is the nearest directory at or above the working directory that
// holds BENCHMARK.json.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found at or above the working directory")
		}
		dir = parent
	}
}

func loadContract() (contract, error) {
	var c contract
	root, err := repoRoot()
	if err != nil {
		return c, err
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		return c, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return c, nil
}

// metricValue is one reported metric. Samples, when present, are the
// per-window (or per-set-up) values the reported median was taken over.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// workloadResult is everything one run of one workload reports.
type workloadResult struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Traced     bool                   `json:"traced"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Samples    int                    `json:"latency_samples"`
	WindowCV   float64                `json:"window_cv"`
	Digest     string                 `json:"input_digest"`
	Metrics    map[string]metricValue `json:"metrics"`
}

// resultSet is what `go run ./bench` writes: one result per workload and run
// (run i uses seed+i) plus where and how they were measured.
type resultSet struct {
	Provenance provenance       `json:"provenance"`
	Workloads  []workloadResult `json:"workloads"`
}

type provenance struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Runs       int     `json:"runs"`
	Quick      bool    `json:"quick"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"commit"`
}

func gatherProvenance(o options) provenance {
	p := provenance{Seed: o.seed, Seconds: o.seconds, Runs: o.runs, Quick: o.quick, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), Kernel: "unknown", Commit: "unknown"}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Kernel = strings.TrimSpace(string(raw))
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	return p
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	runs      int
	traced    bool
	quick     bool
	selfcheck bool
	out       string
	dir       string // where result sets and Chrome traces land: bench/out in the repo
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "run only this workload, in this process (default: all, one child process each)")
	fs.Int64Var(&o.seed, "seed", 1101, "seed of every generated input (2202 is the hold-out seed)")
	fs.Float64Var(&o.seconds, "seconds", 25, "length of the timed phase")
	fs.IntVar(&o.runs, "runs", 1, "runs per workload in a set; run i uses seed+i (-selfcheck defaults to 3)")
	fs.IntVar(&trace, "trace", 0, "1 = per-layer run: fixed op counts, spans, layer probes")
	fs.BoolVar(&o.traced, "traced", false, "same as -trace 1")
	fs.BoolVar(&o.quick, "quick", false, "small inputs and a handful of ops: a smoke run, not a measurement")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run two end-to-end sets and compare them against the bounds")
	fs.StringVar(&o.out, "out", "", "write the result (set) as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.traced = o.traced || trace == 1
	if g, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); g > n {
		fmt.Fprintf(stderr, "bench: GOMAXPROCS=%d exceeds the %d available CPUs; refusing to measure\n", g, n)
		return 1
	}
	c, err := loadContract()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	o.dir = filepath.Join(root, "bench", "out")
	switch {
	case o.workload != "":
		err = runChild(c, o, stdout)
	case o.selfcheck:
		err = selfcheck(c, o, stdout, stderr)
	default:
		_, err = runSet(c, o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// runChild measures one workload in this process and prints its metrics,
// ending with the one-line JSON object the driver reads.
func runChild(c contract, o options, stdout io.Writer) error {
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == o.workload {
			def = &workloads[i]
		}
	}
	if def == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	res, err := measure(*def, o)
	if err != nil {
		return err
	}
	declared := c.EndToEnd
	if o.traced {
		declared = c.PerLayer
	}
	if err := applyUnits(&res, declared); err != nil {
		return err
	}
	if o.out != "" {
		if err := writeJSON(o.out, res); err != nil {
			return err
		}
	}
	printResult(stdout, res, declared)
	type line struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	last := line{res.Correct, res.Attempted, res.Failed, map[string]metricValue{}}
	for name, m := range res.Metrics {
		last.Metrics[name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	raw, err := json.Marshal(last)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(raw))
	return err
}

// applyUnits attaches each metric's declared unit, and fails unless the
// emitted names are exactly the declared ones.
func applyUnits(res *workloadResult, declared []metricSpec) error {
	for _, spec := range declared {
		m, ok := res.Metrics[spec.Name]
		if !ok {
			return fmt.Errorf("%s: declared metric %s was not measured", res.Workload, spec.Name)
		}
		m.Unit = spec.Unit
		res.Metrics[spec.Name] = m
	}
	for name, m := range res.Metrics {
		if m.Unit == "" {
			return fmt.Errorf("%s: measured metric %s is not declared in BENCHMARK.json", res.Workload, name)
		}
	}
	return nil
}

func printResult(w io.Writer, res workloadResult, declared []metricSpec) {
	fmt.Fprintf(w, "== %s  (ops attempted %d, failed %d, latency samples %d, input digest %.12s)\n",
		res.Workload, res.Attempted, res.Failed, res.Samples, res.Digest)
	for _, spec := range declared {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", spec.Name, res.Metrics[spec.Name].Value, spec.Unit)
	}
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return writeFile(path, append(raw, '\n'))
}

func writeFile(path string, raw []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// runSet runs every workload in a child process of its own, so that each
// starts with a clean heap, RSS high-water mark and descriptor table.
func runSet(c contract, o options, stdout, stderr io.Writer) (resultSet, error) {
	set := resultSet{Provenance: gatherProvenance(o)}
	self, err := os.Executable()
	if err != nil {
		return set, err
	}
	// Runs are the outer loop, so slow drift of the machine spreads over
	// every workload instead of landing on one.
	for run := 0; run < o.runs; run++ {
		for _, w := range workloads {
			part := filepath.Join(o.dir, "part-"+w.name+".json")
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(o.seed + int64(run)),
				"-seconds", fmt.Sprint(o.seconds), "-out", part}
			if o.traced {
				args = append(args, "-traced")
			}
			if o.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				return set, fmt.Errorf("workload %s: %w", w.name, err)
			}
			raw, err := os.ReadFile(part)
			if err != nil {
				return set, err
			}
			var res workloadResult
			if err := json.Unmarshal(raw, &res); err != nil {
				return set, err
			}
			os.Remove(part)
			set.Workloads = append(set.Workloads, res)
		}
	}
	out := o.out
	if out == "" {
		out = filepath.Join(o.dir, "result.json")
		if o.traced {
			out = filepath.Join(o.dir, "result-traced.json")
		}
	}
	if err := writeJSON(out, set); err != nil {
		return set, err
	}
	fmt.Fprintln(stdout, "result set written to", out)
	for _, res := range set.Workloads {
		if !res.Correct || res.Failed > 0 {
			return set, fmt.Errorf("workload %s: %d of %d ops failed", res.Workload, res.Failed, res.Attempted)
		}
	}
	return set, nil
}

// values returns one metric's value in every run of one workload.
func (set resultSet) values(workload, metric string) []float64 {
	var out []float64
	for _, w := range set.Workloads {
		if w.Workload == workload {
			out = append(out, w.Metrics[metric].Value)
		}
	}
	return out
}

// selfcheck runs two end-to-end sets back to back and fails if any metric's
// medians differ by more than its bound: the evidence that the bounds can
// tell a regression from noise on this machine.
func selfcheck(c contract, o options, stdout, stderr io.Writer) error {
	o.traced = false
	if o.runs == 1 {
		o.runs = 3
	}
	var sets [2]resultSet
	for i := range sets {
		var err error
		o.out = filepath.Join(o.dir, fmt.Sprintf("selfcheck-%d.json", i+1))
		if sets[i], err = runSet(c, o, stdout, stderr); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "\nmedians over %d runs per workload (seeds %d to %d)\n", o.runs, o.seed, o.seed+int64(o.runs)-1)
	fmt.Fprintf(stdout, "%-16s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "set 1", "set 2", "worse by", "bound", "verdict")
	disagree := 0
	for _, w := range workloads {
		for _, spec := range c.EndToEnd {
			a, b := median(sets[0].values(w.name, spec.Name)), median(sets[1].values(w.name, spec.Name))
			worse := worseBy(spec, a, b)
			verdict := "agree"
			if worse > *spec.Bound || -worse > *spec.Bound {
				verdict = "DISAGREE"
				disagree++
			}
			fmt.Fprintf(stdout, "%-16s %-18s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n",
				w.name, spec.Name, a, b, 100*worse, 100**spec.Bound, verdict)
		}
		var cvs [2][]float64
		for i, set := range sets {
			for _, res := range set.Workloads {
				if res.Workload == w.name {
					cvs[i] = append(cvs[i], res.WindowCV)
				}
			}
		}
		fmt.Fprintf(stdout, "%-16s %-18s %14.4f %14.4f\n", w.name, "bench.window_cv", median(cvs[0]), median(cvs[1]))
	}
	if disagree > 0 {
		return fmt.Errorf("selfcheck: %d metric × workload pairs disagree by more than their bound", disagree)
	}
	return nil
}

// worseBy is how much worse b is than a, as a share of a, in the metric's
// own direction; negative when b is better.
func worseBy(spec metricSpec, a, b float64) float64 {
	if spec.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}
