// Command sparbench runs the registered sweeps of internal/experiments:
// every figure and table of the paper's evaluation (§8), the hierarchical
// extensions, and the deterministic sweeps recorded as the committed
// BENCH_<n>.json documents. A sweep is addressed by its name or by the id
// of the document it records; every sweep renders as an aligned table,
// -csv or -json.
//
// Usage:
//
//	sparbench -sweep nodes      [-n 1048576] [-density 0.00781] [-maxp 64] [-profile aries]
//	sparbench -sweep density    [-n 1048576] [-p 8] [-profile gige]
//	sparbench -sweep fig1       [-n 270000]
//	sparbench -sweep fig4a      [-rows 2000] [-epochs 8] [-p 8]   # fig4b | fig5 | fig6: their own defaults
//	sparbench -sweep table2     [-scale 0.02] [-epochs 3]         # scd | spark alike
//	sparbench -sweep fig7
//	sparbench -sweep hier       [-n 1048576] [-density 0.0001] [-maxp 64] [-rpn 4] [-intra nvlink] [-profile aries]
//	sparbench -sweep hierdsar   [-n 262144] [-density 0.6] [-maxp 32] [-rpn 4] [-nic 1] [-intra nvlink] [-profile aries]
//	sparbench -sweep regret | merge | overlap | cluster   # BENCH_2 | 3 | 7 | 8
//	sparbench -sweep overlapwall [-runs 5]
//	sparbench -sweep BENCH_8 -json   # the committed document, byte for byte
//	sparbench -trace [-n 1024] [-p 4]   # message timeline of one allreduce
//
// Any invocation also takes -cpuprofile/-memprofile to write pprof
// profiles of the run (inspect with `go tool pprof`).
package main

import (
	"errors"
	"flag"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/simnet"
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

// options is the parsed command line.
type options struct {
	sweep            string
	params           experiments.Params
	csv, json, trace bool
	cpuProf, memProf string
}

// parse reads args over the given parameter defaults: a flag that is not
// passed leaves its default untouched.
func parse(args []string, defaults experiments.Params, usage io.Writer) (options, error) {
	o := options{params: defaults}
	p := &o.params
	fs := flag.NewFlagSet("sparbench", flag.ContinueOnError)
	fs.SetOutput(usage)
	profile := func(dst *simnet.Profile, name, usage string) {
		fs.Func(name, usage+": aries | ib-fdr | gige | spark | nvlink (default "+dst.Name+")", func(s string) (err error) {
			*dst, err = simnet.ProfileByName(s)
			return err
		})
	}
	var names []string
	for _, s := range experiments.Sweeps() {
		names = append(names, s.Name)
	}
	fs.StringVar(&o.sweep, "sweep", "nodes", "sweep to run, by name or BENCH id: "+strings.Join(names, " | "))
	fs.IntVar(&p.N, "n", p.N, "vector dimension N (paper uses 16M; 2^20 keeps memory modest; hierdsar defaults to 2^18, fig1's model to 270000)")
	fs.Float64Var(&p.Density, "density", p.Density, "per-node density d (hier defaults to 1e-4, hierdsar to 0.6)")
	fs.IntVar(&p.MaxP, "maxp", p.MaxP, "largest rank count of the nodes/hier/hierdsar sweeps")
	fs.IntVar(&p.P, "p", p.P, "rank count of the density sweep; base rank count of fig4a/fig4b/fig5/fig6")
	fs.IntVar(&p.RPN, "rpn", p.RPN, "ranks per node of the hier/hierdsar sweeps")
	fs.IntVar(&p.NIC, "nic", p.NIC, "per-node NIC serialization cap of the hierdsar sweep (0 disables contention)")
	profile(&p.Intra, "intra", "intra-node profile of the hier/hierdsar sweeps")
	profile(&p.Profile, "profile", "network profile (density defaults to gige)")
	fs.IntVar(&p.Gens, "gens", p.Gens, "data generations per cell (paper: 5)")
	fs.IntVar(&p.Runs, "runs", p.Runs, "runs per generation (paper: 10)")
	fs.IntVar(&p.Rows, "rows", p.Rows, "dataset rows of the fig4a/fig4b/fig5/fig6 sweeps")
	fs.IntVar(&p.Epochs, "epochs", p.Epochs, "training epochs of the fig4a/fig4b/fig5/fig6/table2/scd/spark sweeps")
	fs.Float64Var(&p.Scale, "scale", p.Scale, "dataset size of the table2/scd/spark sweeps relative to the paper's")
	fs.BoolVar(&o.csv, "csv", false, "emit CSV (raw numbers) instead of aligned tables")
	fs.BoolVar(&o.json, "json", false, "emit the sweep's JSON document (for a BENCH id: the committed file's bytes)")
	fs.BoolVar(&o.trace, "trace", false, "dump a message timeline of one SSAR_Recursive_double allreduce and exit")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "write a pprof CPU profile of the run here")
	fs.StringVar(&o.memProf, "memprofile", "", "write a pprof heap profile (after the run) here")
	return o, fs.Parse(args)
}

func run(args []string, stdout io.Writer) error {
	// Two passes: the first finds the sweep, the second reads the same
	// flags over that sweep's own defaults (it cannot fail or print: the
	// first pass already accepted these args).
	o, err := parse(args, experiments.DefaultParams(), os.Stderr)
	if err != nil {
		return err
	}
	sw, err := experiments.Lookup(o.sweep)
	if err != nil {
		return err
	}
	o, _ = parse(args, sw.Defaults, io.Discard)

	if o.cpuProf != "" {
		f, err := os.Create(o.cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if o.memProf != "" {
		defer func() {
			f, err := os.Create(o.memProf)
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

	if o.trace {
		if err := o.params.Validate(); err != nil {
			return err
		}
		experiments.DumpTrace(stdout, experiments.MicrobenchConfig{
			N: o.params.N, Density: o.params.Density, P: o.params.P, Profile: o.params.Profile, Seed: 1,
		})
		return nil
	}

	doc, err := sw.Document(o.params)
	if err != nil {
		return err
	}
	format := report.Text
	switch {
	case o.json:
		format = report.JSON
	case o.csv:
		format = report.CSV
	}
	return doc.Write(stdout, format)
}
