// Command sparreplay records and replays deterministic workload traces.
// A trace is the per-step, per-rank input schedule one scenario generation
// emitted, serialized field-exact (internal/scenario); replaying it
// through the adaptation cell runner reproduces the live run's decisions
// and simulated times byte for byte.
//
// Usage:
//
//	sparreplay -list
//	sparreplay -scenario clustered [-seed 701] [-rpn 4] [-nic 1] [-json]   # live run
//	sparreplay -record -scenario clustered -out clustered.trace [-seed 701]
//	sparreplay -replay clustered.trace [-rpn 4] [-nic 1] [-json]
//	sparreplay -scenario lstm -obs trace.json [-obsmetrics metrics.txt]
//
// A live run and a replay of its recorded trace emit identical bytes —
// scripts/ci.sh diffs exactly that, including the -obs Perfetto export:
// replaying a recorded trace reproduces the live timeline byte for byte.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/scenario"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sparreplay: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sparreplay", flag.ContinueOnError)
	p := experiments.DefaultParams()
	var (
		list    = fs.Bool("list", false, "list the scenario library and exit")
		name    = fs.String("scenario", "", "library scenario to run or record")
		record  = fs.Bool("record", false, "record the scenario's trace to -out instead of running it")
		out     = fs.String("out", "", "output path for -record")
		replay  = fs.String("replay", "", "trace file to replay instead of generating live")
		seed    = fs.Int64("seed", experiments.AdaptSeed, "generation seed (BENCH_8's adaptation cells' default)")
		jsonOut = fs.Bool("json", false, "emit the cell row as a JSON document instead of a table")
		obsOut  = fs.String("obs", "", "write the adaptive arm's Chrome trace-event JSON (Perfetto) here")
		obsMet  = fs.String("obsmetrics", "", "write the adaptive arm's plain-text metrics dump here")
	)
	fs.IntVar(&p.RPN, "rpn", p.RPN, "ranks per node of the simulated topology")
	fs.IntVar(&p.NIC, "nic", p.NIC, "per-node NIC serialization cap")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := p.Validate(); err != nil {
		return err
	}
	if *record && *out == "" {
		return fmt.Errorf("-record needs -out")
	}

	if *list {
		tb := report.NewTable("scenario", "N", "P", "calls", "blocks", "layers", "zipf", "ragged")
		for _, sc := range scenario.Library() {
			tb.AddRowRaw(
				sc.Name, fmt.Sprint(sc.N), fmt.Sprint(sc.P), fmt.Sprint(sc.Calls),
				fmt.Sprint(len(sc.Blocks)), fmt.Sprint(len(sc.Layers)),
				fmt.Sprintf("%.2f", sc.ZipfS), fmt.Sprintf("%.2f", sc.Ragged),
			)
		}
		return tb.Emit(stdout, false)
	}

	var tr *scenario.Trace
	if *replay != "" {
		var err error
		if tr, err = scenario.ReadFile(*replay); err != nil {
			return err
		}
	} else {
		if *name == "" {
			return fmt.Errorf("need -scenario (or -replay / -list); see -h")
		}
		sc, err := scenario.ByName(*name)
		if err != nil {
			return err
		}
		tr = scenario.Record(sc, scenario.NewKey(*seed))
	}

	if *record {
		if err := tr.WriteFile(*out); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "recorded %s: %d steps x %d ranks, N=%d, key=%#x -> %s\n",
			tr.Name, len(tr.Steps), tr.P, tr.N, uint64(tr.Key), *out)
		return nil
	}

	// One call serves the live run and the replay; they differ only in
	// whether the trace went through the file codec.
	row, hub := experiments.RunAdaptCell(p.RPN, p.NIC, tr, *obsOut != "" || *obsMet != "")
	if err := writeFile(*obsOut, hub.WriteChrome); err != nil {
		return err
	}
	if err := writeFile(*obsMet, hub.WriteMetrics); err != nil {
		return err
	}
	doc := report.Document{Sections: []report.Section{{Name: "cells", Rows: []experiments.AdaptRow{row}}}}
	if *jsonOut {
		return doc.Write(stdout, report.JSON)
	}
	return doc.Write(stdout, report.Text)
}

// writeFile writes one obs export to path (empty path = skip), reporting
// the close error a full disk would surface.
func writeFile(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
