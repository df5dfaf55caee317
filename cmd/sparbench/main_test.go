package main

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/report"
)

func TestRunNodesSweepTiny(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-sweep", "nodes", "-n", "4096", "-maxp", "4", "-gens", "1", "-runs", "1"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "SSAR_Recursive_double") || !strings.Contains(out, "Figure 3") || !strings.Contains(out, "median_seconds") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestRunHierSweepTiny(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-sweep", "hier", "-n", "16384", "-maxp", "8", "-rpn", "4", "-gens", "1", "-runs", "1"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "hierarchical crossover") || !strings.Contains(out, "hier_median_seconds") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

// TestRunTraceTiny: -trace prints the header, one line per send carrying
// every send-span field, and the rounds summary — recursive doubling at
// P = 4 is two rounds of four messages, the payload growing between them.
func TestRunTraceTiny(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-trace", "-n", "1024", "-p", "4"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "# SSAR_Recursive_double message timeline: N=1024") ||
		!strings.Contains(out, "\n# rounds: 2; per-round messages [4 4]\n") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	sends := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "→") {
			continue
		}
		sends++
		for _, field := range []string{"µs", "tag=", "B  lvl=0 arrives"} {
			if !strings.Contains(line, field) {
				t.Errorf("send line %q lacks %q", line, field)
			}
		}
	}
	if sends != 8 {
		t.Fatalf("%d send lines, want 8:\n%s", sends, out)
	}
}

func TestRunCSVAndErrors(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-sweep", "density", "-n", "1024", "-p", "2", "-gens", "1", "-runs", "1", "-csv"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "algorithm,n,p,density,median_seconds") {
		t.Fatalf("want plain CSV with the derived header, got:\n%s", buf.String())
	}
	if err := run([]string{"-sweep", "bogus"}, &buf); err == nil {
		t.Fatal("unknown sweep must error")
	}
	if err := run([]string{"-sweep", "nodes", "-profile", "bogus"}, &buf); err == nil {
		t.Fatal("unknown profile must error")
	}
	if err := run([]string{"-sweep", "hier", "-maxp", "4"}, &buf); err == nil {
		t.Fatal("a hier sweep with no multi-node shape must error")
	}

	// Every registered sweep rejects every bad number with an error naming
	// the flag — before any world is built, so a fixed-cell sweep costs
	// nothing here. (-rpn 0 once hung in Pow2Range; -p 0, -n 0 and -nic -3
	// once died in goroutine-trace panics from comm/scenario/simnet; -epochs
	// 0 once indexed a Table 2 row's last epoch at -1.)
	bad := [][2]string{
		{"-n", "0"}, {"-density", "0"}, {"-density", "2"}, {"-maxp", "0"}, {"-p", "0"},
		{"-rpn", "0"}, {"-nic", "-3"}, {"-gens", "0"}, {"-runs", "0"},
		{"-rows", "0"}, {"-epochs", "0"}, {"-scale", "0"},
	}
	for _, sw := range experiments.Sweeps() {
		for _, b := range bad {
			for _, name := range []string{sw.Name, sw.Bench} {
				if name == "" {
					continue
				}
				err := run([]string{"-sweep", name, b[0], b[1]}, &buf)
				if err == nil || !strings.Contains(err.Error(), b[0]+" ") {
					t.Errorf("-sweep %s %s %s: got %v, want an error naming the flag", name, b[0], b[1], err)
				}
			}
		}
	}
	if err := run([]string{"-trace", "-p", "0"}, &buf); err == nil {
		t.Error("-trace -p 0 must error")
	}
}

// TestRunUnknownPaperSweep checks that a paper figure or table with no
// registered sweep is refused, and that the error lists the names that
// would have worked.
func TestRunUnknownPaperSweep(t *testing.T) {
	for _, name := range []string{"fig3", "fig4c", "table4"} {
		t.Run(name, func(t *testing.T) {
			var buf strings.Builder
			err := run([]string{"-sweep", name}, &buf)
			if err == nil || !strings.Contains(err.Error(), "unknown sweep") || !strings.Contains(err.Error(), "fig4a") {
				t.Fatalf("-sweep %s: got %v, want an unknown-sweep error listing the registered sweeps", name, err)
			}
		})
	}
}

// TestRunEveryFormat checks the flags the hand-written tables used to
// ignore: -json on a CLI-shaped sweep, and -csv on a multi-section one.
func TestRunEveryFormat(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-sweep", "hierdsar", "-n", "4096", "-maxp", "8", "-gens", "1", "-runs", "1", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var doc report.Document
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("-json output is not a document: %v\n%s", err, buf.String())
	}
	var rows []experiments.HierRow
	if err := doc.Rows("cells", &rows); err != nil || len(rows) != 1 || rows[0].P != 8 {
		t.Fatalf("hierdsar -json cells = %+v, %v", rows, err)
	}

	buf.Reset()
	if err := run([]string{"-sweep", "overlap", "-csv"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "# cells\nworkload,") || !strings.Contains(out, "\n# pipeline_model_cells\nn,p,k_per_rank,chunks,") {
		t.Fatalf("multi-section CSV must separate its sections:\n%s", out)
	}
}

// TestRunPaperSweepsTiny drives the §8 figure sweeps at tiny sizes
// through the flags that size them; a flag lays over the sweep's own
// defaults, so -rows alone leaves -epochs and -p at fig4a's.
func TestRunPaperSweepsTiny(t *testing.T) {
	for _, c := range []struct {
		args []string
		want []string
	}{
		{[]string{"-sweep", "fig1", "-n", "5000"}, []string{"Figure 1", "# empirical\n", "per_node_density"}},
		{[]string{"-sweep", "fig7"}, []string{"Figure 7", "expected_k"}},
		{[]string{"-sweep", "fig4a", "-rows", "80", "-epochs", "1", "-p", "2"}, []string{"Figure 4a", "top1", "topk 16/512 + 4-bit"}},
		{[]string{"-sweep", "scd", "-scale", "0.002", "-epochs", "1"}, []string{"§8.2 SCD", "sparse_comm_seconds"}},
		{[]string{"-sweep", "spark", "-scale", "0.002", "-epochs", "1"}, []string{"Spark comparison", "sparse_vs_spark_comm"}},
	} {
		t.Run(c.args[1], func(t *testing.T) {
			var buf strings.Builder
			if err := run(c.args, &buf); err != nil {
				t.Fatal(err)
			}
			for _, w := range c.want {
				if !strings.Contains(buf.String(), w) {
					t.Fatalf("output lacks %q:\n%s", w, buf.String())
				}
			}
		})
	}
	var buf strings.Builder
	if err := run([]string{"-sweep", "fig4a", "-rows", "4"}, &buf); err == nil || !strings.Contains(err.Error(), "-rows 4 ") {
		t.Fatalf("fig4a -rows 4 on its default 8 ranks: got %v, want an error naming -rows", err)
	}
}

func TestRunHierDSARSweepTiny(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-sweep", "hierdsar", "-n", "4096", "-maxp", "8", "-rpn", "4", "-gens", "1", "-runs", "1"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "hierarchical DSAR under NIC contention") || !strings.Contains(out, "speedup") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestRunContentionSweepJSON(t *testing.T) {
	// The regret grid (BENCH_2) that replaced the contention sweep: both
	// sections are there, and Auto's pick is one of its cell's candidates.
	var buf strings.Builder
	if err := run([]string{"-sweep", "regret", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var doc report.Document
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("BENCH_2 output is not valid JSON: %v", err)
	}
	var cells []experiments.RegretCell
	var cands []experiments.RegretCandidate
	if doc.ID != "BENCH_2" || doc.Rows("cells", &cells) != nil || doc.Rows("candidates", &cands) != nil ||
		len(cells) == 0 || len(cands) == 0 {
		t.Fatalf("unexpected document: id %q, %d cells, %d candidates", doc.ID, len(cells), len(cands))
	}
	type cell struct {
		scenario, machine string
		p                 int
	}
	offered := map[cell]map[string]bool{}
	for _, c := range cands {
		k := cell{c.Scenario, c.Machine, c.P}
		if offered[k] == nil {
			offered[k] = map[string]bool{}
		}
		offered[k][c.Candidate] = true
	}
	for _, c := range cells {
		if !offered[cell{c.Scenario, c.Machine, c.P}][c.Pick] {
			t.Errorf("%s on %s at P=%d: pick %s is none of the cell's candidates", c.Scenario, c.Machine, c.P, c.Pick)
		}
	}
}
