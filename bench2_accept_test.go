package sparcml

import (
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// The regret ratchet: the largest and the mean regret over the committed
// grid's 132 cells may not rise past what the grid recorded (2.152, by
// drift-shift on fly4x4 at P = 31; 1.1359 mean).
const (
	bench2MaxRegret  = 2.1522
	bench2MeanRegret = 1.1359
)

// TestBench2AcceptanceCriteria validates the regret grid on the committed
// BENCH_2.json (scripts/ci.sh regenerates the file and hard-fails on
// drift): the grid is complete, Auto is optimal where the regimes are
// clear — the latency-bound sparse cells and, within the family the δ gate
// admits, the dense ones — the cost model tracks the simulator on the
// uniform supports it assumes, and regret does not grow.
func TestBench2AcceptanceCriteria(t *testing.T) {
	var cells []experiments.RegretCell
	var cands []experiments.RegretCandidate
	readBench(t, "BENCH_2", "cells", &cells)
	readBench(t, "BENCH_2", "candidates", &cands)

	type key struct {
		scenario, machine string
		p                 int
	}
	seen := map[key]int{}
	for _, c := range cells {
		seen[key{c.Scenario, c.Machine, c.P}]++
	}
	for _, sc := range scenario.Names() {
		for _, m := range experiments.RegretMachines() {
			for _, p := range experiments.RegretRanks {
				if n := seen[key{sc, m.Name, p}]; n != 1 {
					t.Errorf("%s on %s at P=%d: %d cells, want exactly 1", sc, m.Name, p, n)
				}
			}
		}
	}
	if len(cells) != len(seen) {
		t.Errorf("%d cells for %d grid points", len(cells), len(seen))
	}

	byCell := map[key][]experiments.RegretCandidate{}
	for _, c := range cands {
		k := key{c.Scenario, c.Machine, c.P}
		byCell[k] = append(byCell[k], c)
		switch c.Scenario {
		case "sparse", "uniform", "dense":
			if c.ModelOverSim < 0.75 || c.ModelOverSim > 1.25 {
				t.Errorf("%s on %s at P=%d: %s model/sim = %.3f, outside [0.75, 1.25]",
					c.Scenario, c.Machine, c.P, c.Candidate, c.ModelOverSim)
			}
		}
	}

	deep, sum, worst := false, 0.0, 0.0
	for _, c := range cells {
		sum += c.Regret
		worst = max(worst, c.Regret)
		switch c.Scenario {
		case "sparse":
			if c.Regret != 1 {
				t.Errorf("sparse on %s at P=%d: Auto picks %s, %.3f× the cheapest %s", c.Machine, c.P, c.Pick, c.Regret, c.Cheapest)
			}
			deep = deep || c.Machine == "two4-nic1" && strings.Contains(c.Pick, "@")
		case "dense":
			// The δ gate admits only DSAR here: Auto must pick the cheapest
			// DSAR candidate, and only an excluded SSAR one may beat it.
			if !strings.HasPrefix(c.Pick, "DSAR") {
				t.Errorf("dense on %s at P=%d: Auto picks %s past δ", c.Machine, c.P, c.Pick)
			}
			for _, d := range byCell[key{c.Scenario, c.Machine, c.P}] {
				if d.SimSeconds < c.PickSim && strings.HasPrefix(d.Candidate, "DSAR") {
					t.Errorf("dense on %s at P=%d: Auto picks %s but %s is cheaper", c.Machine, c.P, c.Pick, d.Candidate)
				}
			}
		}
	}
	if !deep {
		t.Error("sparse: Auto runs at depth >= 2 on no NIC-capped cell")
	}
	if mean := sum / float64(len(cells)); worst > bench2MaxRegret || mean > bench2MeanRegret {
		t.Errorf("regret rose: max %.4f (ratchet %.4f), mean %.4f (ratchet %.4f)", worst, bench2MaxRegret, mean, bench2MeanRegret)
	}
}
