package sparcml

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/experiments"
)

// TestBench8AcceptanceCriteria validates the PR-9 acceptance invariants on
// the committed BENCH_8.json (scripts/ci.sh regenerates the file and
// hard-fails on drift, so the committed cells always reflect the current
// code): the whole eight-job mix runs concurrently under every policy on
// both three-level machines, no job ever beats its isolated baseline,
// packed keeps its jobs on exclusive capped groups (slowdown exactly 1),
// and the cost-aware policy wins — its mean predicted job time strictly
// beats random's at every scale, and its mean realized slowdown is never
// worse than any other policy's.
func TestBench8AcceptanceCriteria(t *testing.T) {
	var cells []experiments.ClusterRow
	var policies []experiments.ClusterPolicySummary
	readBench(t, "BENCH_8", "cells", &cells)
	readBench(t, "BENCH_8", "policy_summary", &policies)
	const eps = 1e-9

	byScale := map[string]map[string]experiments.ClusterPolicySummary{}
	for _, s := range policies {
		if byScale[s.Scale] == nil {
			byScale[s.Scale] = map[string]experiments.ClusterPolicySummary{}
		}
		byScale[s.Scale][s.Policy] = s
		if s.Jobs < 8 {
			t.Errorf("%s/%s: only %d jobs, want >= 8", s.Scale, s.Policy, s.Jobs)
		}
		if s.ConcurrentPeak != s.Jobs {
			t.Errorf("%s/%s: concurrent peak %d of %d jobs — the mix must run fully concurrent",
				s.Scale, s.Policy, s.ConcurrentPeak, s.Jobs)
		}
	}
	if len(byScale) < 2 {
		t.Fatalf("BENCH_8.json covers %d machine scales, want 2", len(byScale))
	}
	for scale, policies := range byScale {
		if len(policies) < 3 {
			t.Fatalf("%s: only %d policies, want >= 3", scale, len(policies))
		}
		aware, ok := policies["cost-aware"]
		if !ok {
			t.Fatalf("%s: no cost-aware summary", scale)
		}
		random, ok := policies["random"]
		if !ok {
			t.Fatalf("%s: no random summary", scale)
		}
		if aware.MeanPredictedJob >= random.MeanPredictedJob {
			t.Errorf("%s: cost-aware mean predicted job %g does not strictly beat random's %g",
				scale, aware.MeanPredictedJob, random.MeanPredictedJob)
		}
		for name, s := range policies {
			if aware.MeanSlowdown > s.MeanSlowdown+eps {
				t.Errorf("%s: cost-aware mean slowdown %g worse than %s's %g",
					scale, aware.MeanSlowdown, name, s.MeanSlowdown)
			}
		}
	}

	for _, c := range cells {
		if c.Slowdown < 1-eps {
			t.Errorf("%s/%s/%s: slowdown %g < 1 — a co-tenant run beat its isolated baseline",
				c.Scale, c.Policy, c.Job, c.Slowdown)
		}
		if got := c.SimSeconds / c.IsolatedSim; math.Abs(got-c.Slowdown) > 1e-6*c.Slowdown {
			t.Errorf("%s/%s/%s: slowdown %g inconsistent with sim/isolated = %g",
				c.Scale, c.Policy, c.Job, c.Slowdown, got)
		}
		if c.Policy == "packed" && math.Abs(c.Slowdown-1) > eps {
			t.Errorf("%s/packed/%s: slowdown %g, want exactly 1 on exclusive groups",
				c.Scale, c.Job, c.Slowdown)
		}
	}
}

// TestBench8AdaptDiversity validates the runtime-adaptation ablation on
// the committed BENCH_8.json adapt_cells (scripts/ci.sh regenerates the
// file and hard-fails on drift, so the committed cells always reflect the
// current code): the pinned library cells are all present, the adaptive
// controller beats the default uniform-static Auto by more than noise on
// the clustered and drifting workloads and picks the clustered support
// model there, never loses to it by more than noise on stationary uniform
// (where it never picks the clustered model), stays within noise of (or
// beats) the better static arm on the drifting cells, never loses badly
// (>15%) on any library shape it was not tuned on, and keeps its switch
// count bounded by hysteresis. The noise bound is 3%: the measured
// overhead of the two tiny per-call agreement allreduces is ~0.7–1.1% on
// these cells.
func TestBench8AdaptDiversity(t *testing.T) {
	var adaptCells []experiments.AdaptRow
	readBench(t, "BENCH_8", "adapt_cells", &adaptCells)
	const noise = 0.03

	byName := map[string]experiments.AdaptRow{}
	for _, c := range adaptCells {
		byName[c.Workload] = c
	}
	for _, want := range experiments.Bench8AdaptNames() {
		if _, ok := byName[want]; !ok {
			t.Fatalf("BENCH_8.json is missing the %q adapt cell", want)
		}
	}

	for _, c := range adaptCells {
		if c.AdaptiveSwitches > 3 {
			t.Errorf("%s: %d switches — hysteresis should bound churn", c.Workload, c.AdaptiveSwitches)
		}
		switch c.Workload {
		case "uniform":
			if c.AdaptiveVsUniform < 1-noise {
				t.Errorf("uniform: adaptive loses %.1f%% to static Auto, beyond the %.0f%% noise bound",
					(1-c.AdaptiveVsUniform)*100, noise*100)
			}
			if c.AdaptiveClusteredCalls != 0 {
				t.Errorf("uniform: %d calls misclassified as clustered", c.AdaptiveClusteredCalls)
			}
		case "clustered", "drift-cluster", "drift-shift":
			if c.AdaptiveVsUniform <= 1+noise {
				t.Errorf("%s: adaptive_vs_uniform = %.3f, must beat static-uniform Auto by more than noise",
					c.Workload, c.AdaptiveVsUniform)
			}
			if c.AdaptiveClusteredCalls == 0 {
				t.Errorf("%s: the clustered support model was never selected", c.Workload)
			}
		default:
			// Diversity-only shapes (small worlds, few calls): the
			// controller may pay its agreement overhead without a regime
			// win to show for it, but must never lose badly.
			if c.AdaptiveVsUniform < 0.85 {
				t.Errorf("%s: adaptive loses %.1f%% to static Auto on a diversity cell",
					c.Workload, (1-c.AdaptiveVsUniform)*100)
			}
		}
		if c.Workload == "drift-cluster" || c.Workload == "drift-shift" {
			if c.AdaptiveVsBestStatic < 1-noise {
				t.Errorf("%s: adaptive_vs_best_static = %.3f, must be >= best static within noise",
					c.Workload, c.AdaptiveVsBestStatic)
			}
		}
	}
}

// TestFacadeCluster exercises the public multi-tenant surface end to end:
// library scenarios admitted to a cost-aware cluster through the facade
// aliases, with the determinism contract holding across runs.
func TestFacadeCluster(t *testing.T) {
	run := func() []ClusterJobStats {
		c := NewCluster(ClusterConfig{
			Machine: DragonflyLike(4, 2), Slots: 32,
			Key: NewSimulationKey(12),
		}, CostAware{})
		sc, err := ScenarioByName("multimodal")
		if err != nil {
			t.Fatalf("ScenarioByName: %v", err)
		}
		c.Add(ClusterJob{Name: "trainer-0", Scenario: sc})
		c.Add(ClusterJob{Name: "trainer-1", Scenario: sc})
		return c.Run()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same key diverged:\n%+v\nvs\n%+v", a, b)
	}
	for _, s := range a {
		if s.SimSeconds <= 0 || s.Algorithm == "" || len(s.Slots) != s.P {
			t.Fatalf("malformed stats through the facade: %+v", s)
		}
	}
}
