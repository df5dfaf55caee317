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

// TestBench8AdaptDiversity promotes the scenario-diversity adaptation
// cells (snapshot-only in the adaptdiv sweep) into the drift gate: the
// pinned library cells are all present, the adaptive controller beats
// static-uniform Auto on every clustered/drifting cell, stays within
// agreement-overhead noise on the stationary uniform one, never loses
// badly (>15%) on any library shape it was not tuned on, and keeps its
// switch count bounded by hysteresis. The four BENCH_5 workloads must
// reproduce the committed BENCH_5.json rows exactly — same machine, key,
// and streams, so any divergence means the two documents were recorded
// from different code.
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
		case "clustered", "drift-cluster", "drift-shift":
			if c.AdaptiveVsUniform <= 1 {
				t.Errorf("%s: adaptive_vs_uniform = %.3f, adaptive must beat static-uniform Auto",
					c.Workload, c.AdaptiveVsUniform)
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
	}

	var bench5 []experiments.AdaptRow
	readBench(t, "BENCH_5", "cells", &bench5)
	for _, b5 := range bench5 {
		b8, ok := byName[b5.Workload]
		if !ok {
			t.Errorf("BENCH_5 workload %q absent from BENCH_8 adapt cells", b5.Workload)
			continue
		}
		if !reflect.DeepEqual(b5, b8) {
			t.Errorf("%s: BENCH_8 adapt cell diverges from BENCH_5:\n%+v\nvs\n%+v", b5.Workload, b8, b5)
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
