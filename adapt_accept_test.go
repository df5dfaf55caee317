package sparcml

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"

	"repro/internal/experiments"
	"repro/internal/report"
)

// readBench decodes one section of a committed BENCH document through
// report.Document — the type sparbench wrote it with — into rows, a pointer
// to a slice of the section's row struct.
func readBench(t *testing.T, id, section string, rows any) {
	t.Helper()
	raw, err := os.ReadFile(id + ".json")
	if err != nil {
		t.Fatalf("read %s.json: %v", id, err)
	}
	var doc report.Document
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("parse %s.json: %v", id, err)
	}
	if doc.ID != id {
		t.Fatalf("%s.json: unexpected document id %q", id, doc.ID)
	}
	if err := doc.Rows(section, rows); err != nil {
		t.Fatalf("%s.json: %v", id, err)
	}
}

// TestBench5AcceptanceCriteria validates the PR-5 acceptance invariants
// on the committed BENCH_5.json (scripts/ci.sh regenerates the file and
// hard-fails on drift, so the committed cells always reflect the current
// code): the adaptive controller beats the default uniform-static Auto on
// the clustered and drifting workloads, never loses to it by more than
// agreement-overhead noise on stationary uniform ones, and stays within
// that noise of (or beats) the better static arm on the drifting cells.
// The noise bound is 3%: the measured overhead of the two tiny per-call
// agreement allreduces is ~0.7–1.1% on these cells.
func TestBench5AcceptanceCriteria(t *testing.T) {
	var cells []experiments.AdaptRow
	readBench(t, "BENCH_5", "cells", &cells)
	const noise = 0.03
	byName := map[string]experiments.AdaptRow{}
	for _, c := range cells {
		byName[c.Workload] = c
	}
	for _, want := range []string{"uniform", "clustered", "drift-cluster", "drift-shift"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("BENCH_5.json is missing the %q workload", want)
		}
	}
	for _, c := range cells {
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
		}
		if c.Workload == "drift-cluster" || c.Workload == "drift-shift" {
			if c.AdaptiveVsBestStatic < 1-noise {
				t.Errorf("%s: adaptive_vs_best_static = %.3f, must be >= best static within noise",
					c.Workload, c.AdaptiveVsBestStatic)
			}
		}
	}
}

// TestFacadeAdaptive exercises the public adaptation surface end to end:
// EnableAdaptation + Adapt + AllreduceAdaptive across repeated Run calls,
// with correctness against the plain static path.
func TestFacadeAdaptive(t *testing.T) {
	const n, P, k = 1 << 14, 8, 400
	w := NewWorldHier(P, TwoLevel(4, NVLinkLike, Aries, 1))
	w.EnableAdaptation()
	rng := rand.New(rand.NewSource(61))
	mkInputs := func() []*Vector {
		out := make([]*Vector, P)
		for r := range out {
			seen := map[int32]bool{}
			idx := make([]int32, 0, k)
			val := make([]float64, 0, k)
			for len(idx) < k {
				ix := int32(rng.Intn(n))
				if seen[ix] {
					continue
				}
				seen[ix] = true
				idx = append(idx, ix)
				val = append(val, float64(rng.Intn(7))-3)
			}
			out[r] = NewSparse(n, idx, val)
		}
		return out
	}
	for round := 0; round < 3; round++ {
		inputs := mkInputs()
		results := Run(w, func(c *Comm) *Vector {
			return c.AllreduceAdaptive(inputs[c.Rank()], w.Adapt(c.Rank()), Options{})
		})
		want := inputs[0].Clone()
		for _, v := range inputs[1:] {
			want.Add(v)
		}
		for r, got := range results {
			if !got.Equal(want) {
				t.Fatalf("round %d rank %d: adaptive result differs from reference", round, r)
			}
		}
	}
	alg, _ := w.Adapt(0).Choice()
	if alg == Auto {
		t.Fatal("controller should hold a concrete algorithm after warm-up")
	}
	if w.Adapt(0).Calibrator().Samples(0) == 0 {
		t.Fatal("calibration should have folded the sends")
	}
}

// TestFacadeAdaptRequiresEnable pins the explicit-initialization contract.
func TestFacadeAdaptRequiresEnable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Adapt before EnableAdaptation must panic")
		}
	}()
	NewWorld(2, Aries).Adapt(0)
}
