package sparcml

import (
	"testing"

	"repro/internal/experiments"
)

// TestBench7AcceptanceCriteria validates the PR-8 acceptance invariants
// on the committed BENCH_7.json (scripts/ci.sh regenerates the file and
// hard-fails on drift, so the committed cells always reflect the current
// code): on both layered workload profiles the bucket-fusion scheduler
// beats the naive blocking per-layer loop AND the monolithic fused
// exchange in simulated virtual time.
func TestBench7AcceptanceCriteria(t *testing.T) {
	var cells []experiments.OverlapRow
	readBench(t, "BENCH_7", "cells", &cells)
	if len(cells) < 2 {
		t.Fatalf("BENCH_7.json has %d workload cells, want >= 2", len(cells))
	}
	seen := map[string]bool{}
	for _, c := range cells {
		seen[c.Workload] = true
		if c.Buckets < 2 {
			t.Errorf("%s: %d buckets — the sizing rule should split these models, or the ablation degenerates to fused-vs-layerwise", c.Workload, c.Buckets)
		}
		if c.BucketedVsLayerwise <= 1 {
			t.Errorf("%s: bucketed_vs_layerwise = %.3f, want > 1 (the headline: bucketed overlap beats the per-layer loop)",
				c.Workload, c.BucketedVsLayerwise)
		}
		if c.BucketedVsFused <= 1 {
			t.Errorf("%s: bucketed_vs_fused = %.3f, want > 1", c.Workload, c.BucketedVsFused)
		}
	}
	for _, want := range []string{"lstm-1m", "transformer-1m"} {
		if !seen[want] {
			t.Fatalf("BENCH_7.json is missing the %q workload", want)
		}
	}
}

// TestBench7PipelineModelBand pins the documented error band of the cost
// model's chunked-pipelining term: across Chunks in {1,2,4,8} the model's
// prediction stays within 5% of simulation on the committed validation
// cells (recorded ratios sit in [0.976, 1.002]).
func TestBench7PipelineModelBand(t *testing.T) {
	var pipeModel []experiments.PipeModelRow
	readBench(t, "BENCH_7", "pipeline_model_cells", &pipeModel)
	if len(pipeModel) < 4 {
		t.Fatalf("BENCH_7.json has %d pipeline model cells, want >= 4", len(pipeModel))
	}
	chunks := map[int]bool{}
	for _, c := range pipeModel {
		chunks[c.Chunks] = true
		if c.ModelOverSim < 0.95 || c.ModelOverSim > 1.05 {
			t.Errorf("chunks=%d: model_over_sim = %.4f, outside the documented [0.95, 1.05] band",
				c.Chunks, c.ModelOverSim)
		}
	}
	for _, want := range []int{1, 2, 4, 8} {
		if !chunks[want] {
			t.Fatalf("BENCH_7.json pipeline model cells are missing chunks=%d", want)
		}
	}
}
