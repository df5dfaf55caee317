package train

import (
	"strconv"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
)

// TestTrainStepSpans: with observability enabled, every rank's timeline
// carries one "train:step" span per optimizer step with epoch/step
// attributes in step order, and the loss gauge is populated.
func TestTrainStepSpans(t *testing.T) {
	P := 4
	w := comm.NewWorld(P, testNet)
	hub := w.EnableObservability()
	cfg := Config{
		Method: MethodTopK, LR: 0.05 / 4, BatchPerNode: 32,
		Epochs: 2, StepsPerEpoch: 3,
		Bucket: 512, K: 16, Algorithm: core.SSARRecDouble, Seed: 1,
	}
	comm.Run(w, func(p *comm.Proc) []Point {
		return Run(p, denseBlobTask(p.Rank(), P), cfg)
	})

	steps := map[int][]string{}
	for _, s := range hub.Spans() {
		if s.Name != "train:step" {
			continue
		}
		if s.End < s.Start {
			t.Fatalf("negative step span: %+v", s)
		}
		steps[s.Rank] = append(steps[s.Rank], s.Attr("step"))
	}
	for r := 0; r < P; r++ {
		if len(steps[r]) != cfg.Epochs*cfg.StepsPerEpoch {
			t.Fatalf("rank %d: %d step spans, want %d", r, len(steps[r]), cfg.Epochs*cfg.StepsPerEpoch)
		}
		for i, got := range steps[r] {
			if want := strconv.Itoa(i); got != want {
				t.Fatalf("rank %d span %d: step attr %q, want %q", r, i, got, want)
			}
		}
	}
	if hub.Metrics().Gauge("train.loss").Value() <= 0 {
		t.Fatal("train.loss gauge not set")
	}
}
