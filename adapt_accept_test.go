package sparcml

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"

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
