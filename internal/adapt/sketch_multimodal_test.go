package adapt

import (
	"math"
	"testing"

	"repro/internal/scenario"
)

// Multi-modal coverage for the sketch's hot-set decomposition: because
// decompose sorts buckets by occupancy before taking the maximizing
// prefix, several disjoint hot blocks must aggregate into one
// (hotFraction, hotMass) estimate — total width and total mass — even
// though the blocks are far apart in index space. This closes the
// single-block gap of the original sketch tests.

// multiModalCase is one scenario plus the shape its sketch must recover.
type multiModalCase struct {
	name    string
	blocks  []scenario.Block
	hotMass float64
}

// expectedShape returns the aggregate (width, in-block mass) the sketch
// should see: ΣFrac and hotMass plus the uniform spill landing inside the
// blocks.
func (c multiModalCase) expectedShape() (frac, mass float64) {
	for _, b := range c.blocks {
		frac += b.Frac
	}
	return frac, c.hotMass + (1-c.hotMass)*frac
}

func TestSketchMultiModal(t *testing.T) {
	// Block edges sit on 1/64 bucket boundaries so quantization error
	// stays inside the ±0.05 / ±0.10 acceptance bands.
	cases := []multiModalCase{
		{
			name: "two-blocks",
			blocks: []scenario.Block{
				{Start: 8.0 / 64, Frac: 2.0 / 64, Weight: 0.5},
				{Start: 40.0 / 64, Frac: 2.0 / 64, Weight: 0.5},
			},
			hotMass: 0.8,
		},
		{
			name: "three-blocks",
			blocks: []scenario.Block{
				{Start: 4.0 / 64, Frac: 2.0 / 64, Weight: 0.5},
				{Start: 28.0 / 64, Frac: 2.0 / 64, Weight: 0.3},
				{Start: 52.0 / 64, Frac: 1.0 / 64, Weight: 0.2},
			},
			hotMass: 0.75,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc := scenario.Scenario{
				Name: "sketch-" + c.name, N: 1 << 16, P: 1, Calls: 8,
				Density: scenario.Const(0.02),
				Blocks:  c.blocks,
				HotMass: scenario.Const(c.hotMass),
			}
			s := NewShapeSketch()
			g := sc.Generator(scenario.NewKey(3))
			for vs := g.Next(); vs != nil; vs = g.Next() {
				s.Observe(vs[0])
			}
			st := s.Stats()
			wantFrac, wantMass := c.expectedShape()
			if math.Abs(st.HotFraction-wantFrac) > 0.05 {
				t.Errorf("hot fraction %.3f, want %.3f +-0.05", st.HotFraction, wantFrac)
			}
			if math.Abs(st.HotMass-wantMass) > 0.10 {
				t.Errorf("hot mass %.3f, want %.3f +-0.10", st.HotMass, wantMass)
			}
			if st.Divergence < 0.5 {
				t.Errorf("divergence %.3f: a strongly multi-modal support must read far from uniform", st.Divergence)
			}
		})
	}
}

// TestSketchMultiModalVsSingleBlock pins the aggregation property
// directly: moving half a block's mass to a distant block must leave the
// sketch's width and mass estimates nearly unchanged (the decomposition
// is permutation-invariant in bucket positions).
func TestSketchMultiModalVsSingleBlock(t *testing.T) {
	run := func(name string, blocks []scenario.Block) SketchStats {
		sc := scenario.Scenario{
			Name: name, N: 1 << 16, P: 1, Calls: 8,
			Density: scenario.Const(0.02),
			Blocks:  blocks,
			HotMass: scenario.Const(0.8),
		}
		s := NewShapeSketch()
		g := sc.Generator(scenario.NewKey(5))
		for vs := g.Next(); vs != nil; vs = g.Next() {
			s.Observe(vs[0])
		}
		return s.Stats()
	}
	single := run("agg-single", []scenario.Block{{Start: 0, Frac: 4.0 / 64, Weight: 1}})
	split := run("agg-split", []scenario.Block{
		{Start: 0, Frac: 2.0 / 64, Weight: 0.5},
		{Start: 48.0 / 64, Frac: 2.0 / 64, Weight: 0.5},
	})
	if math.Abs(single.HotFraction-split.HotFraction) > 0.02 {
		t.Errorf("splitting the block moved hot fraction: %.3f vs %.3f", single.HotFraction, split.HotFraction)
	}
	if math.Abs(single.HotMass-split.HotMass) > 0.05 {
		t.Errorf("splitting the block moved hot mass: %.3f vs %.3f", single.HotMass, split.HotMass)
	}
}
