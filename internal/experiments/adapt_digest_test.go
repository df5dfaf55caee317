package experiments

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/pin"
	"repro/internal/scenario"
)

// TestAdaptDecisionDigests pins every library cell's row and adaptive
// decisions (the memoised observed run libraryCells keeps, the one
// BENCH_8's adapt_cells read). Per cell, experiments/adapt-row/<cell> is
// the SHA-256 over the row's JSON encoding; it was recorded from an
// unobserved run, so it also holds an observed run to the same row.
// experiments/adapt-decision/<cell> is the SHA-256 over each
// "adapt:decision" instant's rank, per-rank order and every attr.
// predicted_s is printed at full precision and priced on the agreed
// calibrated α–β, so a change in which sends the link calibrators fold,
// or in what order, moves a digest even where it moves no choice.
// Recorded when the hierarchical algorithms became depths of the flat
// ones: against the previous digests every decision kept its depth,
// support model and reason, the algorithm was renamed at the same depth
// (the sparse one by core.AutoSSARAtDepth), and predicted_s moved in its
// last digits (relative 7e-13 at most) only because the leaders' size
// agreement no longer sends messages for the calibrators to fold.
func TestAdaptDecisionDigests(t *testing.T) {
	pin.Prefix(t, "experiments/adapt-row")
	pin.Prefix(t, "experiments/adapt-decision")
	for _, name := range scenario.Names() {
		sc, err := scenario.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cell := libraryCells[name]()
		h := pin.New()
		json.NewEncoder(h).Encode(cell.row)
		pin.Check(t, "experiments/adapt-row/"+name, h)

		h = pin.New()
		order := map[int]int{}
		for _, s := range cell.decisions {
			fmt.Fprintf(h, "%d %d", s.Rank, order[s.Rank])
			order[s.Rank]++
			for _, a := range s.Attrs {
				fmt.Fprintf(h, " %s=%s", a.Key, a.Value)
			}
			h.Write([]byte{'\n'})
		}
		if len(order) != sc.P {
			t.Errorf("%s: decisions on %d ranks, want %d", name, len(order), sc.P)
		}
		pin.Check(t, "experiments/adapt-decision/"+name, h)
	}
}
