package experiments

import (
	"fmt"
	"testing"

	"repro/internal/pin"
	"repro/internal/scenario"
)

// TestAdaptDecisionDigests pins every adaptive decision of the library
// cells (the four BENCH_5 cells among them, on the BENCH_5 machine shape
// and key): per cell, the ledger entry experiments/adapt-decision/<cell>
// is the SHA-256 over each "adapt:decision" instant's rank, per-rank order
// and every attr. predicted_s is printed at full precision and priced on
// the agreed calibrated α–β, so a change in which sends the link
// calibrators fold, or in what order, moves a digest even where it moves
// no choice. Recorded when the hierarchical algorithms became depths of
// the flat ones: against the previous digests every decision kept its
// depth, support model and reason, the algorithm was renamed at the same
// depth (the sparse one by core.AutoSSARAtDepth), and predicted_s moved in
// its last digits (relative 7e-13 at most) only because the leaders' size
// agreement no longer sends messages for the calibrators to fold.
func TestAdaptDecisionDigests(t *testing.T) {
	key := scenario.NewKey(AdaptSeed)
	pin.Prefix(t, "experiments/adapt-decision")
	for _, name := range scenario.Names() {
		sc, err := scenario.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		_, hub := RunAdaptCell(4, 1, scenario.Record(sc, key), true)
		h := pin.New()
		order := map[int]int{}
		for _, s := range hub.Spans() {
			if s.Name != "adapt:decision" {
				continue
			}
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
