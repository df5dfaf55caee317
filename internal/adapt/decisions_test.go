package adapt

import (
	"reflect"
	"strconv"
	"testing"

	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// TestDecisionHistoryStructure drives a drifting workload (uniform →
// clustered) and checks the decision record the obs instants carry: one
// "adapt:decision" per decided call, reasons drawn from the Reason*
// constants, the first an adoption, switch reasons matching Switches(),
// predictions populated, and every rank's record equal to rank 0's.
func TestDecisionHistoryStructure(t *testing.T) {
	P, n := 8, 1<<16
	calls := 10
	sched := scheduleOf(47, n, P, calls,
		func(int) int { return 3000 },
		func(c int) string {
			if c < 4 {
				return "uniform"
			}
			return "clustered"
		})
	w := comm.NewWorldHier(P, simnet.TwoLevel(4, simnet.NVLinkLike, simnet.Aries, 0))
	hub := w.EnableObservability()
	ctrls, _ := runAdaptive(t, w, Config{}, sched)

	byRank := map[int][]obs.Span{}
	for _, s := range hub.Spans() {
		if s.Name == "adapt:decision" {
			byRank[s.Rank] = append(byRank[s.Rank], s)
		}
	}
	for r, c := range ctrls {
		events := byRank[r]
		if len(events) != calls {
			t.Fatalf("rank %d: %d decisions, want %d", r, len(events), calls)
		}
		switched := 0
		for i, e := range events {
			if b := e.Attr("bucket"); b != "" {
				t.Fatalf("whole-call decision carries bucket %s", b)
			}
			if pred, err := strconv.ParseFloat(e.Attr("predicted_s"), 64); err != nil || pred <= 0 {
				t.Fatalf("decision %d: prediction %q", i, e.Attr("predicted_s"))
			}
			reason := e.Attr("reason")
			switch reason {
			case ReasonAdopt, ReasonKeep, ReasonHold, ReasonSwitch, ReasonMargin:
			default:
				t.Fatalf("decision %d: unknown reason %q", i, reason)
			}
			if (i == 0) != (reason == ReasonAdopt) {
				t.Fatalf("decision %d: reason %q, want adopt first and only first", i, reason)
			}
			if reason == ReasonSwitch {
				switched++
			}
			// Ranks decide in lockstep: every record must match rank 0's.
			if !reflect.DeepEqual(e.Attrs, byRank[0][i].Attrs) {
				t.Fatalf("rank %d decision %d diverges from rank 0: %+v", r, i, e.Attrs)
			}
		}
		if switched != c.Switches() {
			t.Fatalf("rank %d: %d switch decisions vs Switches()=%d", r, switched, c.Switches())
		}
	}
}

// TestDecisionEventsReachObs checks the obs consumption: with
// observability enabled, every decision lands as an "adapt:decision"
// instant on the deciding rank's track and the decision counters add up.
func TestDecisionEventsReachObs(t *testing.T) {
	P, n := 4, 1<<14
	calls := 5
	sched := scheduleOf(11, n, P, calls,
		func(int) int { return 800 },
		func(int) string { return "uniform" })
	w := comm.NewWorld(P, simnet.Aries)
	hub := w.EnableObservability()
	ctrls, _ := runAdaptive(t, w, Config{}, sched)

	instants := map[int]int{}
	for _, s := range hub.Spans() {
		if s.Name == "adapt:decision" {
			if !s.Instant {
				t.Fatal("adapt:decision must be an instant")
			}
			instants[s.Rank]++
			if s.Attr("alg") == "" || s.Attr("reason") == "" {
				t.Fatalf("decision instant missing attrs: %+v", s.Attrs)
			}
		}
	}
	for r := 0; r < P; r++ {
		if instants[r] != calls {
			t.Fatalf("rank %d: %d decision instants, want %d", r, instants[r], calls)
		}
	}
	if got := hub.Metrics().Counter("adapt.decisions").Value(); got != int64(P*calls) {
		t.Fatalf("adapt.decisions = %d, want %d", got, P*calls)
	}
	var switches int
	for _, c := range ctrls {
		switches += c.Switches()
	}
	if got := hub.Metrics().Counter("adapt.switches").Value(); got != int64(switches) {
		t.Fatalf("adapt.switches = %d, want %d", got, switches)
	}
}
