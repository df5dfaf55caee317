package adapt

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/simnet"
)

// TestDecisionHistoryStructure drives a drifting workload (uniform →
// clustered) and checks the structured history: one event per decided
// call, reasons drawn from the Reason* constants, the first event an
// adoption, Switched events matching Switches(), and predictions
// populated.
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
	ctrls, _ := runAdaptive(t, w, Config{}, sched)

	for r, c := range ctrls {
		events := c.Decisions()
		if len(events) != calls {
			t.Fatalf("rank %d: %d events, want %d", r, len(events), calls)
		}
		switched := 0
		for i, e := range events {
			if e.Call != i {
				t.Fatalf("rank %d event %d: Call=%d", r, i, e.Call)
			}
			if e.Bucket != -1 {
				t.Fatalf("whole-call decision carries bucket %d", e.Bucket)
			}
			if e.PredictedSeconds <= 0 {
				t.Fatalf("event %d: non-positive prediction %g", i, e.PredictedSeconds)
			}
			switch e.Reason {
			case ReasonAdopt, ReasonKeep, ReasonHold, ReasonSwitch, ReasonMargin:
			default:
				t.Fatalf("event %d: unknown reason %q", i, e.Reason)
			}
			if (e.Reason == ReasonSwitch) != e.Switched {
				t.Fatalf("event %d: reason %q vs Switched=%v", i, e.Reason, e.Switched)
			}
			if e.Switched {
				switched++
			}
		}
		if events[0].Reason != ReasonAdopt {
			t.Fatalf("first event reason = %q, want adopt", events[0].Reason)
		}
		if switched != c.Switches() {
			t.Fatalf("rank %d: %d Switched events vs Switches()=%d", r, switched, c.Switches())
		}
		// Ranks decide in lockstep: every history must match rank 0's.
		for i, e := range events {
			if e != ctrls[0].Decisions()[i] {
				t.Fatalf("rank %d event %d diverges from rank 0: %+v", r, i, e)
			}
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
			var alg, reason bool
			for _, a := range s.Attrs {
				switch a.Key {
				case "alg":
					alg = a.Value != ""
				case "reason":
					reason = a.Value != ""
				}
			}
			if !alg || !reason {
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
