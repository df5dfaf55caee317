package adapt

import (
	"strconv"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/obs"
)

// Decision reasons, the reason attr of every adapt:decision instant: why
// the hysteresis state machine produced the choice it did.
const (
	// ReasonAdopt is the first decision: the candidate is adopted
	// unconditionally.
	ReasonAdopt = "adopt"
	// ReasonKeep means the cost model's candidate equals the incumbent.
	ReasonKeep = "keep"
	// ReasonHold means the candidate cleared the switch margin but has
	// not sustained it for HoldCalls decisions yet; the incumbent runs.
	ReasonHold = "hold"
	// ReasonSwitch means the margin was sustained: the incumbent was
	// replaced by the candidate this decision.
	ReasonSwitch = "switch"
	// ReasonMargin means the candidate differs but is not predicted
	// SwitchMargin cheaper; the incumbent is kept and any pending switch
	// resets.
	ReasonMargin = "margin"
)

// decisionEvent is one adaptive decision: what ran, what the model
// predicted for it, and why the hysteresis resolved that way. The obs
// layer's "adapt:decision" instants on the deciding rank's timeline are
// its only record.
type decisionEvent struct {
	// Bucket is the scheduler bucket the decision was for, or -1 for a
	// whole-call decision (Allreduce, Plan).
	Bucket int
	// Algorithm and Levels are the choice that ran.
	Algorithm core.Algorithm
	// Levels is the hierarchy depth of the choice.
	Levels int
	// Chunks is the resolved pipeline chunk degree (bucketed path only;
	// 0 when the path does not resolve chunks).
	Chunks int
	// Support is the support model the decision was priced with.
	Support core.SupportModel
	// PredictedSeconds is the cost model's prediction for the choice
	// that ran, under the agreed scenario.
	PredictedSeconds float64
	// Switched reports whether this decision replaced the incumbent.
	Switched bool
	// Reason is one of the Reason* constants.
	Reason string
}

// recordDecision emits e, when the world is observed, as an
// "adapt:decision" instant with the decision counters bumped.
func recordDecision(p *comm.Proc, e decisionEvent) {
	o := p.Obs()
	if o == nil {
		return
	}
	rank := p.WorldRank()
	reg := o.Metrics()
	reg.Counter("adapt.decisions").Inc(rank)
	if e.Switched {
		reg.Counter("adapt.switches").Inc(rank)
	}
	support := "uniform"
	if e.Support == core.SupportClustered {
		support = "clustered"
	}
	attrs := []obs.Attr{
		{Key: "alg", Value: e.Algorithm.String()},
		{Key: "levels", Value: strconv.Itoa(e.Levels)},
		{Key: "support", Value: support},
		{Key: "predicted_s", Value: strconv.FormatFloat(e.PredictedSeconds, 'g', -1, 64)},
		{Key: "reason", Value: e.Reason},
	}
	if e.Bucket >= 0 {
		attrs = append(attrs,
			obs.Attr{Key: "bucket", Value: strconv.Itoa(e.Bucket)},
			obs.Attr{Key: "chunks", Value: strconv.Itoa(e.Chunks)})
	}
	o.Instant("adapt:decision", p.Now(), attrs...)
}

// predictFor prices the decided choice under the agreed scenario — the
// number a decisionEvent carries as PredictedSeconds.
func predictFor(alg core.Algorithm, levels, chunks int, s core.CostScenario) float64 {
	s.Levels = levels
	if chunks != 0 {
		s.Chunks = chunks
	}
	return core.PredictSeconds(alg, s)
}
