// Package adapt is the runtime adaptation layer that makes Auto algorithm
// selection self-calibrating: instead of pricing every allreduce with the
// assumed worst-case uniform support model and hand-set α–β network
// constants, it observes the actual input streams and transfers and feeds
// measured quantities back into the cost model.
//
// Three pieces compose:
//
//   - ShapeSketch — a cheap observe-only sketch of each call's input
//     support (k/n EWMA, bucketed index-position histogram → hot-fraction
//     / hot-mass / divergence estimates), updated inline with the call.
//   - LinkCalibrator — an online per-hierarchy-level least-squares fit of
//     the α–β link constants from comm.TraceEvents.
//   - Controller — the per-rank decision wrapper threading both into
//     core.ChooseAutoLevels with hysteresis, so algorithm/depth switches
//     need a sustained, material predicted gain instead of thrashing
//     between adjacent calls.
//
// Determinism and agreement: every rank must hold its own Controller and
// route the same calls through it in the same program order (exactly the
// discipline collectives already require). Local estimates are combined
// with two tiny dense allreduces per decided call — a max for the
// per-rank non-zero count, a sum for the shape and calibration
// statistics — so every rank derives the decision from identical agreed
// inputs and the hysteresis state machines stay in lockstep. No rank ever acts on a neighbor's raw estimate.
package adapt

import (
	"slices"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// Config is empty: the controller has no tunables, and every rank's
// controller behaves identically. The type is kept so that callers which
// build NewController(Config{}) — the wall-clock harness under bench/
// among them — keep compiling.
type Config struct{}

// The controller's constants.
const (
	// clusterThreshold is the agreed mean sketch divergence above which
	// the cost model switches to the clustered support model. Uniform
	// supports measure ≈0.05–0.1 at the sketch's resolution; the
	// clustered test pattern ≈0.6.
	clusterThreshold = 0.25
	// minClusterK is the smallest agreed per-rank non-zero count at which
	// the clustered classification is trusted — below it the histogram is
	// too noisy and the uniform worst case is kept.
	minClusterK = 256
	// switchMargin is the hysteresis band: a candidate must be predicted
	// at least this fraction cheaper than the incumbent choice before a
	// switch is considered.
	switchMargin = 0.10
	// holdCalls is how many consecutive decided calls the candidate must
	// clear the margin before the switch happens. A step change in the
	// workload therefore converges to the new choice within holdCalls
	// decided calls.
	holdCalls = 2
	// minCalibSamples is the per-level transfer count below which the
	// calibrated α–β constants are not used.
	minCalibSamples = 8
)

// Controller is one rank's handle on the adaptation subsystem: an
// AutoAdaptive allreduce that sketches each input, keeps link constants
// calibrated, agrees on the measured scenario with the other ranks, and
// resolves the algorithm and hierarchy depth through the cost model with
// hysteresis. Construct one per rank (NewController, or the facade's
// World.EnableAdaptation) and treat it like a Scratch: owned by that
// rank's goroutine, never shared.
type Controller struct {
	sketch *ShapeSketch
	calib  *LinkCalibrator // nil until Calibrate

	// hold is the blocking path's (Allreduce, Plan) hysteresis state; the
	// bucketed path keeps one per bucket in buckets.
	hold bucketHold

	switches       int
	clusteredCalls int
	lastSupport    core.SupportModel

	buckets        []bucketHold
	bucketSwitches int

	// The agreements' storage, reused call after call: the non-zero count
	// agreement's and the statistics agreement's workspaces, and their
	// local inputs.
	agreeK, agreeSt stream.DenseWorkspace
	ks, local       []float64
}

// bucketHold is one hysteresis state machine: the margin/hold filter every
// decision passes through, kept separately per bucket so a small embedding
// bucket and a large MLP bucket each converge to their own choice without
// resetting the other's pending count.
type bucketHold struct {
	started               bool
	curAlg, pendAlg       core.Algorithm
	curLevels, pendLevels int
	curChunks             int
	pendCount             int
}

// decide filters the cost model's per-bucket candidate through this
// bucket's hysteresis. Algorithm/depth switches need a sustained
// switchMargin-cheaper prediction for holdCalls consecutive decisions
// (incumbent and candidate each priced at their own chunk degree); the
// chunk degree itself follows the model freely — it carries no cross-call
// state, so flapping is harmless and hysteresis would only delay the
// cheaper schedule. All inputs are agreed quantities, so every rank's
// state machines transition identically.
func (h *bucketHold) decide(candAlg core.Algorithm, candLevels, candChunks int, s core.CostScenario, switches *int) (core.Algorithm, int, int, bool, string) {
	if !h.started {
		h.started = true
		h.curAlg, h.curLevels, h.curChunks = candAlg, candLevels, candChunks
		return h.curAlg, h.curLevels, h.curChunks, false, ReasonAdopt
	}
	if candAlg == h.curAlg && candLevels == h.curLevels {
		h.pendCount = 0
		h.curChunks = candChunks
		return h.curAlg, h.curLevels, h.curChunks, false, ReasonKeep
	}
	scCur, scCand := s, s
	scCur.Levels, scCur.Chunks = h.curLevels, h.curChunks
	scCand.Levels, scCand.Chunks = candLevels, candChunks
	tCur := core.PredictSeconds(h.curAlg, scCur)
	tCand := core.PredictSeconds(candAlg, scCand)
	if tCand <= (1-switchMargin)*tCur {
		if candAlg == h.pendAlg && candLevels == h.pendLevels {
			h.pendCount++
		} else {
			h.pendAlg, h.pendLevels, h.pendCount = candAlg, candLevels, 1
		}
		if h.pendCount >= holdCalls {
			h.curAlg, h.curLevels, h.curChunks = candAlg, candLevels, candChunks
			h.pendCount = 0
			*switches++
			return h.curAlg, h.curLevels, h.curChunks, true, ReasonSwitch
		}
		return h.curAlg, h.curLevels, h.curChunks, false, ReasonHold
	}
	h.pendCount = 0
	return h.curAlg, h.curLevels, h.curChunks, false, ReasonMargin
}

// NewController returns a fresh per-rank controller.
func NewController(Config) *Controller {
	return &Controller{sketch: NewShapeSketch()}
}

// Sketch returns the controller's shape sketch (for inspection).
func (a *Controller) Sketch() *ShapeSketch { return a.sketch }

// Calibrator returns the controller's link calibrator, nil until
// Calibrate enables calibration.
func (a *Controller) Calibrator() *LinkCalibrator { return a.calib }

// Choice returns the current algorithm/depth the blocking path (Allreduce,
// Plan) is holding, meaningful after the first Allreduce. PlanBuckets'
// per-bucket choices are on the obs timeline's adapt:decision instants.
func (a *Controller) Choice() (core.Algorithm, int) { return a.hold.curAlg, a.hold.curLevels }

// Switches returns how many times the held algorithm/depth changed after
// the initial adoption — the quantity the hysteresis tests bound.
func (a *Controller) Switches() int { return a.switches }

// ClusteredCalls returns how many decided calls selected the clustered
// support model.
func (a *Controller) ClusteredCalls() int { return a.clusteredCalls }

// Support returns the support model the last decision used.
func (a *Controller) Support() core.SupportModel { return a.lastSupport }

// Allreduce performs a sparse allreduce of v with the adaptive decision
// layer in front: the call is sketched, the measured scenario is agreed
// across ranks, core.ChooseAutoLevels picks algorithm and depth from it,
// hysteresis filters the pick, and the concrete algorithm runs. Semantics
// (result values, bit-exactness guarantees) are those of core.Allreduce
// for whichever algorithm runs — adaptation is observe-and-choose only.
//
// If opts pins a concrete algorithm (opts.Algorithm != Auto) the call is
// passed through unchanged, though still observed, so a mixed workload
// keeps the sketch warm.
func (a *Controller) Allreduce(p *comm.Proc, v *stream.Vector, opts core.Options) *stream.Vector {
	return core.Allreduce(p, v, a.Plan(p, v, opts))
}

// Plan makes Allreduce's decision for v without running the collective:
// v is sketched, the measured scenario is agreed across ranks,
// core.ChooseAutoLevels picks algorithm and depth from it, and the
// blocking path's hysteresis filters the pick. The returned Options
// (Algorithm pinned, support model filled) run the call. Like Allreduce,
// every rank must call Plan in the same program order; a non-Auto opts
// passes through unchanged (v still sketched).
func (a *Controller) Plan(p *comm.Proc, v *stream.Vector, opts core.Options) core.Options {
	a.sketch.Observe(v)
	if opts.Algorithm != core.Auto {
		return opts
	}
	// The fits are read before the agreement collectives, so a decision
	// prices with the sends made before it, never with its own.
	links := a.calib.snapshot()
	s := a.agreeScenario(p, v, opts, links)
	candAlg, candLevels, _ := core.ChooseAutoLevels(s)
	// This path does not own the chunk degree (opts.Chunks passes through),
	// so incumbent and candidate are both priced at this call's.
	a.hold.curChunks = s.Chunks
	alg, levels, _, switched, reason := a.hold.decide(candAlg, candLevels, s.Chunks, s, &a.switches)
	recordDecision(p, decisionEvent{Bucket: -1,
		Algorithm: alg, Levels: levels, Support: s.Support,
		PredictedSeconds: predictFor(alg, levels, 0, s),
		Switched:         switched, Reason: reason})
	opts.Algorithm, opts.Levels = alg, levels
	opts.Support, opts.HotFraction, opts.HotMass = s.Support, s.HotFraction, s.HotMass
	return opts
}

// PlanBuckets makes one adaptive decision per fused bucket for a bucketed
// training step: every layer contribution is sketched, the per-bucket
// fused non-zero counts are agreed in a single max-allreduce (bucket
// supports are disjoint, so the fused count is the sum of the bucket's
// layer counts), the shape/calibration statistics in a single
// sum-allreduce, and each bucket's scenario is resolved through
// core.ChooseAutoLevels with the chunk search enabled (core.AutoChunks)
// and filtered by that bucket's own hysteresis state. The returned slice
// has one Options per scheduler bucket, Algorithm pinned, ready for
// BucketScheduler.Issue. Like Plan, every rank must call PlanBuckets with
// the same scheduler composition and inputs in the same program order; a
// non-Auto opts is replicated unchanged (inputs still sketched), with only
// the chunk degree resolved when it asks for core.AutoChunks.
func (a *Controller) PlanBuckets(p *comm.Proc, sched *core.BucketScheduler, contribs []*stream.Vector, opts core.Options) []core.Options {
	return a.PlanBucketsInto(p, sched, contribs, opts, nil)
}

// PlanBucketsInto is PlanBuckets with the decisions written into dst's
// storage when it holds NumBuckets of them, so a caller that plans every
// step keeps one slice.
func (a *Controller) PlanBucketsInto(p *comm.Proc, sched *core.BucketScheduler, contribs []*stream.Vector, opts core.Options, dst []core.Options) []core.Options {
	for _, v := range contribs {
		a.sketch.Observe(v)
	}
	B := sched.NumBuckets()
	out := slices.Grow(dst[:0], B)[:B]
	for b := range out {
		out[b] = opts
	}
	if B == 0 || len(contribs) == 0 {
		return out
	}
	if opts.Algorithm != core.Auto && opts.Chunks != core.AutoChunks {
		return out
	}
	links := a.calib.snapshot() // before the agreements, as in Plan
	a.ks = slices.Grow(a.ks[:0], B)[:B]
	for b := range a.ks {
		n := 0
		for _, li := range sched.Layers(b) {
			n += contribs[li].NNZ()
		}
		a.ks[b] = float64(n)
	}
	agreedK := a.agreeMax(p, a.ks)
	agreed := a.agreeStats(p, links)
	if len(a.buckets) != B {
		a.buckets = make([]bucketHold, B)
	}
	rep := contribs[0] // dimension/wire settings; every contribution shares them
	for b := range out {
		s := a.scenarioFromAgreed(p, rep, opts, agreedK[b], agreed)
		s.Chunks = core.AutoChunks
		candAlg, candLevels, candChunks := core.ChooseAutoLevels(s)
		if opts.Algorithm != core.Auto {
			// Pinned algorithm: only the chunk degree is adaptive.
			out[b].Chunks = core.ChooseChunks(opts.Algorithm, s)
			continue
		}
		alg, levels, chunks, switched, reason := a.buckets[b].decide(candAlg, candLevels, candChunks, s, &a.bucketSwitches)
		recordDecision(p, decisionEvent{Bucket: b,
			Algorithm: alg, Levels: levels, Chunks: chunks, Support: s.Support,
			PredictedSeconds: predictFor(alg, levels, chunks, s),
			Switched:         switched, Reason: reason})
		out[b].Algorithm, out[b].Levels, out[b].Chunks = alg, levels, chunks
		out[b].Support, out[b].HotFraction, out[b].HotMass = s.Support, s.HotFraction, s.HotMass
	}
	return out
}

// BucketSwitches returns how many per-bucket algorithm/depth switches
// happened after each bucket's initial adoption — the bucketed
// counterpart of Switches.
func (a *Controller) BucketSwitches() int { return a.bucketSwitches }

// agreeScenario builds the measured cost scenario every rank agrees on:
// the globally maximal per-rank non-zero count (one max-allreduce, as
// core's static Auto performs), plus the mean sketch shape and the mean
// fitted link constants (one sum-allreduce), substituted into
// core.ScenarioFor's scenario. links is the calibrator snapshot the
// decision prices with.
func (a *Controller) agreeScenario(p *comm.Proc, v *stream.Vector, opts core.Options, links []linkFit) core.CostScenario {
	a.ks = append(a.ks[:0], float64(v.NNZ()))
	kmax := a.agreeMax(p, a.ks)[0]
	return a.scenarioFromAgreed(p, v, opts, kmax, a.agreeStats(p, links))
}

// agreeMax is the max-allreduce agreeing on per-rank non-zero counts, on
// the controller's workspace: the result is valid until the next call.
func (a *Controller) agreeMax(p *comm.Proc, ks []float64) []float64 {
	return core.AllreduceDenseRecDoubleInto(p, ks, stream.OpMax, stream.DefaultValueBytes, p.NextTagBase(), &a.agreeK)
}

// agreeStats runs the one sum-allreduce agreeing on the sketch shape and
// calibration statistics — the K-independent half of agreeScenario, shared
// with the per-bucket path, which agrees on all bucket counts in a single
// separate collective. Returns the agreed sums, laid out per level of the
// communicator's hierarchy. A level contributes its fit from links only
// when usable over at least minCalibSamples transfers.
func (a *Controller) agreeStats(p *comm.Proc, links []linkFit) []float64 {
	depth := p.Hierarchy().Depth()
	st := a.sketch.Stats()
	// Layout: [hotFrac, hotMass, div, then per level: okFlag, alpha, beta].
	local := slices.Grow(a.local[:0], 3+3*depth)[:3+3*depth]
	clear(local)
	a.local = local
	local[0], local[1], local[2] = st.HotFraction, st.HotMass, st.Divergence
	for l := 0; l < depth && l < len(links); l++ {
		if alpha, beta, ok := links[l].fit(); ok && int(links[l].n) >= minCalibSamples {
			local[3+3*l] = 1
			local[4+3*l] = alpha
			local[5+3*l] = beta
		}
	}
	return core.AllreduceDenseRecDoubleInto(p, local, stream.OpSum, stream.DefaultValueBytes, p.NextTagBase(), &a.agreeSt)
}

// scenarioFromAgreed substitutes the agreed statistics into the scenario
// for one collective of agreed non-zero count kmax: support model from the
// mean sketch shape, link constants from the mean usable fits. Pure local
// arithmetic on agreed inputs (no collectives), so it can be applied once
// per bucket after a single agreement round.
func (a *Controller) scenarioFromAgreed(p *comm.Proc, v *stream.Vector, opts core.Options, kmax float64, agreed []float64) core.CostScenario {
	P := float64(p.Size())
	s := core.ScenarioFor(p, v, opts, int(kmax))
	depth := s.Hier.Depth()

	// Support model: agreed mean divergence above the threshold selects
	// the clustered closed form, parameterized by the agreed mean hot
	// shape. Low-sample calls keep the uniform worst case.
	avgDiv := agreed[2] / P
	if avgDiv >= clusterThreshold && int(kmax) >= minClusterK {
		s.Support = core.SupportClustered
		s.HotFraction = clamp(agreed[0]/P, 1.0/sketchBuckets, 1)
		s.HotMass = clamp(agreed[1]/P, 0, 0.999)
		a.clusteredCalls++
	} else {
		s.Support = core.SupportUniform
		s.HotFraction, s.HotMass = 0, 0
	}
	a.lastSupport = s.Support

	// Link constants: for each level where at least one rank has a usable
	// fit, replace the hand-set α–β with the mean fitted values. The
	// hierarchy is copied before any substitution — the world's own must
	// never be mutated.
	copied := false
	for l := 0; l < depth; l++ {
		okCnt := agreed[3+3*l]
		if okCnt < 1 {
			continue
		}
		alpha, beta := agreed[4+3*l]/okCnt, agreed[5+3*l]/okCnt
		if !copied {
			s.Hier = &simnet.Hierarchy{Levels: append([]simnet.Level(nil), s.Hier.Levels...)}
			copied = true
		}
		s.Hier.Levels[l].Profile = calibrated(s.Hier.Levels[l].Profile, alpha, beta)
		if l == depth-1 {
			s.Profile = calibrated(s.Profile, alpha, beta)
		}
	}
	return s
}

// calibrated returns base with measured message constants substituted
// (software terms folded into them) and compute terms kept.
func calibrated(base simnet.Profile, alpha, beta float64) simnet.Profile {
	base.Alpha = alpha
	base.BetaPerByte = beta
	base.SoftwareOverhead = 0
	base.SoftwarePerByte = 0
	return base
}

// clamp bounds x to [lo, hi].
func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
