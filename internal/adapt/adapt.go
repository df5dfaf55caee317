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
// Determinism and agreement: every rank must hold its own Controller, all
// constructed with the same Config, and route the same calls through them
// in the same program order (exactly the discipline collectives already
// require). Local estimates are combined with two tiny dense allreduces
// per decided call — a max for the per-rank non-zero count, a sum for the
// shape and calibration statistics — so every rank derives the decision
// from identical agreed inputs and the hysteresis state machines stay in
// lockstep. No rank ever acts on a neighbor's raw estimate.
package adapt

import (
	"slices"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// Config tunes a Controller. The zero value selects all defaults; every
// rank of a world must use an identical Config.
type Config struct {
	// Decay is the sketch EWMA weight of a new observation (default
	// DefaultDecay).
	Decay float64
	// MaxSamples caps the indices one sketch observation inspects
	// (default DefaultMaxSamples).
	MaxSamples int
	// ClusterThreshold is the agreed mean sketch divergence above which
	// the cost model switches to the clustered support model (default
	// DefaultClusterThreshold). Uniform supports measure ≈0.05–0.1 at the
	// default sketch resolution; the clustered test pattern ≈0.6.
	ClusterThreshold float64
	// MinClusterK is the smallest agreed per-rank non-zero count at which
	// the clustered classification is trusted — below it the histogram is
	// too noisy and the uniform worst case is kept (default
	// DefaultMinClusterK).
	MinClusterK int
	// SwitchMargin is the hysteresis band: a candidate must be predicted
	// at least this fraction cheaper than the incumbent choice before a
	// switch is considered (default DefaultSwitchMargin).
	SwitchMargin float64
	// HoldCalls is how many consecutive decided calls the candidate must
	// clear the margin before the switch happens (default
	// DefaultHoldCalls). A step change in the workload therefore converges
	// to the new choice within HoldCalls decided calls.
	HoldCalls int
	// MinCalibSamples is the per-level transfer count below which the
	// calibrated α–β constants are not used (default
	// DefaultMinCalibSamples).
	MinCalibSamples int
}

// Defaults for Config's zero values.
const (
	DefaultClusterThreshold = 0.25
	DefaultMinClusterK      = 256
	DefaultSwitchMargin     = 0.10
	DefaultHoldCalls        = 2
	DefaultMinCalibSamples  = 8
)

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.Decay == 0 {
		c.Decay = DefaultDecay
	}
	if c.MaxSamples == 0 {
		c.MaxSamples = DefaultMaxSamples
	}
	if c.ClusterThreshold == 0 {
		c.ClusterThreshold = DefaultClusterThreshold
	}
	if c.MinClusterK == 0 {
		c.MinClusterK = DefaultMinClusterK
	}
	if c.SwitchMargin == 0 {
		c.SwitchMargin = DefaultSwitchMargin
	}
	if c.HoldCalls == 0 {
		c.HoldCalls = DefaultHoldCalls
	}
	if c.MinCalibSamples == 0 {
		c.MinCalibSamples = DefaultMinCalibSamples
	}
	return c
}

// Controller is one rank's handle on the adaptation subsystem: an
// AutoAdaptive allreduce that sketches each input, keeps link constants
// calibrated, agrees on the measured scenario with the other ranks, and
// resolves the algorithm and hierarchy depth through the cost model with
// hysteresis. Construct one per rank (NewController, or the facade's
// World.EnableAdaptation) and treat it like a Scratch: owned by that
// rank's goroutine, never shared.
type Controller struct {
	cfg    Config
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
// SwitchMargin-cheaper prediction for HoldCalls consecutive decisions
// (incumbent and candidate each priced at their own chunk degree); the
// chunk degree itself follows the model freely — it carries no cross-call
// state, so flapping is harmless and hysteresis would only delay the
// cheaper schedule. All inputs are agreed quantities, so every rank's
// state machines transition identically.
func (h *bucketHold) decide(cfg Config, candAlg core.Algorithm, candLevels, candChunks int, s core.CostScenario, switches *int) (core.Algorithm, int, int, bool, string) {
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
	if tCand <= (1-cfg.SwitchMargin)*tCur {
		if candAlg == h.pendAlg && candLevels == h.pendLevels {
			h.pendCount++
		} else {
			h.pendAlg, h.pendLevels, h.pendCount = candAlg, candLevels, 1
		}
		if h.pendCount >= cfg.HoldCalls {
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
func NewController(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	return &Controller{cfg: cfg, sketch: NewShapeSketch(cfg.MaxSamples, cfg.Decay)}
}

// Sketch returns the controller's shape sketch (for inspection).
func (a *Controller) Sketch() *ShapeSketch { return a.sketch }

// Calibrator returns the controller's link calibrator, nil until
// Calibrate enables calibration.
func (a *Controller) Calibrator() *LinkCalibrator { return a.calib }

// Choice returns the current algorithm/depth the controller is holding
// (meaningful after the first Allreduce).
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
	return core.Allreduce(p, v, a.Plan(p, []*stream.Vector{v}, opts))
}

// Plan makes one adaptive decision for a batch of allreduces that will be
// issued together — the layer-wise training path, which fires one
// nonblocking allreduce per layer. The calls cannot decide individually:
// forked procs do not inherit the parent's tag cursor, and running one
// agreement collective per layer would serialize exactly the calls the
// layer-wise path exists to overlap. Instead the parent proc sketches
// every input, runs the scenario agreement once, and resolves Auto to a
// concrete algorithm/depth through the same hysteresis state the blocking
// path uses; the returned Options (Algorithm pinned, support model filled)
// are then passed to each core.IAllreduce verbatim. The scenario is priced
// on the largest input — the layer that dominates the step's cost. Like
// Allreduce, every rank must call Plan with the same inputs in the same
// program order; a non-Auto opts passes through unchanged (inputs still
// sketched).
func (a *Controller) Plan(p *comm.Proc, vs []*stream.Vector, opts core.Options) core.Options {
	for _, v := range vs {
		a.sketch.Observe(v)
	}
	if opts.Algorithm != core.Auto || len(vs) == 0 {
		return opts
	}
	// The fits are read before the agreement collectives, so a decision
	// prices with the sends made before it, never with its own.
	links := a.calib.snapshot()
	rep := vs[0]
	for _, v := range vs[1:] {
		if v.NNZ() > rep.NNZ() {
			rep = v
		}
	}
	s := a.agreeScenario(p, rep, opts, links)
	candAlg, candLevels, _ := core.ChooseAutoLevels(s)
	// This path does not own the chunk degree (opts.Chunks passes through),
	// so incumbent and candidate are both priced at this call's.
	a.hold.curChunks = s.Chunks
	alg, levels, _, switched, reason := a.hold.decide(a.cfg, candAlg, candLevels, s.Chunks, s, &a.switches)
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
		alg, levels, chunks, switched, reason := a.buckets[b].decide(a.cfg, candAlg, candLevels, candChunks, s, &a.bucketSwitches)
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
// when usable over at least MinCalibSamples transfers.
func (a *Controller) agreeStats(p *comm.Proc, links []linkFit) []float64 {
	depth := p.Hierarchy().Depth()
	st := a.sketch.Stats()
	// Layout: [hotFrac, hotMass, div, then per level: okFlag, alpha, beta].
	local := slices.Grow(a.local[:0], 3+3*depth)[:3+3*depth]
	clear(local)
	a.local = local
	local[0], local[1], local[2] = st.HotFraction, st.HotMass, st.Divergence
	for l := 0; l < depth && l < len(links); l++ {
		if alpha, beta, ok := links[l].fit(); ok && int(links[l].n) >= a.cfg.MinCalibSamples {
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
	if avgDiv >= a.cfg.ClusterThreshold && int(kmax) >= a.cfg.MinClusterK {
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
