package core

import (
	"math"

	"repro/internal/density"
	"repro/internal/quant"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// This file implements the analytic, level-aware α–β(+contention) cost
// model behind Auto: a closed-form estimate of each allreduce algorithm's
// simulated completion time under the same assumptions the simulator
// charges — per-message latency α, per-byte bandwidth β (scaled by the
// egress serialization factor of every hierarchy level a message escapes,
// see simnet.Hierarchy.SerialFactor), and per-element compute γ. Fill-in
// follows the paper's uniform-support expectation E[K] (§5.2, Figure 7);
// non-uniform (clustered) supports are priced by the Support knob. Every
// priced algorithm is one scheme — up sweep, top phase, down sweep, the
// flat algorithms being its depth-1 case (see predict) — so each phase is
// priced once; the exact formulas, one per phase, are documented in
// docs/ARCHITECTURE.md and must be kept in sync with this file.

// CostScenario describes one allreduce instance for the analytic cost
// model: the agreed problem shape plus the machine it runs on. All byte
// quantities are wire bytes; every Predict result is in simulated seconds.
// Every rank resolving Auto must build an identical scenario (K is the
// globally agreed maximum per-rank non-zero count), so the deterministic
// float arithmetic yields the same choice everywhere.
type CostScenario struct {
	// N is the vector dimension and P the number of ranks; both must be
	// positive.
	N, P int
	// K is the agreed maximum per-rank non-zero count, k = maxᵢ|Hᵢ| of the
	// paper's analysis. Must be in [0, N].
	K int
	// ValueBytes is the wire size of one value in bytes (4 or 8); zero
	// means stream.DefaultValueBytes.
	ValueBytes int
	// Delta is the sparse→dense representation threshold δ in non-zeros;
	// zero means stream.Delta(N, ValueBytes).
	Delta int
	// Profile prices local compute (γ terms). It should equal Hier's
	// outermost profile, matching comm.NewWorldHier.
	Profile simnet.Profile
	// Hier is the machine: each message uses the profile of the innermost
	// level its ranks share and pays the egress serialization factor of
	// every level it escapes. Nil means the flat network of Profile
	// (simnet.Flat). Read-only: scenarios share their world's value.
	Hier *simnet.Hierarchy
	// Levels is the depth the algorithm is priced at, mirroring
	// Options.Levels: 0 and 1 price it flat, d >= 2 at depth d (capped at
	// the machine's, flat when that depth has nothing to exploit).
	// ChooseAutoLevels reads it as Auto does, as the cap on the depths it
	// searches (0: every depth).
	Levels int
	// Chunks is the split-phase pipelining degree, mirroring
	// Options.Chunks: values ≤ 1 price the unchunked split phase; C ≥ 2
	// prices the chunk pipeline — C·(P−1) messages of a 1/C slice each,
	// with the k-way merge overlap-discounted behind the send stage (see
	// pipe). The modeled degree is clamped exactly as execution clamps it
	// (clampChunks). The AutoChunks sentinel prices as unchunked here;
	// decision layers that want the model to pick the degree use
	// ChooseChunks / ChooseAutoLevels, which search the candidates.
	Chunks int
	// Quant, when non-nil, prices the dense allgather stage of the DSAR
	// algorithms at the QSGD wire size (Bits/8 + 4/Bucket bytes per
	// element) instead of ValueBytes.
	Quant *quant.Config
	// Support selects the index-distribution assumption behind the fill-in
	// expectation E[K]. The default SupportUniform is the paper's
	// worst-case uniform model; SupportClustered uses the blocked hot-set
	// closed form (density.ExpectedKClustered).
	//
	// Validity ranges: on genuinely clustered supports (the `clustered`
	// test pattern: a 10% hot block absorbing 70% of the mass) the
	// clustered form tracks the measured union within ~15%, while the
	// uniform form overestimates it by ~1.65× — enough to flip the δ
	// regime gate toward the dense-result family near the boundary
	// (TestSupportModelGateBoundary pins the band). Conversely, applying
	// SupportClustered to uniform supports *under*estimates E[K] by a
	// comparable factor and flips the gate the other way; neither model is
	// safe to hand-set without knowing the input shape, which is what the
	// internal/adapt ShapeSketch measures at runtime.
	Support SupportModel
	// HotFraction and HotMass parameterize SupportClustered: the fraction
	// of the dimension space forming the shared hot region and the
	// probability mass it absorbs. Zero values default to
	// DefaultHotFraction and DefaultHotMass (the shape of the `clustered`
	// test pattern). Ignored under SupportUniform.
	HotFraction, HotMass float64
	// External, when non-empty, models co-tenant traffic: External[l] flows
	// from other jobs contend at hierarchy level l alongside this job's
	// own, raising every crossed level's egress (and, on ingress-capped
	// hierarchies, ingress) factor. Missing entries mean zero. This is how
	// the cluster simulator's observed per-level activity feeds placement
	// and per-job Auto decisions; empty External prices the job as the sole
	// tenant, exactly as before.
	External []int
}

// SupportModel selects how the cost model estimates fill-in E[K] from the
// per-rank non-zero count.
type SupportModel int

const (
	// SupportUniform assumes uniformly drawn supports
	// (density.ExpectedKUniform) — the paper's worst case for fill-in.
	SupportUniform SupportModel = iota
	// SupportClustered assumes blocked hot-set supports
	// (density.ExpectedKClustered), matching real gradient index
	// distributions where a shared hot region absorbs most of the mass.
	SupportClustered
)

// DefaultHotFraction is the SupportClustered hot-region size as a fraction
// of the dimension space, matching the `clustered` test pattern.
const DefaultHotFraction = 0.1

// DefaultHotMass is the SupportClustered probability mass the hot region
// absorbs, matching the `clustered` test pattern.
const DefaultHotMass = 0.7

// PredictSeconds returns the modeled completion time in simulated seconds
// of one allreduce under the scenario, at the scenario's Levels depth.
// Supported algorithms are the Auto candidates: SSARRecDouble,
// SSARSplitAllgather and DSARSplitAllgather; other algorithms panic. The
// estimate tracks the simulator's charging rules on uniform supports and is
// intended for ranking algorithms, not for exact time prediction.
func PredictSeconds(alg Algorithm, s CostScenario) float64 {
	if s.N <= 0 || s.P <= 0 || s.K < 0 {
		panic("core: CostScenario needs N > 0, P > 0, K >= 0")
	}
	switch alg {
	case SSARRecDouble, SSARSplitAllgather, DSARSplitAllgather:
		return s.predict(alg, s.hierarchy())
	default:
		panic("core: no cost model for " + alg.String())
	}
}

// ChooseAutoLevels returns the algorithm Auto resolves to under the
// scenario together with the hierarchy depth it should run at (0 for flat
// choices) and the split-phase chunk count it should pipeline at (1 when
// the scenario does not opt into the chunk search). The paper's δ gate
// first fixes the result representation — expected fill-in E[K] ≥ δ means
// the reduced vector densifies, so only the DSAR family (which also honors
// quantization) is eligible; below δ only the sparse-result SSAR family
// is. The family's algorithms are then priced by PredictSeconds flat and,
// when the machine hierarchy is exploitable, at every usable depth from 2
// tiers up to the full hierarchy (or the scenario's Levels, when set) —
// at a depth, the sparse family by the one algorithm AutoSSARAtDepth names
// — and the cheapest wins. Ties keep the earliest candidate: shallower
// before deeper, and flat recursive doubling before flat split allgather.
// When the scenario's Chunks is the AutoChunks sentinel, each candidate is
// priced at its ChooseChunks-best pipelining degree and the returned chunk
// count is the winner's; any other Chunks value is passed through
// unchanged, so the default 0 prices every candidate unchunked. Nothing is
// allocated: Auto prices every call.
func ChooseAutoLevels(s CostScenario) (Algorithm, int, int) {
	family := []Algorithm{SSARRecDouble, SSARSplitAllgather}
	dense := s.fill(s.P) >= float64(s.deltaOr())
	if dense {
		family = []Algorithm{DSARSplitAllgather}
	}
	h := s.hierarchy()
	maxDepth := h.Depth()
	if s.Levels > 0 {
		maxDepth = min(s.Levels, maxDepth)
	}
	bestAlg, bestLevels, bestChunks, bestT := family[0], 0, s.Chunks, math.Inf(1)
	for levels := 0; levels <= maxDepth; levels++ {
		if levels == 1 || levels > 1 && !HierExploitable(h, levels, s.P) {
			continue // 0 already priced flat
		}
		for _, alg := range family {
			if levels > 1 && !dense && alg != s.autoSSARAtDepth(h, levels) {
				continue
			}
			sc := s
			sc.Levels = levels
			if s.Chunks == AutoChunks {
				sc.Chunks = ChooseChunks(alg, sc)
			}
			if t := PredictSeconds(alg, sc); t < bestT {
				bestAlg, bestLevels, bestChunks, bestT = alg, levels, sc.Chunks, t
			}
		}
	}
	return bestAlg, bestLevels, bestChunks
}

// smallTopBytes is the wire size of a top-phase participant's input up to
// which Auto prices the sparse family at depth ≥ 2 as recursive doubling,
// and as split allgather past it.
const smallTopBytes = 64 << 10

// AutoSSARAtDepth returns the one sparse-result algorithm Auto prices at
// depth levels ≥ 2 of the scenario's machine: SSARRecDouble when the
// expected union a top-phase participant enters with — the inputs of one
// level-(levels−2) group — fits smallTopBytes on the wire, and
// SSARSplitAllgather otherwise. This is the rule the leaders once applied
// at run time to their agreed accumulation, before the top phase became
// the pinned algorithm itself, so Auto's decisions are the ones it made
// then. Pricing both algorithms at every depth is the wider search ROADMAP
// item 3 keeps open: the model then picks split allgather at depth 3 on
// DragonflyLike spread placements that the simulator charges more.
func AutoSSARAtDepth(s CostScenario, levels int) Algorithm {
	return s.autoSSARAtDepth(s.hierarchy(), levels)
}

func (s CostScenario) autoSSARAtDepth(h simnet.Hierarchy, levels int) Algorithm {
	kp := s.fill(h.Span(levels - 2))
	if stream.HeaderBytes+int(kp)*(stream.IndexBytes+s.valueBytesOr()) <= smallTopBytes {
		return SSARRecDouble
	}
	return SSARSplitAllgather
}

// chunkCandidates are the pipelining degrees the chunk search prices.
// Unchunked is first so strict-< ties keep it; the powers of two match the
// documented Options.Chunks sweet spot and the BENCH_7 validation cells.
var chunkCandidates = [...]int{1, 2, 4, 8}

// ChooseChunks returns the split-phase chunk count the cost model picks
// for one algorithm under the scenario (at the scenario's Levels depth):
// each candidate degree in chunkCandidates is priced by PredictSeconds
// with CostScenario.Chunks pinned to it and the strictly cheapest wins,
// so ties keep the smaller count and algorithms whose price ignores
// Chunks (recursive doubling, at any depth) return 1. Like every Auto
// decision the result depends only on the agreed scenario, so all ranks
// pick the same degree.
func ChooseChunks(alg Algorithm, s CostScenario) int {
	switch alg {
	case SSARSplitAllgather, DSARSplitAllgather:
	default:
		return 1
	}
	best, bestT := 1, math.Inf(1)
	for _, c := range chunkCandidates {
		sc := s
		sc.Chunks = c
		if t := PredictSeconds(alg, sc); t < bestT {
			best, bestT = c, t
		}
	}
	return best
}

func (s CostScenario) valueBytesOr() int {
	if s.ValueBytes == 0 {
		return stream.DefaultValueBytes
	}
	return s.ValueBytes
}

func (s CostScenario) deltaOr() int {
	if s.Delta == 0 {
		return stream.Delta(s.N, s.valueBytesOr())
	}
	return s.Delta
}

// hierarchy returns the scenario's machine: Hier, or the flat network of
// Profile when unset. The one place that encoding is resolved — every
// Predict/Choose entry point calls it once and hands the value down.
func (s CostScenario) hierarchy() simnet.Hierarchy {
	if s.Hier == nil {
		return simnet.Flat(s.Profile)
	}
	return *s.Hier
}

// fill returns E[K] for the union of `groups` rank supports under the
// scenario's support model, capped at P groups and N entries.
func (s CostScenario) fill(groups int) float64 {
	if groups > s.P {
		groups = s.P
	}
	if groups < 1 || s.K == 0 {
		return 0
	}
	if s.Support == SupportClustered {
		hf, hm := s.HotFraction, s.HotMass
		if hf == 0 {
			hf = DefaultHotFraction
		}
		if hm == 0 {
			hm = DefaultHotMass
		}
		return density.ExpectedKClustered(s.N, s.K, groups, hf, hm)
	}
	return density.ExpectedKUniform(s.N, s.K, groups)
}

// wire returns the modeled wire bytes of a stream holding k non-zeros in
// the representation it would actually be in: sparse pairs below δ, dense
// past it (§5.1).
func (s CostScenario) wire(k float64) float64 {
	if k > float64(s.deltaOr()) {
		return float64(stream.HeaderBytes) + float64(s.N)*float64(s.valueBytesOr())
	}
	return float64(stream.HeaderBytes) + k*float64(stream.IndexBytes+s.valueBytesOr())
}

// densePerElem returns the dense-allgather wire bytes per element: the
// value size, or the amortized QSGD size when quantization is configured.
func (s CostScenario) densePerElem() float64 {
	if s.Quant == nil {
		return float64(s.valueBytesOr())
	}
	bucket := s.Quant.Bucket
	if bucket < 1 {
		bucket = 1
	}
	return float64(s.Quant.Bits)/8 + 4/float64(bucket)
}

// modelMsg prices one message: α + overhead + (β+βsw)·bytes·factor, the
// float-bytes twin of Profile.ContendedTransferTime.
func modelMsg(prof simnet.Profile, bytes, factor float64) float64 {
	return prof.Alpha + prof.SoftwareOverhead +
		(prof.BetaPerByte+prof.SoftwarePerByte)*bytes*factor
}

// spanCapped returns the level-l group span clipped to the world size.
func (s CostScenario) spanCapped(h simnet.Hierarchy, l int) int {
	span := h.Span(l)
	if span > s.P {
		span = s.P
	}
	return span
}

// levelFactor returns the contention factor one flow pays crossing level l
// when `own` of this job's flows share the group's boundary: the egress
// serialization factor for own plus External[l] co-tenant flows (a missing
// entry means none), times the matching ingress factor on ingress-capped
// levels (1 elsewhere, so sole-tenant scenarios on cap-free hierarchies
// price exactly as before).
func (s CostScenario) levelFactor(h simnet.Hierarchy, l, own int) float64 {
	active := own
	if l < len(s.External) {
		active += s.External[l]
	}
	if active < 1 {
		active = 1
	}
	return h.SerialFactor(l, active) * h.IngressFactor(l, active)
}

// crossFactor returns the contention factor of a message escaping levels
// 0..l−1 sent by a phase whose participants are one per `stride` ranks:
// the product of each crossed level's levelFactor with the ⌈span/stride⌉
// participants the phase places in that level's group all sending at once.
// stride 1 is the whole world communicator, every group-mate contending; a
// top phase with one participant per crossed group pays factor 1 as the
// sole tenant and the External co-tenants' share otherwise — the simulator
// charges a lone sender for whoever else is on its group's egress
// (TestExternalFlowsRaisePredictedCost).
func (s CostScenario) crossFactor(h simnet.Hierarchy, l, stride int) float64 {
	f := 1.0
	for j := 0; j < l; j++ {
		f *= s.levelFactor(h, j, (s.spanCapped(h, j)+stride-1)/stride)
	}
	return f
}

// linkMsg prices one message of `bytes` wire bytes between top-phase
// participants `d` slots apart when the participants are one per `stride`
// ranks: the profile of the innermost level spanning the distance, at the
// crossFactor of the levels below it — a full-depth top phase (stride =
// the outermost grouped span) pays factor 1 while a truncated one still
// pays the caps of the levels it ignores, the cost that makes deeper
// recursion win.
func (s CostScenario) linkMsg(h simnet.Hierarchy, d, stride int, bytes float64) float64 {
	l := 0
	for l < h.Depth()-1 && d*stride >= h.Span(l) {
		l++
	}
	return modelMsg(h.Levels[l].Profile, bytes, s.crossFactor(h, l, stride))
}

// mergeCost prices combining `pairs` sparse index–value pairs, or one
// dense pass over the vector when the accumulation has densified.
func (s CostScenario) mergeCost(pairs float64, dense bool) float64 {
	if dense {
		return s.Profile.GammaPerElem * float64(s.N)
	}
	return s.Profile.GammaPerElem * s.Profile.SparseComputeFactor * pairs
}

// pipe returns the completion time of the two-stage chunk pipeline: C
// chunks flow through a send stage costing S in total and a merge stage
// costing M in total. The stages overlap perfectly except that the first
// (equivalently last) chunk must still traverse the non-bottleneck stage,
// so completion is max(S, M) + min(S, M)/C — the overlap-discounted merge
// term of the model. At C = 1 this degrades to S + M, but callers keep the
// literal unchunked accumulation on that path so the float ordering (and
// hence every replica-consistent Auto decision) is bit-identical to the
// pre-pipelining model.
func pipe(S, M float64, C int) float64 {
	if M > S {
		S, M = M, S
	}
	return S + M/float64(C)
}

// predict prices one allreduce as the one scheme every priced algorithm
// runs at every depth: up-sweep reduces over hierarchy levels 0..L−2, the
// algorithm itself as the top phase among m = ⌈P/stride⌉ participants —
// one per `stride` consecutive ranks, each entering with the union of its
// stride inputs — and the mirrored down-sweep broadcasts of the result.
// L is the scenario's depth and stride = Span(L−2); the flat algorithms
// are the depth-1 case: L = 1, stride = 1, m = P, no sweeps, every rank a
// participant holding its own K non-zeros — which is also how a depth with
// nothing to exploit (HierExploitable) is priced, exactly as execution
// runs it.
//
// The top-phase helpers take the running total t and return it advanced,
// rather than returning a subtotal to add: every term then joins the sum in
// one fixed left-to-right order whatever the depth, and since float
// addition is not associative that order is part of the contract — every
// rank must compute the same bits to resolve Auto identically, and the
// gated BENCH files record them (TestPredictDigests pins the order).
func (s CostScenario) predict(alg Algorithm, h simnet.Hierarchy) float64 {
	L, stride := 1, 1
	if d := hierDepth(h, s.Levels); HierExploitable(h, d, s.P) {
		L, stride = d, h.Span(d-2)
	}
	m := (s.P + stride - 1) / stride
	// Per-participant non-zeros entering the top phase: K itself at stride
	// 1, which fill(1) equals only up to rounding.
	kp := float64(s.K)
	if stride > 1 {
		kp = s.fill(stride)
	}
	t := 0.0
	for l := 0; l <= L-2; l++ {
		t += s.stageReduceCost(h, l)
	}
	dsar := alg == DSARSplitAllgather
	switch alg {
	case DSARSplitAllgather:
		t = s.topSplit(t, h, m, stride, kp)
		t = s.topDenseAllgather(t, h, m, stride)
	case SSARRecDouble:
		t = s.topRecDouble(t, h, m, stride, kp)
	default:
		t = s.topSplit(t, h, m, stride, kp)
		t = s.topSparseAllgather(t, h, m, stride)
	}
	if L == 1 {
		return t
	}
	result := s.wire(s.fill(s.P)) // wire bytes of what the down sweep broadcasts
	if dsar {
		result = float64(stream.HeaderBytes) + float64(s.N)*float64(s.valueBytesOr())
	}
	for l := L - 2; l >= 0; l-- {
		t += s.stageBcastCost(h, l, result)
	}
	return t
}

// topRecDouble adds to t a top phase run as SSAR_Recursive_double among m
// participants one per `stride` ranks, each entering with kp non-zeros:
// log2 of p2 = 2^⌊log2 m⌋ exchange+merge stages whose payload is the
// accumulated union, plus — when m is not a power of two — the Appendix A
// fold of the m−p2 excess participants onto the first ones (their input in,
// the full result back, p2 slots away). After the fold a participant
// stands for m/p2 inputs on average, so the stage-d payload is the union of
// ⌈stride·d·m/p2⌉ rank supports — stride·d exactly when m is a power of two.
func (s CostScenario) topRecDouble(t float64, h simnet.Hierarchy, m, stride int, kp float64) float64 {
	p2 := largestPow2(m)
	delta := float64(s.deltaOr())
	if m > p2 {
		t += s.linkMsg(h, p2, stride, s.wire(kp))
		t += s.mergeCost(2*kp, s.fill(2*stride) > delta)
	}
	for d := 1; d < p2; d *= 2 {
		groups := (stride*d*m + p2 - 1) / p2
		kt := s.fill(groups)
		t += s.linkMsg(h, d, stride, s.wire(kt))
		t += s.mergeCost(2*kt, s.fill(2*groups) > delta)
	}
	if m > p2 {
		t += s.linkMsg(h, p2, stride, s.wire(s.fill(s.P)))
	}
	return t
}

// splitSend prices the direct-exchange half of the split phase among m
// participants one per `stride` ranks: perDest messages to each of the m−1
// others, each carrying `slice` non-zeros — serialized at the sender, which
// is the (m−1)·perDest·α term — bucketed by the innermost hierarchy level
// spanning each destination: a level-l group holds u = ⌈span/stride⌉
// participants, the ones not already in a smaller group are priced on
// level l's profile at the crossFactor of the levels below it. perDest = 1
// with the full slice is the unchunked phase; perDest = C with a slice/C
// payload the chunked one.
func (s CostScenario) splitSend(h simnet.Hierarchy, m, stride, perDest int, slice float64) float64 {
	t, prev := 0.0, 1
	for l := 0; l < h.Depth() && prev < m; l++ {
		u := (s.spanCapped(h, l) + stride - 1) / stride
		if u > prev {
			t += float64((u-prev)*perDest) * modelMsg(h.Levels[l].Profile, s.wire(slice), s.crossFactor(h, l, stride))
		}
		prev = u
	}
	return t
}

// topSplit adds to t the split phase shared by the split-allgather and DSAR
// top phases among m participants (one per `stride` ranks, kp non-zeros
// each): splitSend of one dimension-partition slice (≈ kp/m non-zeros) to
// every other participant, plus the single k-way merge reducing the owned
// partition — every received pair is touched once, so the charge is the
// m·kp/m ≈ kp input pairs rather than the chained two-way merges'
// Σᵢ(|accᵢ|+|Hᵢ|). At Chunks ≥ 2 (clamped over the m participants exactly
// as execution clamps it; AutoChunks prices as unchunked) the phase is the
// chunk pipeline instead: C·(m−1) sends of a 1/C slice each — more α, same
// β volume — with the merge overlap-discounted behind the send stage per
// pipe.
func (s CostScenario) topSplit(t float64, h simnet.Hierarchy, m, stride int, kp float64) float64 {
	slice := kp / float64(m)
	merge := s.mergeCost(float64(m)*slice, false)
	if C := clampChunks(s.Chunks, s.N, m); C > 1 {
		return t + pipe(s.splitSend(h, m, stride, C, slice/float64(C)), merge, C)
	}
	t += s.splitSend(h, m, stride, 1, slice)
	return t + merge
}

// topSparseAllgather adds to t the concatenating sparse allgather that
// finishes a split-allgather top phase among m participants one per
// `stride` ranks: the payload doubles each stage up to the reduced size
// E[K_P], each arrival merged in; when m is not a power of two the excess
// participants' reduced slices fold in first and the full result folds
// back out, p2 = 2^⌊log2 m⌋ slots away.
func (s CostScenario) topSparseAllgather(t float64, h simnet.Hierarchy, m, stride int) float64 {
	p2 := largestPow2(m)
	full := s.fill(s.P)
	part := full / float64(p2)
	if m > p2 {
		slice := full / float64(m)
		t += s.linkMsg(h, p2, stride, s.wire(slice))
		t += s.mergeCost(2*slice, false)
	}
	for d := 1; d < p2; d *= 2 {
		kt := part * float64(d)
		t += s.linkMsg(h, d, stride, s.wire(kt))
		t += s.mergeCost(2*kt, 2*kt > float64(s.deltaOr()))
	}
	if m > p2 {
		t += s.linkMsg(h, p2, stride, s.wire(full))
	}
	return t
}

// topDenseAllgather adds to t the tail of a DSAR top phase among m
// participants one per `stride` ranks: a densify pass over the owned N/m
// partition (plus QSGD encode/decode passes when quantizing) and a dense
// allgather whose per-stage volume doubles, with the non-power-of-two fold
// of one block in and the whole vector back out.
func (s CostScenario) topDenseAllgather(t float64, h simnet.Hierarchy, m, stride int) float64 {
	g := s.Profile.GammaPerElem
	block := float64(s.N) / float64(m)
	t += g * block // densify the owned partition
	if s.Quant != nil {
		t += g*block + g*float64(s.N) // encode own block, decode all
	}
	p2 := largestPow2(m)
	hdr := float64(stream.HeaderBytes)
	if m > p2 {
		t += s.linkMsg(h, p2, stride, block*s.densePerElem()+hdr)
	}
	for d := 1; d < p2; d *= 2 {
		t += s.linkMsg(h, d, stride, float64(d)*(float64(s.N)/float64(p2))*s.densePerElem()+hdr)
	}
	if m > p2 {
		t += s.linkMsg(h, p2, stride, float64(s.N)*s.densePerElem()+hdr)
	}
	return t
}

// stageChildren returns the participant count of the level-l up-sweep
// stage (leaders of level-(l-1) subgroups per level-l group, nominal
// shape) and the rank span each participant already aggregates.
func (s CostScenario) stageChildren(h simnet.Hierarchy, l int) (c, base int) {
	base = 1
	if l > 0 {
		base = h.Span(l - 1)
	}
	span := s.spanCapped(h, l)
	return (span + base - 1) / base, base
}

// stageReduceCost prices the level-l up-sweep stage of the recursive
// hierarchical schemes: a binomial-tree sparse reduce of the level's
// participants to the group leader — ⌈log2 c⌉ rounds on the level's
// profile with payloads growing as the union E[K_(d·base)] of the ranks
// already aggregated below. One participant per subgroup drives the
// exchange, so the job does not contend with itself and no factor is
// applied. (Nor are External co-tenants on the crossed levels charged in
// the sweeps, though the simulator does: crossFactor(h, l, base) would,
// and moves predictions BENCH_8 records.)
func (s CostScenario) stageReduceCost(h simnet.Hierarchy, l int) float64 {
	c, base := s.stageChildren(h, l)
	t := 0.0
	for d := 1; d < c; d *= 2 {
		kt := s.fill(d * base)
		t += modelMsg(h.Levels[l].Profile, s.wire(kt), 1)
		t += s.mergeCost(2*kt, s.fill(2*d*base) > float64(s.deltaOr()))
	}
	return t
}

// stageBcastCost prices the level-l down-sweep stage: the binomial-tree
// broadcast of the final result (wire size `bytes`) to the level's
// participants — ⌈log2 c⌉ sequential hops on the critical path.
func (s CostScenario) stageBcastCost(h simnet.Hierarchy, l int, bytes float64) float64 {
	c, _ := s.stageChildren(h, l)
	rounds := 0
	for d := 1; d < c; d *= 2 {
		rounds++
	}
	return float64(rounds) * modelMsg(h.Levels[l].Profile, bytes, 1)
}
