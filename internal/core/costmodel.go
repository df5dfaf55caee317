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
// non-uniform (clustered) supports are priced by the Support knob. The
// exact formulas, one per algorithm, are documented in
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
	// Levels caps the hierarchical algorithms' modeled recursion depth,
	// mirroring Options.Levels: 0 prices the full hierarchy; d >= 2 prices
	// the depth-d truncation (ChooseAutoLevels searches the depths).
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
// of one allreduce under the scenario. Supported algorithms are the Auto
// candidates: SSARRecDouble, SSARSplitAllgather, DSARSplitAllgather,
// HierSSAR, and HierDSAR (the hierarchical two — priced at the scenario's
// Levels depth — degrade to their flat counterparts when the scenario has
// no exploitable hierarchy); other algorithms panic. The estimate tracks
// the simulator's charging rules on uniform supports and is intended for
// ranking algorithms, not for exact time prediction.
func PredictSeconds(alg Algorithm, s CostScenario) float64 {
	if s.N <= 0 || s.P <= 0 || s.K < 0 {
		panic("core: CostScenario needs N > 0, P > 0, K >= 0")
	}
	h := s.hierarchy()
	switch alg {
	case SSARRecDouble:
		return s.predictRecDouble(h)
	case SSARSplitAllgather:
		return s.predictSplitAllgather(h)
	case DSARSplitAllgather:
		return s.predictDSAR(h)
	case HierSSAR:
		if L, ok := s.hierAt(h); ok {
			return s.predictHierSSAR(h, L)
		}
		return s.predictSplitAllgather(h)
	case HierDSAR:
		if L, ok := s.hierAt(h); ok {
			return s.predictHierDSAR(h, L)
		}
		return s.predictDSAR(h)
	default:
		panic("core: no cost model for " + alg.String())
	}
}

// ChooseAuto returns the algorithm Auto resolves to under the scenario;
// see ChooseAutoLevels for the depth and chunk count it pairs with it.
func ChooseAuto(s CostScenario) Algorithm {
	alg, _, _ := ChooseAutoLevels(s)
	return alg
}

// ChooseAutoLevels returns the algorithm Auto resolves to under the
// scenario together with the hierarchy depth the hierarchical algorithms
// should run at (0 for flat choices) and the split-phase chunk count the
// winner should pipeline at (1 when the scenario does not opt into the
// chunk search). The paper's δ gate first fixes the result
// representation — expected fill-in E[K] ≥ δ means the reduced vector
// densifies, so only the DSAR family (which also honors quantization) is
// eligible; below δ only the sparse-result SSAR family is. Within the
// regime the candidates — the flat algorithm plus, when the machine
// hierarchy is exploitable, the hierarchical algorithm at every usable
// depth from 2 tiers up to the full hierarchy — are priced by
// PredictSeconds and the cheapest wins (ties keep the earliest candidate:
// flat before hierarchical, shallower before deeper). When the scenario's
// Chunks is the AutoChunks sentinel, each candidate is priced at its
// ChooseChunks-best pipelining degree and the returned chunk count is the
// winner's; any other Chunks value is passed through unchanged, so the
// default 0 prices every candidate unchunked exactly as before.
func ChooseAutoLevels(s CostScenario) (Algorithm, int, int) {
	type cand struct {
		alg    Algorithm
		levels int
	}
	var candidates []cand
	var depths []int
	h := s.hierarchy()
	for d := 2; d <= hierDepth(h, s.Levels); d++ {
		if hierExploitable(h, d, s.P) {
			depths = append(depths, d)
		}
	}
	if s.fill(s.P) >= float64(s.deltaOr()) {
		candidates = append(candidates, cand{DSARSplitAllgather, 0})
		for _, d := range depths {
			candidates = append(candidates, cand{HierDSAR, d})
		}
	} else {
		candidates = append(candidates, cand{SSARRecDouble, 0}, cand{SSARSplitAllgather, 0})
		for _, d := range depths {
			candidates = append(candidates, cand{HierSSAR, d})
		}
	}
	best, bestChunks, bestT := candidates[0], s.Chunks, math.Inf(1)
	for _, c := range candidates {
		sc := s
		sc.Levels = c.levels
		if s.Chunks == AutoChunks {
			sc.Chunks = ChooseChunks(c.alg, sc)
		}
		if t := PredictSeconds(c.alg, sc); t < bestT {
			best, bestChunks, bestT = c, sc.Chunks, t
		}
	}
	return best.alg, best.levels, bestChunks
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
// Chunks (the rec-double family, or a hier top phase that resolves to
// rec-double) return 1. Like every Auto decision the result depends only
// on the agreed scenario, so all ranks pick the same degree.
func ChooseChunks(alg Algorithm, s CostScenario) int {
	switch alg {
	case SSARSplitAllgather, DSARSplitAllgather, HierSSAR, HierDSAR:
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

// hierAt returns the effective recursion depth of the hierarchical
// algorithms on h under the scenario's Levels cap, and whether the scheme
// at that depth is exploitable (differs from the flat algorithm).
func (s CostScenario) hierAt(h simnet.Hierarchy) (L int, ok bool) {
	L = hierDepth(h, s.Levels)
	return L, hierExploitable(h, L, s.P)
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

// ext returns the modeled external (co-tenant) flow count at level l.
func (s CostScenario) ext(l int) int {
	if l < len(s.External) {
		return s.External[l]
	}
	return 0
}

// levelFactor returns the contention factor one flow pays crossing level l
// when `own` of this job's flows share the group's boundary: the egress
// serialization factor for own plus External co-tenant flows, times the
// matching ingress factor on ingress-capped levels (1 elsewhere, so
// sole-tenant scenarios on cap-free hierarchies price exactly as before).
func (s CostScenario) levelFactor(h simnet.Hierarchy, l, own int) float64 {
	active := own + s.ext(l)
	if active < 1 {
		active = 1
	}
	return h.SerialFactor(l, active) * h.IngressFactor(l, active)
}

// topLink returns the profile and contention factor pricing an exchange
// between leaders `d` leader-slots apart when the leaders are one per
// `stride` ranks — the profile of the innermost level spanning the
// distance, times each crossed level's serialization factor: the
// communicator places ⌈span/stride⌉ ranks in each crossed level's group,
// so a full-depth top phase (stride = the outermost grouped span) pays
// factor 1 while a truncated one still pays the caps of the levels it
// ignores — the cost that makes deeper recursion win. stride 1 is the
// whole world communicator, all of the sender's group-mates contending.
func (s CostScenario) topLink(h simnet.Hierarchy, d, stride int) (simnet.Profile, float64) {
	dist := d * stride
	l := 0
	for l < h.Depth()-1 && dist >= h.Span(l) {
		l++
	}
	f := 1.0
	for j := 0; j < l; j++ {
		active := (s.spanCapped(h, j) + stride - 1) / stride
		if active < 1 {
			active = 1
		}
		f *= s.levelFactor(h, j, active)
	}
	return h.Levels[l].Profile, f
}

// mergeCost prices combining `pairs` sparse index–value pairs, or one
// dense pass over the vector when the accumulation has densified.
func (s CostScenario) mergeCost(pairs float64, dense bool) float64 {
	if dense {
		return s.Profile.GammaPerElem * float64(s.N)
	}
	return s.Profile.GammaPerElem * s.Profile.SparseComputeFactor * pairs
}

// chunksOr returns the pipelining degree the scenario actually prices: the
// requested Chunks clamped exactly as execution clamps it. The AutoChunks
// sentinel prices as unchunked (the search layers resolve it first).
func (s CostScenario) chunksOr() int {
	return clampChunks(s.Chunks, s.N, s.P)
}

// topChunks is chunksOr for the hierarchical top phase, where the split
// runs over the m leaders instead of the full world.
func (s CostScenario) topChunks(m int) int {
	return clampChunks(s.Chunks, s.N, m)
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

// predictRecDouble prices SSAR_Recursive_double: log2(P) exchange+merge
// stages whose payload is the accumulated union E[K_d], plus — on
// non-power-of-two worlds — the fold of the excess ranks onto the first
// ones (their input in, the full result back, at rank distance 2^⌊log2 P⌋).
func (s CostScenario) predictRecDouble(h simnet.Hierarchy) float64 {
	t := 0.0
	p2 := largestPow2(s.P)
	if s.P > p2 {
		prof, f := s.topLink(h, p2, 1)
		t += modelMsg(prof, s.wire(float64(s.K)), f)
		t += s.mergeCost(2*float64(s.K), s.fill(2) > float64(s.deltaOr()))
	}
	for d := 1; d < p2; d *= 2 {
		kt := s.fill(d)
		prof, f := s.topLink(h, d, 1)
		t += modelMsg(prof, s.wire(kt), f)
		t += s.mergeCost(2*kt, s.fill(2*d) > float64(s.deltaOr()))
	}
	if s.P > p2 {
		prof, f := s.topLink(h, p2, 1)
		t += modelMsg(prof, s.wire(s.fill(s.P)), f)
	}
	return t
}

// splitSendCost prices the direct-exchange half of the split phase:
// perDest messages to each of the P−1 other ranks, each carrying `slice`
// non-zeros — serialized at the sender, which is the (P−1)·perDest·α
// term — bucketed by the hierarchy level each destination sits at (each
// bucket paying the egress factors of the levels it crosses). The caller
// adds the k-way merge separately. perDest = 1 with the full K/P slice
// reproduces the unchunked split phase; the chunked caller passes
// perDest = C with a slice/C payload.
func (s CostScenario) splitSendCost(h simnet.Hierarchy, perDest int, slice float64) float64 {
	t := 0.0
	prev := 1
	f := 1.0
	for l := 0; l < h.Depth(); l++ {
		span := s.spanCapped(h, l)
		if cnt := span - prev; cnt > 0 {
			t += float64(cnt*perDest) * modelMsg(h.Levels[l].Profile, s.wire(slice), f)
		}
		if span >= s.P {
			break
		}
		f *= s.levelFactor(h, l, span)
		prev = span
	}
	return t
}

// splitPhaseCost prices the shared split phase: P−1 direct sends of one
// dimension-partition slice (≈ K/P non-zeros) each — serialized at the
// sender, which is the (P−1)·α term — bucketed by the hierarchy level each
// destination sits at (each bucket paying the egress factors of the levels
// it crosses), plus the single k-way merge reducing this rank's partition:
// every received pair is touched once, so the charge is the P·K/P ≈ K
// total input pairs rather than the chained two-way merges' Σᵢ(|accᵢ|+|Hᵢ|).
// At Chunks ≥ 2 the phase is the chunk pipeline instead: C·(P−1) sends of
// a 1/C slice each (more α, same β volume) with the merge
// overlap-discounted behind the send stage per pipe.
func (s CostScenario) splitPhaseCost(h simnet.Hierarchy) float64 {
	slice := float64(s.K) / float64(s.P)
	if C := s.chunksOr(); C > 1 {
		S := s.splitSendCost(h, C, slice/float64(C))
		M := s.mergeCost(float64(s.P)*slice, false)
		return pipe(S, M, C)
	}
	t := s.splitSendCost(h, 1, slice)
	t += s.mergeCost(float64(s.P)*slice, false)
	return t
}

// predictSplitAllgather prices SSAR_Split_allgather: the split phase plus
// a concatenating sparse allgather whose payload doubles each stage up to
// the reduced size E[K_P] (with the non-power-of-two fold in and out of
// the allgather priced like predictRecDouble's).
func (s CostScenario) predictSplitAllgather(h simnet.Hierarchy) float64 {
	t := s.splitPhaseCost(h)
	p2 := largestPow2(s.P)
	part := s.fill(s.P) / float64(p2)
	if s.P > p2 {
		slice := s.fill(s.P) / float64(s.P)
		prof, f := s.topLink(h, p2, 1)
		t += modelMsg(prof, s.wire(slice), f)
		t += s.mergeCost(2*slice, false)
	}
	for d := 1; d < p2; d *= 2 {
		kt := part * float64(d)
		prof, f := s.topLink(h, d, 1)
		t += modelMsg(prof, s.wire(kt), f)
		t += s.mergeCost(2*kt, 2*kt > float64(s.deltaOr()))
	}
	if s.P > p2 {
		prof, f := s.topLink(h, p2, 1)
		t += modelMsg(prof, s.wire(s.fill(s.P)), f)
	}
	return t
}

// predictDSAR prices DSAR_Split_allgather: the sparse split phase, a
// densify pass over the local partition (plus QSGD encode/decode passes
// when quantizing), and a dense allgather whose per-stage volume doubles.
func (s CostScenario) predictDSAR(h simnet.Hierarchy) float64 {
	t := s.splitPhaseCost(h)
	g := s.Profile.GammaPerElem
	block := float64(s.N) / float64(s.P)
	t += g * block // densify the owned partition
	if s.Quant != nil {
		t += g*block + g*float64(s.N) // encode own block, decode all
	}
	p2 := largestPow2(s.P)
	if s.P > p2 {
		prof, f := s.topLink(h, p2, 1)
		t += modelMsg(prof, block*s.densePerElem()+float64(stream.HeaderBytes), f)
	}
	for d := 1; d < p2; d *= 2 {
		bytes := float64(d)*(float64(s.N)/float64(p2))*s.densePerElem() + float64(stream.HeaderBytes)
		prof, f := s.topLink(h, d, 1)
		t += modelMsg(prof, bytes, f)
	}
	if s.P > p2 {
		prof, f := s.topLink(h, p2, 1)
		t += modelMsg(prof, float64(s.N)*s.densePerElem()+float64(stream.HeaderBytes), f)
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
// exchange, so no egress factor applies.
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

// topSplitSendCost prices the direct-exchange half of a top-phase split
// over m leaders (one per `stride` ranks): perDest sends to each of the
// m−1 other leaders, each carrying `slice` non-zeros, bucketed by the
// innermost level spanning each destination, every bucket paying the
// egress factors of the levels it crosses with one contending flow per
// co-located leader. The caller adds the k-way merge of the m slices
// separately; perDest = 1 is the unchunked phase, perDest = C with a
// slice/C payload the chunked one.
func (s CostScenario) topSplitSendCost(h simnet.Hierarchy, m, stride int, slice float64, perDest int) float64 {
	t := 0.0
	prev := 1
	f := 1.0
	for l := 0; l < h.Depth(); l++ {
		span := s.spanCapped(h, l)
		if span <= stride {
			continue // one leader per group here and below: no destinations
		}
		u := (span + stride - 1) / stride // leaders per level-l group
		if u > m {
			u = m
		}
		if cnt := u - prev; cnt > 0 {
			t += float64(cnt*perDest) * modelMsg(h.Levels[l].Profile, s.wire(slice), f)
		}
		if u >= m {
			break
		}
		f *= s.levelFactor(h, l, u)
		prev = u
	}
	return t
}

// predictHierSSAR prices the recursive SSAR_Hierarchical at depth L:
// per-level up-sweep reduces, a top-phase sparse allreduce among the
// level-(L-2) leaders (rec-double or split allgather by the same wire-size
// rule the implementation applies), and the mirrored down-sweep broadcast.
func (s CostScenario) predictHierSSAR(h simnet.Hierarchy, L int) float64 {
	stride := h.Span(L - 2)
	m := (s.P + stride - 1) / stride
	t := 0.0
	for l := 0; l <= L-2; l++ {
		t += s.stageReduceCost(h, l)
	}
	kp := s.fill(stride) // per-leader non-zeros after the up sweep
	wireK := stream.HeaderBytes + int(kp)*(stream.IndexBytes+s.valueBytesOr())
	p2m := largestPow2(m)
	if wireK <= DefaultSmallDataBytes {
		// Top-phase recursive doubling: payload is the union of stride·d
		// inputs, with the non-power-of-two leader fold in and out.
		if m > p2m {
			prof, f := s.topLink(h, p2m, stride)
			t += modelMsg(prof, s.wire(kp), f)
			t += s.mergeCost(2*kp, s.fill(2*stride) > float64(s.deltaOr()))
		}
		for d := 1; d < p2m; d *= 2 {
			groups := (stride*d*m + p2m - 1) / p2m // folded leaders aggregate m/p2m inputs
			kt := s.fill(groups)
			prof, f := s.topLink(h, d, stride)
			t += modelMsg(prof, s.wire(kt), f)
			t += s.mergeCost(2*kt, s.fill(2*groups) > float64(s.deltaOr()))
		}
		if m > p2m {
			prof, f := s.topLink(h, p2m, stride)
			t += modelMsg(prof, s.wire(s.fill(s.P)), f)
		}
	} else {
		// Top-phase split allgather over m partitions (k-way merge: the m
		// slices of one leader partition are touched once each), pipelined
		// like splitPhaseCost when the scenario chunks.
		slice := kp / float64(m)
		part := s.fill(s.P) / float64(p2m)
		if C := s.topChunks(m); C > 1 {
			S := s.topSplitSendCost(h, m, stride, slice/float64(C), C)
			t += pipe(S, s.mergeCost(float64(m)*slice, false), C)
		} else {
			t += s.topSplitSendCost(h, m, stride, slice, 1)
			t += s.mergeCost(float64(m)*slice, false)
		}
		if m > p2m {
			fslice := s.fill(s.P) / float64(m)
			prof, f := s.topLink(h, p2m, stride)
			t += modelMsg(prof, s.wire(fslice), f)
			t += s.mergeCost(2*fslice, false)
		}
		for d := 1; d < p2m; d *= 2 {
			kt := part * float64(d)
			prof, f := s.topLink(h, d, stride)
			t += modelMsg(prof, s.wire(kt), f)
			t += s.mergeCost(2*kt, 2*kt > float64(s.deltaOr()))
		}
		if m > p2m {
			prof, f := s.topLink(h, p2m, stride)
			t += modelMsg(prof, s.wire(s.fill(s.P)), f)
		}
	}
	bytes := s.wire(s.fill(s.P))
	for l := L - 2; l >= 0; l-- {
		t += s.stageBcastCost(h, l, bytes)
	}
	return t
}

// predictHierDSAR prices the recursive DSAR_Hierarchical at depth L:
// per-level up-sweep reduces, a top-phase DSAR over the m leader
// partitions (sparse split, densify, dense/quantized allgather), and the
// down-sweep broadcast of the dense result.
func (s CostScenario) predictHierDSAR(h simnet.Hierarchy, L int) float64 {
	stride := h.Span(L - 2)
	m := (s.P + stride - 1) / stride
	t := 0.0
	for l := 0; l <= L-2; l++ {
		t += s.stageReduceCost(h, l)
	}
	kp := s.fill(stride)
	slice := kp / float64(m)
	if C := s.topChunks(m); C > 1 {
		S := s.topSplitSendCost(h, m, stride, slice/float64(C), C)
		t += pipe(S, s.mergeCost(float64(m)*slice, false), C)
	} else {
		t += s.topSplitSendCost(h, m, stride, slice, 1)
		t += s.mergeCost(float64(m)*slice, false)
	}
	g := s.Profile.GammaPerElem
	block := float64(s.N) / float64(m)
	t += g * block
	if s.Quant != nil {
		t += g*block + g*float64(s.N)
	}
	p2m := largestPow2(m)
	if m > p2m {
		prof, f := s.topLink(h, p2m, stride)
		t += modelMsg(prof, block*s.densePerElem()+float64(stream.HeaderBytes), f)
	}
	for d := 1; d < p2m; d *= 2 {
		bytes := float64(d)*(float64(s.N)/float64(p2m))*s.densePerElem() + float64(stream.HeaderBytes)
		prof, f := s.topLink(h, d, stride)
		t += modelMsg(prof, bytes, f)
	}
	if m > p2m {
		prof, f := s.topLink(h, p2m, stride)
		t += modelMsg(prof, float64(s.N)*s.densePerElem()+float64(stream.HeaderBytes), f)
	}
	dense := float64(stream.HeaderBytes) + float64(s.N)*float64(s.valueBytesOr())
	for l := L - 2; l >= 0; l-- {
		t += s.stageBcastCost(h, l, dense)
	}
	return t
}
