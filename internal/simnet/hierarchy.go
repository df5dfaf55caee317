package simnet

import (
	"fmt"
	"math"
)

// Level is one tier of a machine Hierarchy, ordered from innermost
// (NVLink-like intra-node links) to outermost (global links). A level
// groups GroupSize units of the previous level — ranks at level 0, level-0
// groups at level 1, and so on — into one group wired by Profile.
type Level struct {
	// GroupSize is the number of previous-level units (ranks at level 0)
	// composing one group at this level. Must be >= 1 on every level except
	// the outermost, where 0 (the idiomatic value) means "the rest of the
	// machine": the outermost group always spans the whole world.
	GroupSize int
	// Profile prices messages whose innermost shared group is at this
	// level: level 0 prices messages within one node, level 1 messages
	// between nodes of the same group, and the outermost level messages
	// crossing the top-tier links.
	Profile Profile
	// Serial is the egress serialization cap of one group at this level:
	// the number of concurrent full-rate flows one group can drive across
	// its boundary (level 0: the per-node NIC cap, level 1: a rack or
	// Dragonfly-group uplink cap). A message escaping the group pays the
	// fair-share bandwidth factor active/Serial when more than Serial
	// co-located flows are active (see Hierarchy.SerialFactor). Zero
	// disables contention at this level; the outermost level's cap is
	// meaningless (nothing escapes the machine) and ignored.
	Serial int
	// IngressSerial is the receiver-side mirror of Serial: the number of
	// concurrent full-rate flows one group can absorb across its boundary
	// before incast serialization sets in. A message entering the group
	// pays the fair-share factor active/IngressSerial when more than
	// IngressSerial flows converge on it (see Hierarchy.IngressFactor).
	// Zero — the value on every built-in preset — disables ingress
	// contention at this level, so single-tenant pricing is unchanged.
	IngressSerial int
}

// Hierarchy is the one description of a machine: an ordered list of Levels
// from innermost to outermost. Ranks are grouped into consecutive blocks
// bottom-up — Span(l) consecutive ranks share a level-l group — and a
// message between two ranks is priced by the profile of the innermost
// level whose group both share, paying each crossed level's egress
// serialization factor on its bandwidth term.
//
// The flat α–β network of the paper's analysis is the depth-1 hierarchy
// (Flat), multi-GPU nodes on one network the depth-2 one (TwoLevel), and
// the three-tier shape of a Dragonfly machine is DragonflyLike.
type Hierarchy struct {
	// Levels holds the tiers, innermost first. See Validate for the
	// structural requirements.
	Levels []Level
}

// MaxLevels bounds the hierarchy depth. Real machines have a handful of
// tiers; the bound keeps the collectives' per-level tag budget trivially
// safe.
const MaxLevels = 8

// Validate reports whether the hierarchy is usable: between 1 and
// MaxLevels levels, every profile named, every GroupSize >= 1 except the
// outermost (which may be 0, meaning the whole machine), and no negative
// Serial cap.
func (h Hierarchy) Validate() error {
	if len(h.Levels) == 0 {
		return fmt.Errorf("simnet: hierarchy needs at least one level")
	}
	if len(h.Levels) > MaxLevels {
		return fmt.Errorf("simnet: hierarchy has %d levels, max %d", len(h.Levels), MaxLevels)
	}
	for i, lv := range h.Levels {
		if lv.Profile.Name == "" {
			return fmt.Errorf("simnet: hierarchy level %d profile must be named", i)
		}
		if lv.Serial < 0 {
			return fmt.Errorf("simnet: hierarchy level %d Serial must be >= 0, got %d", i, lv.Serial)
		}
		if lv.IngressSerial < 0 {
			return fmt.Errorf("simnet: hierarchy level %d IngressSerial must be >= 0, got %d", i, lv.IngressSerial)
		}
		if i < len(h.Levels)-1 && lv.GroupSize < 1 {
			return fmt.Errorf("simnet: hierarchy level %d needs GroupSize >= 1, got %d", i, lv.GroupSize)
		}
		if i == len(h.Levels)-1 && lv.GroupSize < 0 {
			return fmt.Errorf("simnet: outermost GroupSize must be >= 0, got %d", lv.GroupSize)
		}
	}
	return nil
}

// Depth returns the number of levels.
func (h Hierarchy) Depth() int { return len(h.Levels) }

// Span returns the number of consecutive ranks forming one level-l group.
// The outermost level (whatever its GroupSize, see Level) and any product
// overflowing int span the whole world and report math.MaxInt.
func (h Hierarchy) Span(l int) int {
	if l >= len(h.Levels)-1 {
		return math.MaxInt
	}
	span := 1
	for i := 0; i <= l; i++ {
		g := h.Levels[i].GroupSize
		if g <= 0 || span > math.MaxInt/g {
			return math.MaxInt
		}
		span *= g
	}
	return span
}

// GroupOf returns the index of the level-l group hosting the given rank.
func (h Hierarchy) GroupOf(rank, l int) int {
	span := h.Span(l)
	if span == math.MaxInt {
		return 0
	}
	return rank / span
}

// SharedLevel returns the innermost level at which two ranks share a
// group — the locality of a message between them: 0 for node-mates, 1 for
// ranks in the same level-1 group but different nodes, and so on up to
// Depth()-1 (the outermost level always covers everyone).
func (h Hierarchy) SharedLevel(a, b int) int {
	for l := 0; l < len(h.Levels)-1; l++ {
		if h.GroupOf(a, l) == h.GroupOf(b, l) {
			return l
		}
	}
	return len(h.Levels) - 1
}

// ProfileFor returns the profile pricing a message from rank a to rank b:
// the profile of their shared level.
func (h Hierarchy) ProfileFor(a, b int) Profile {
	return h.Levels[h.SharedLevel(a, b)].Profile
}

// SerialFactor returns the dimensionless bandwidth multiplier one flow
// escaping a level-`level` group pays when `active` co-located flows drive
// the group's egress concurrently: 1 when the level has no cap (Serial ==
// 0) or the flows fit under it, active/Serial (> 1) otherwise. active must
// be >= 1 (a sender is always active itself). TwoLevel's per-node NIC cap
// is SerialFactor at level 0.
func (h Hierarchy) SerialFactor(level, active int) float64 {
	if active < 1 {
		panic("simnet: SerialFactor needs active >= 1")
	}
	s := h.Levels[level].Serial
	if s <= 0 || active <= s {
		return 1
	}
	return float64(active) / float64(s)
}

// IngressFactor returns the dimensionless bandwidth multiplier one flow
// entering a level-`level` group pays when `active` flows converge on the
// group's ingress concurrently: 1 when the level has no cap
// (IngressSerial == 0) or the flows fit under it, active/IngressSerial
// (> 1) otherwise — the receiver-side (incast) mirror of SerialFactor.
// active must be >= 1 (a receiver always absorbs its own flow).
func (h Hierarchy) IngressFactor(level, active int) float64 {
	if active < 1 {
		panic("simnet: IngressFactor needs active >= 1")
	}
	s := h.Levels[level].IngressSerial
	if s <= 0 || active <= s {
		return 1
	}
	return float64(active) / float64(s)
}

// HasIngress reports whether any level carries an ingress serialization
// cap. All built-in presets report false, so ingress pricing stays off —
// and single-tenant runs stay byte-identical — unless a caller opts in.
func (h Hierarchy) HasIngress() bool {
	for _, lv := range h.Levels {
		if lv.IngressSerial > 0 {
			return true
		}
	}
	return false
}

// Induced derives the hierarchy a job gang-placed on the given machine
// slots observes over its own ranks: job rank i lives on slots[i], and
// induced level l groups the job ranks sharing a level-l machine group,
// carrying that machine level's Profile and serialization caps. slots must
// be strictly ascending (so job ranks cluster contiguously by machine
// group). Returns ok=false when the placement is irregular — some level
// hosts a different number of job slots per occupied machine group — in
// which case no nested hierarchy describes the job's structure and the job
// should run flat. When ok, the induced hierarchy's SharedLevel agrees
// with the machine's on every pair of job ranks, so structure-driven
// algorithm choices match machine-level pricing.
func (h Hierarchy) Induced(slots []int) (induced Hierarchy, ok bool) {
	if len(slots) == 0 {
		return Hierarchy{}, false
	}
	for i := 1; i < len(slots); i++ {
		if slots[i] <= slots[i-1] {
			return Hierarchy{}, false
		}
	}
	levels := make([]Level, len(h.Levels))
	prev := 1 // induced span of the previous level
	for l := 0; l < len(h.Levels)-1; l++ {
		c, uniform := h.uniformGroupCount(slots, l)
		if !uniform || c%prev != 0 {
			return Hierarchy{}, false
		}
		lv := h.Levels[l]
		lv.GroupSize = c / prev
		levels[l] = lv
		prev = c
	}
	top := h.Levels[len(h.Levels)-1]
	top.GroupSize = 0
	levels[len(levels)-1] = top
	return Hierarchy{Levels: levels}, true
}

// uniformGroupCount returns the number of slots per occupied level-l
// machine group when that count is uniform across the occupied groups.
// slots must be ascending, so occupied groups appear as contiguous runs.
func (h Hierarchy) uniformGroupCount(slots []int, l int) (count int, uniform bool) {
	want, run := 0, 0
	g := h.GroupOf(slots[0], l)
	for _, s := range slots {
		if sg := h.GroupOf(s, l); sg != g {
			if want == 0 {
				want = run
			} else if run != want {
				return 0, false
			}
			g, run = sg, 0
		}
		run++
	}
	if want == 0 {
		want = run
	} else if run != want {
		return 0, false
	}
	return want, true
}

// Leader returns the leader rank — the lowest rank — of the level-l group
// hosting the given rank. Leadership nests: the leader of a level-l group
// is also the leader of its own group at every level below.
func (h Hierarchy) Leader(rank, l int) int {
	span := h.Span(l)
	if span == math.MaxInt {
		return 0
	}
	return rank / span * span
}

// GroupRanks returns the ranks of the level-l group hosting the given
// rank, ascending, clipped to a world of p ranks (the last group of a
// level may be ragged).
func (h Hierarchy) GroupRanks(rank, l, p int) []int {
	lo := h.Leader(rank, l)
	hi := p
	if span := h.Span(l); span != math.MaxInt && lo+span < p {
		hi = lo + span
	}
	out := make([]int, 0, hi-lo)
	for r := lo; r < hi; r++ {
		out = append(out, r)
	}
	return out
}

// LeadersAt returns the leader ranks of every level-l group of a world of
// p ranks, in ascending order.
func (h Hierarchy) LeadersAt(l, p int) []int {
	span := h.Span(l)
	if span == math.MaxInt {
		return []int{0}
	}
	out := make([]int, 0, (p+span-1)/span)
	for r := 0; r < p; r += span {
		out = append(out, r)
	}
	return out
}

// StageRanks returns the participants of the level-l phase of a recursive
// hierarchical collective within the given rank's level-l group: the
// leaders of its level-(l-1) subgroups — all member ranks when l is 0 —
// ascending, clipped to a world of p ranks. The first entry is always the
// group's own leader.
func (h Hierarchy) StageRanks(rank, l, p int) []int {
	step := 1
	if l > 0 {
		step = h.Span(l - 1)
	}
	lo := h.Leader(rank, l)
	hi := p
	if span := h.Span(l); span != math.MaxInt && lo+span < p {
		hi = lo + span
	}
	out := make([]int, 0, (hi-lo+step-1)/step)
	for r := lo; r < hi; r += step {
		out = append(out, r)
	}
	return out
}

// Flat returns the depth-1 hierarchy of a single network: every message is
// priced by profile and nothing contends — the machine the paper's §5.2–5.3
// analysis assumes.
func Flat(profile Profile) Hierarchy {
	return Hierarchy{Levels: []Level{{Profile: profile}}}
}

// TwoLevel returns the two-tier machine the paper actually targets
// (multi-GPU nodes on Greina, Piz Daint's nodes): consecutive groups of
// ranksPerNode ranks share a node wired by intra, and inter prices
// everything between nodes. nicSerial is the per-node NIC cap — the number
// of concurrent inter-node sends one node drives at full inter bandwidth
// (level 0's Serial); zero reproduces the paper's full-bisection
// assumption.
func TwoLevel(ranksPerNode int, intra, inter Profile, nicSerial int) Hierarchy {
	return Hierarchy{Levels: []Level{
		{GroupSize: ranksPerNode, Profile: intra, Serial: nicSerial},
		{Profile: inter},
	}}
}

// AriesGlobal models the global (inter-group) optical links of a Dragonfly
// machine: one extra switch traversal of latency and a per-node effective
// share of the tapered global bandwidth roughly 4x below the local Aries
// links.
var AriesGlobal = Profile{
	Name: "aries-global", Alpha: 2.6e-6, BetaPerByte: 4e-10,
	GammaPerElem: 2.5e-10, SparseComputeFactor: 4,
}

// DragonflyLike returns the three-tier hierarchy of a Dragonfly machine in
// the class of Piz Daint: NVLink-like links inside nodes of ranksPerNode
// ranks behind a single full-rate NIC (Serial 1), Aries links between the
// nodesPerGroup nodes of one group with a two-flow tapered group uplink
// (Serial 2), and AriesGlobal links between groups.
func DragonflyLike(ranksPerNode, nodesPerGroup int) Hierarchy {
	return Hierarchy{Levels: []Level{
		{GroupSize: ranksPerNode, Profile: NVLinkLike, Serial: 1},
		{GroupSize: nodesPerGroup, Profile: Aries, Serial: 2},
		{Profile: AriesGlobal},
	}}
}
