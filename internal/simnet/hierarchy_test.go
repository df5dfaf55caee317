package simnet

import (
	"math"
	"reflect"
	"testing"
)

// threeTier is a 4-ranks/node, 3-nodes/group Dragonfly-ish test hierarchy.
var threeTier = Hierarchy{Levels: []Level{
	{GroupSize: 4, Profile: NVLinkLike, Serial: 1},
	{GroupSize: 3, Profile: Aries, Serial: 2},
	{Profile: AriesGlobal},
}}

func TestHierarchyValidate(t *testing.T) {
	if err := threeTier.Validate(); err != nil {
		t.Fatalf("valid hierarchy rejected: %v", err)
	}
	bad := []Hierarchy{
		{},
		{Levels: []Level{{GroupSize: 0, Profile: NVLinkLike}, {Profile: Aries}, {Profile: AriesGlobal}}},
		{Levels: []Level{{GroupSize: 4, Profile: Profile{}}, {Profile: Aries}}},
		{Levels: []Level{{GroupSize: 4, Profile: NVLinkLike, Serial: -1}, {Profile: Aries}}},
		{Levels: make([]Level, MaxLevels+1)},
	}
	for i, h := range bad {
		if err := h.Validate(); err == nil {
			t.Fatalf("bad hierarchy %d accepted", i)
		}
	}
	for _, h := range []Hierarchy{TwoLevel(4, NVLinkLike, Aries, 0), Flat(Aries)} {
		if err := h.Validate(); err != nil {
			t.Fatalf("preset %+v must validate: %v", h, err)
		}
	}
}

func TestHierarchySpanAndGroups(t *testing.T) {
	h := threeTier
	if got := h.Span(0); got != 4 {
		t.Fatalf("Span(0) = %d, want 4", got)
	}
	if got := h.Span(1); got != 12 {
		t.Fatalf("Span(1) = %d, want 12", got)
	}
	if got := h.Span(2); got != math.MaxInt {
		t.Fatalf("Span(2) = %d, want MaxInt", got)
	}
	if got := h.GroupOf(13, 0); got != 3 {
		t.Fatalf("GroupOf(13, 0) = %d, want 3", got)
	}
	if got := h.GroupOf(13, 1); got != 1 {
		t.Fatalf("GroupOf(13, 1) = %d, want 1", got)
	}
	if got := h.Leader(13, 1); got != 12 {
		t.Fatalf("Leader(13, 1) = %d, want 12", got)
	}
	// Ragged world of 14 ranks: last node {12, 13} and last group {12, 13}
	// are both short.
	if got := h.GroupRanks(13, 0, 14); !reflect.DeepEqual(got, []int{12, 13}) {
		t.Fatalf("GroupRanks(13, 0, 14) = %v", got)
	}
	if got := h.GroupRanks(5, 1, 14); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}) {
		t.Fatalf("GroupRanks(5, 1, 14) = %v", got)
	}
	if got := h.LeadersAt(0, 14); !reflect.DeepEqual(got, []int{0, 4, 8, 12}) {
		t.Fatalf("LeadersAt(0, 14) = %v", got)
	}
	if got := h.LeadersAt(1, 14); !reflect.DeepEqual(got, []int{0, 12}) {
		t.Fatalf("LeadersAt(1, 14) = %v", got)
	}
	if got := h.LeadersAt(2, 14); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("LeadersAt(2, 14) = %v", got)
	}
	// Stage participants: node members at level 0, node leaders of the
	// group at level 1, group leaders of the world at level 2.
	if got := h.StageRanks(6, 0, 14); !reflect.DeepEqual(got, []int{4, 5, 6, 7}) {
		t.Fatalf("StageRanks(6, 0, 14) = %v", got)
	}
	if got := h.StageRanks(6, 1, 14); !reflect.DeepEqual(got, []int{0, 4, 8}) {
		t.Fatalf("StageRanks(6, 1, 14) = %v", got)
	}
	if got := h.StageRanks(13, 1, 14); !reflect.DeepEqual(got, []int{12}) {
		t.Fatalf("StageRanks(13, 1, 14) = %v", got)
	}
	if got := h.StageRanks(6, 2, 14); !reflect.DeepEqual(got, []int{0, 12}) {
		t.Fatalf("StageRanks(6, 2, 14) = %v", got)
	}
}

// TestOutermostLevelSpansWorld pins Level.GroupSize's promise: the
// outermost group is the whole world whatever its GroupSize says — a
// positive value whose product falls short of the world (2·2·2 = 8 of 16
// ranks here) must not carve the top level into several groups.
func TestOutermostLevelSpansWorld(t *testing.T) {
	const p = 16
	all := make([]int, p)
	for i := range all {
		all[i] = i
	}
	for _, top := range []int{0, 1, 2, 5, p, 10 * p} {
		h := Hierarchy{Levels: []Level{
			{GroupSize: 2, Profile: NVLinkLike},
			{GroupSize: 2, Profile: Aries},
			{GroupSize: top, Profile: AriesGlobal},
		}}
		if err := h.Validate(); err != nil {
			t.Fatalf("top GroupSize %d: %v", top, err)
		}
		if got := h.Span(2); got != math.MaxInt {
			t.Fatalf("top GroupSize %d: Span(2) = %d, want MaxInt", top, got)
		}
		for r := 0; r < p; r++ {
			if g, l := h.GroupOf(r, 2), h.Leader(r, 2); g != 0 || l != 0 {
				t.Fatalf("top GroupSize %d: rank %d in group %d led by %d, want 0/0", top, r, g, l)
			}
			if got := h.GroupRanks(r, 2, p); !reflect.DeepEqual(got, all) {
				t.Fatalf("top GroupSize %d: GroupRanks(%d, 2) = %v, want all %d ranks", top, r, got, p)
			}
		}
		if got := h.LeadersAt(2, p); !reflect.DeepEqual(got, []int{0}) {
			t.Fatalf("top GroupSize %d: LeadersAt(2) = %v, want [0]", top, got)
		}
		if got := h.StageRanks(15, 2, p); !reflect.DeepEqual(got, []int{0, 4, 8, 12}) {
			t.Fatalf("top GroupSize %d: StageRanks(15, 2) = %v", top, got)
		}
		if got := h.SharedLevel(0, 15); got != 2 {
			t.Fatalf("top GroupSize %d: SharedLevel(0, 15) = %d, want 2", top, got)
		}
	}
	// Depth 1 is all outermost: a flat network has one group.
	one := Hierarchy{Levels: []Level{{GroupSize: 4, Profile: Aries}}}
	if one.Span(0) != math.MaxInt || one.GroupOf(9, 0) != 0 || len(one.LeadersAt(0, p)) != 1 {
		t.Fatalf("depth-1 hierarchy with GroupSize 4 split the world: span %d", one.Span(0))
	}
}

func TestHierarchySharedLevelAndProfile(t *testing.T) {
	h := threeTier
	cases := []struct{ a, b, level int }{
		{0, 0, 0}, {0, 3, 0}, {13, 12, 0}, // same node
		{0, 4, 1}, {3, 11, 1}, // same group, different node
		{0, 12, 2}, {11, 23, 2}, // different groups
	}
	for _, c := range cases {
		if got := h.SharedLevel(c.a, c.b); got != c.level {
			t.Fatalf("SharedLevel(%d, %d) = %d, want %d", c.a, c.b, got, c.level)
		}
		if got := h.ProfileFor(c.a, c.b).Name; got != h.Levels[c.level].Profile.Name {
			t.Fatalf("ProfileFor(%d, %d) = %s, want level-%d profile", c.a, c.b, got, c.level)
		}
	}
}

func TestHierarchySerialFactor(t *testing.T) {
	h := threeTier
	if got := h.SerialFactor(0, 1); got != 1 {
		t.Fatalf("one flow under a cap of 1 = %g, want 1", got)
	}
	if got := h.SerialFactor(0, 4); got != 4 {
		t.Fatalf("4 flows through a cap of 1 = %g, want 4", got)
	}
	if got := h.SerialFactor(1, 2); got != 1 {
		t.Fatalf("2 flows under a cap of 2 = %g, want 1", got)
	}
	if got := h.SerialFactor(1, 3); got != 1.5 {
		t.Fatalf("3 flows through a cap of 2 = %g, want 1.5", got)
	}
	if got := h.SerialFactor(2, 100); got != 1 {
		t.Fatalf("uncapped level factor = %g, want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("active < 1 must panic")
		}
	}()
	h.SerialFactor(0, 0)
}

func TestHierarchyIngressFactor(t *testing.T) {
	h := Hierarchy{Levels: []Level{
		{GroupSize: 4, Profile: NVLinkLike, Serial: 1, IngressSerial: 1},
		{GroupSize: 3, Profile: Aries, Serial: 2, IngressSerial: 2},
		{Profile: AriesGlobal},
	}}
	if err := h.Validate(); err != nil {
		t.Fatalf("ingress-capped hierarchy rejected: %v", err)
	}
	if got := h.IngressFactor(0, 1); got != 1 {
		t.Fatalf("one flow under a cap of 1 = %g, want 1", got)
	}
	if got := h.IngressFactor(0, 4); got != 4 {
		t.Fatalf("4 flows through a cap of 1 = %g, want 4", got)
	}
	if got := h.IngressFactor(1, 2); got != 1 {
		t.Fatalf("2 flows under a cap of 2 = %g, want 1", got)
	}
	if got := h.IngressFactor(1, 3); got != 1.5 {
		t.Fatalf("3 flows through a cap of 2 = %g, want 1.5", got)
	}
	if got := h.IngressFactor(2, 100); got != 1 {
		t.Fatalf("uncapped level factor = %g, want 1", got)
	}
	if !h.HasIngress() {
		t.Fatal("ingress-capped hierarchy must report HasIngress")
	}
	if threeTier.HasIngress() {
		t.Fatal("preset-style hierarchy must not report HasIngress")
	}
	if DragonflyLike(4, 8).HasIngress() {
		t.Fatal("DragonflyLike must not carry ingress caps")
	}
	bad := Hierarchy{Levels: []Level{{GroupSize: 4, Profile: NVLinkLike, IngressSerial: -1}, {Profile: Aries}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative IngressSerial accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("active < 1 must panic")
		}
	}()
	h.IngressFactor(0, 0)
}

func TestHierarchyInduced(t *testing.T) {
	mach := DragonflyLike(4, 2) // nodes of 4, groups of 2 nodes (span 8)
	// Packed 8 ranks onto slots 0..7: two full nodes of one group.
	packed := []int{0, 1, 2, 3, 4, 5, 6, 7}
	ih, ok := mach.Induced(packed)
	if !ok {
		t.Fatal("packed placement must induce a hierarchy")
	}
	if ih.Depth() != 3 || ih.Span(0) != 4 || ih.Span(1) != 8 {
		t.Fatalf("packed induced shape wrong: depth=%d spans=%d/%d", ih.Depth(), ih.Span(0), ih.Span(1))
	}
	if err := ih.Validate(); err != nil {
		t.Fatalf("induced hierarchy must validate: %v", err)
	}
	// Spread 4 ranks one per node across two groups: induced nodes of 1.
	spread := []int{0, 4, 8, 12}
	ih, ok = mach.Induced(spread)
	if !ok {
		t.Fatal("spread placement must induce a hierarchy")
	}
	if ih.Span(0) != 1 || ih.Span(1) != 2 {
		t.Fatalf("spread induced shape wrong: spans=%d/%d", ih.Span(0), ih.Span(1))
	}
	// Induced and machine shared levels must agree rank-for-rank.
	for a := range spread {
		for b := range spread {
			if got, want := ih.SharedLevel(a, b), mach.SharedLevel(spread[a], spread[b]); got != want {
				t.Fatalf("induced SharedLevel(%d, %d) = %d, machine says %d", a, b, got, want)
			}
		}
	}
	// Irregular placement (3 slots on one node, 1 on another) has no
	// nested structure.
	if _, ok := mach.Induced([]int{0, 1, 2, 4}); ok {
		t.Fatal("irregular placement must not induce a hierarchy")
	}
	// Unsorted or empty slot lists are rejected.
	if _, ok := mach.Induced([]int{4, 0}); ok {
		t.Fatal("unsorted slots must be rejected")
	}
	if _, ok := mach.Induced(nil); ok {
		t.Fatal("empty slots must be rejected")
	}
}

func TestDragonflyLikePreset(t *testing.T) {
	h := DragonflyLike(4, 8)
	if err := h.Validate(); err != nil {
		t.Fatalf("DragonflyLike must validate: %v", err)
	}
	if h.Depth() != 3 || h.Span(0) != 4 || h.Span(1) != 32 {
		t.Fatalf("DragonflyLike shape wrong: depth=%d spans=%d/%d", h.Depth(), h.Span(0), h.Span(1))
	}
	if h.Levels[2].Profile.Name != AriesGlobal.Name {
		t.Fatalf("outermost profile = %s, want %s", h.Levels[2].Profile.Name, AriesGlobal.Name)
	}
	if _, err := ProfileByName("aries-global"); err != nil {
		t.Fatalf("AriesGlobal must be resolvable by name: %v", err)
	}
}
