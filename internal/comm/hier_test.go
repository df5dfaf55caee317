package comm

import (
	"testing"

	"repro/internal/simnet"
)

var (
	fastGroup = simnet.Profile{Name: "group", Alpha: 1e-6, BetaPerByte: 1e-9,
		GammaPerElem: 1e-10, SparseComputeFactor: 4}
	slowGlobal = simnet.Profile{Name: "global", Alpha: 1e-5, BetaPerByte: 1e-8,
		GammaPerElem: 1e-10, SparseComputeFactor: 4}
	testHier = simnet.Hierarchy{Levels: []simnet.Level{
		{GroupSize: 2, Profile: fastIntra, Serial: 1},
		{GroupSize: 2, Profile: fastGroup, Serial: 1},
		{Profile: slowGlobal},
	}}
)

// TestHierWorldPricesBySharedLevel: on a 3-level world, a message must be
// priced by the profile of the innermost level its ranks share.
func TestHierWorldPricesBySharedLevel(t *testing.T) {
	const bytes = 1 << 20
	w := NewWorldHier(8, testHier)
	// Rank 0 sends to its node peer (1), a group peer (2), and a global
	// peer (4); each hop must be priced by its level's profile alone
	// (single sequential sends: factor 1 everywhere since the "communicator"
	// proxy charges contention only on escape levels — verified separately).
	times := Run(w, func(p *Proc) []float64 {
		switch p.Rank() {
		case 0:
			var out []float64
			for _, dst := range []int{1, 2, 4} {
				t0 := p.Now()
				p.Send(dst, dst, nil, bytes)
				out = append(out, p.Now()-t0)
			}
			return out
		case 1, 2, 4:
			p.Recv(0, p.Rank())
		}
		return nil
	})
	// The whole world is one communicator: a level-0 escape contends with
	// the 2 node-mates (cap 1 → factor 2), a level-1 escape additionally
	// with the 4 group-mates (cap 1 → factor 4, total 8).
	wantIntra := fastIntra.TransferTime(bytes)
	wantGroup := fastGroup.ContendedTransferTime(bytes, 2)
	wantGlobal := slowGlobal.ContendedTransferTime(bytes, 8)
	got := times[0]
	if got[0] != wantIntra {
		t.Fatalf("intra-node send cost %g, want %g", got[0], wantIntra)
	}
	if got[1] != wantGroup {
		t.Fatalf("intra-group send cost %g, want %g", got[1], wantGroup)
	}
	if got[2] != wantGlobal {
		t.Fatalf("global send cost %g, want %g", got[2], wantGlobal)
	}
	if got := w.Hierarchy().Depth(); got != testHier.Depth() {
		t.Fatalf("hierarchy world reports depth %d, want %d", got, testHier.Depth())
	}
	if w.Profile().Name != "global" {
		t.Fatal("hierarchy world default profile must be the outermost profile")
	}
}

// TestHierLeaderSubUncontended: a sub-communicator with one rank per group
// must pay no egress serialization at the levels it is alone in — the
// asymmetry the hierarchical collectives' leader phases exploit.
func TestHierLeaderSubUncontended(t *testing.T) {
	const bytes = 1 << 20
	w := NewWorldHier(8, testHier)
	times := Run(w, func(p *Proc) float64 {
		if p.Rank()%4 != 0 {
			return 0
		}
		// Group leaders 0 and 4: one rank per level-0 and level-1 group.
		sub := p.Sub([]int{0, 4})
		t0 := sub.Now()
		if sub.Rank() == 0 {
			sub.Send(1, 3, nil, bytes)
		} else {
			sub.Recv(0, 3)
		}
		elapsed := sub.Now() - t0
		p.Join(sub)
		return elapsed
	})
	if want := slowGlobal.TransferTime(bytes); times[0] != want {
		t.Fatalf("leader-phase global send cost %g, want uncontended %g", times[0], want)
	}
}

// TestSubLevelGroups: SubLevel must carve the node, group, and world
// communicators out of the hierarchy.
func TestSubLevelGroups(t *testing.T) {
	w := NewWorldHier(7, testHier) // ragged: nodes {0,1},{2,3},{4,5},{6}; groups {0..3},{4..6}
	Run(w, func(p *Proc) any {
		node := p.SubLevel(0)
		wantNode := 2
		if p.Rank() == 6 {
			wantNode = 1
		}
		if node.Size() != wantNode {
			panic("node communicator size wrong")
		}
		group := p.SubLevel(1)
		wantGroup := 4
		if p.Rank() >= 4 {
			wantGroup = 3
		}
		if group.Size() != wantGroup {
			panic("group communicator size wrong")
		}
		world := p.SubLevel(2)
		if world.Size() != 7 {
			panic("outermost communicator must span the world")
		}
		return nil
	})
}

// TestTraceRecordsLevel: the send hook must report each message's shared
// level and total contention factor.
func TestTraceRecordsLevel(t *testing.T) {
	w := NewWorldHier(8, testHier)
	l := logSends(w)
	Run(w, func(p *Proc) any {
		switch p.Rank() {
		case 0:
			p.Send(1, 1, nil, 100)
			p.Send(2, 2, nil, 100)
			p.Send(4, 4, nil, 100)
		case 1, 2, 4:
			p.Recv(0, p.Rank())
		}
		return nil
	})
	want := map[int]struct {
		level  int
		factor float64
	}{1: {0, 1}, 2: {1, 2}, 4: {2, 8}}
	events := l.all()
	if len(events) != len(want) {
		t.Fatalf("%d sends reported, want %d", len(events), len(want))
	}
	for _, ev := range events {
		w, ok := want[ev.Dst]
		if !ok {
			t.Fatalf("unexpected destination %d", ev.Dst)
		}
		if ev.Level != w.level || ev.NICFactor != w.factor {
			t.Fatalf("dst %d reported level=%d factor=%g, want level=%d factor=%g",
				ev.Dst, ev.Level, ev.NICFactor, w.level, w.factor)
		}
	}
}

func TestNewWorldHierValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid hierarchy must panic")
		}
	}()
	NewWorldHier(4, simnet.Hierarchy{})
}
