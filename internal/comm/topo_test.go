package comm

import (
	"testing"

	"repro/internal/simnet"
)

var (
	slowInter = simnet.Profile{Name: "slow", Alpha: 1e-5, BetaPerByte: 1e-8,
		GammaPerElem: 1e-10, SparseComputeFactor: 4}
	fastIntra = simnet.Profile{Name: "fast", Alpha: 1e-7, BetaPerByte: 1e-11,
		GammaPerElem: 1e-10, SparseComputeFactor: 4}
	testTopo = simnet.TwoLevel(2, fastIntra, slowInter, 0)
)

func TestTopoWorldCostsByNodeLocality(t *testing.T) {
	const bytes = 1 << 20
	w := NewWorldHier(4, testTopo)
	// Rank 0 sends to its node peer (1) and to a remote rank (2); the
	// sender-side injection cost must differ by the profile ratio.
	times := Run(w, func(p *Proc) float64 {
		switch p.Rank() {
		case 0:
			t0 := p.Now()
			p.Send(1, 1, nil, bytes)
			intra := p.Now() - t0
			t0 = p.Now()
			p.Send(2, 2, nil, bytes)
			inter := p.Now() - t0
			return inter / intra
		case 1:
			p.Recv(0, 1)
		case 2:
			p.Recv(0, 2)
		}
		return 0
	})
	wantRatio := slowInter.TransferTime(bytes) / fastIntra.TransferTime(bytes)
	if got := times[0]; got != wantRatio {
		t.Fatalf("inter/intra cost ratio = %g, want %g", got, wantRatio)
	}
	if h := w.Hierarchy(); h.Depth() != 2 || h.Span(0) != 2 {
		t.Fatalf("two-level world must report its hierarchy, got %+v", h)
	}
	if w.Profile().Name != "slow" {
		t.Fatal("topology world default profile must be the inter profile")
	}
}

// TestFlatWorldReportsNoTopology: a flat world — and any sub-communicator
// view, whose grouping is defined over world ranks — reports the depth-1
// hierarchy of its profile, never nil.
func TestFlatWorldReportsNoTopology(t *testing.T) {
	flat := func(h *simnet.Hierarchy) bool {
		return h != nil && h.Depth() == 1 && h.Levels[0].Profile == slowInter
	}
	w := NewWorld(2, slowInter)
	if !flat(w.Hierarchy()) {
		t.Fatalf("flat world reports %+v, want one level of its profile", w.Hierarchy())
	}
	for _, w := range []*World{w, NewWorldHier(2, testTopo)} {
		Run(w, func(p *Proc) any {
			if p.Hierarchy() != w.Hierarchy() {
				panic("a world proc must report the world's own hierarchy")
			}
			if !flat(p.Sub([]int{0, 1}).Hierarchy()) {
				panic("a sub-communicator view must report the flat hierarchy")
			}
			return nil
		})
	}
}

func TestNewWorldTopoValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid topology must panic")
		}
	}()
	NewWorldHier(4, simnet.TwoLevel(0, fastIntra, slowInter, 0))
}

func TestSubCommunicatorRanksAndExchange(t *testing.T) {
	w := NewWorld(6, slowInter)
	// Odd world ranks form a group; each sends its group rank to the next
	// group member (ring), verifying translation of both Send and Recv.
	results := Run(w, func(p *Proc) int {
		if p.Rank()%2 == 0 {
			return -1
		}
		sub := p.Sub([]int{1, 3, 5})
		if sub.Size() != 3 {
			panic("sub size wrong")
		}
		if sub.WorldRank() != p.Rank() {
			panic("sub world rank wrong")
		}
		r := sub.Rank()
		next := (r + 1) % 3
		prev := (r + 2) % 3
		sub.Send(next, 7, r, 8)
		got := sub.Recv(prev, 7).Payload.(int)
		sub.Barrier()
		p.Join(sub)
		return got
	})
	for i, want := range map[int]int{1: 2, 3: 0, 5: 1} {
		if results[i] != want {
			t.Fatalf("group member at world rank %d received %d, want %d", i, results[i], want)
		}
	}
}

func TestSubCommunicatorClockFoldsBack(t *testing.T) {
	w := NewWorld(4, slowInter)
	times := Run(w, func(p *Proc) float64 {
		var ranks []int
		if p.Rank() < 2 {
			ranks = []int{0, 1}
		} else {
			ranks = []int{2, 3}
		}
		sub := p.Sub(ranks)
		sub.Send((sub.Rank()+1)%2, 3, nil, 1000)
		sub.Recv((sub.Rank()+1)%2, 3)
		p.Join(sub)
		return p.Now()
	})
	want := slowInter.TransferTime(1000)
	for r, got := range times {
		if got < want {
			t.Fatalf("rank %d clock %g did not absorb sub-phase time %g", r, got, want)
		}
	}
}

func TestSubValidation(t *testing.T) {
	w := NewWorld(4, slowInter)
	Run(w, func(p *Proc) any {
		if p.Rank() != 0 {
			return nil
		}
		mustPanic := func(name string, f func()) {
			defer func() {
				if recover() == nil {
					panic("expected panic: " + name)
				}
			}()
			f()
		}
		mustPanic("caller absent", func() { p.Sub([]int{1, 2}) })
		mustPanic("unsorted", func() { p.Sub([]int{2, 0}) })
		mustPanic("out of range", func() { p.Sub([]int{0, 9}) })
		mustPanic("nested", func() { p.Sub([]int{0, 1}).Sub([]int{0}) })
		return nil
	})
}
