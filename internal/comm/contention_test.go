package comm

import (
	"testing"

	"repro/internal/simnet"
)

var (
	cheapIntra  = simnet.Profile{Name: "intra", Alpha: 1e-7, BetaPerByte: 1e-10, GammaPerElem: 1e-10}
	costlyInter = simnet.Profile{Name: "inter", Alpha: 1e-6, BetaPerByte: 1e-9, GammaPerElem: 1e-10}
)

// TestNICContentionScalesInterBandwidth: with a NICSerial cap of 1 and 2
// ranks per node, a world-communicator inter-node send must pay twice the
// bandwidth term (2 contending flows / cap 1); the latency term and
// intra-node sends must be unaffected.
func TestNICContentionScalesInterBandwidth(t *testing.T) {
	const bytes = 1 << 20
	base := simnet.TwoLevel(2, cheapIntra, costlyInter, 0)
	capped := simnet.TwoLevel(2, cheapIntra, costlyInter, 1)

	sendCost := func(topo simnet.Hierarchy, to int) float64 {
		w := NewWorldHier(4, topo)
		times := Run(w, func(p *Proc) float64 {
			if p.Rank() == 0 {
				p.Send(to, 1, nil, bytes)
				return p.Now()
			}
			if p.Rank() == to {
				p.Recv(0, 1)
			}
			return 0
		})
		return times[0]
	}

	free := sendCost(base, 2)
	contended := sendCost(capped, 2)
	wantFree := costlyInter.TransferTime(bytes)
	wantContended := costlyInter.Alpha + 2*costlyInter.BetaPerByte*bytes
	if free != wantFree {
		t.Fatalf("uncapped inter send cost %g, want %g", free, wantFree)
	}
	if contended != wantContended {
		t.Fatalf("capped inter send cost %g, want %g (2x bandwidth)", contended, wantContended)
	}

	// Intra-node sends never pay the factor.
	if got, want := sendCost(capped, 1), cheapIntra.TransferTime(bytes); got != want {
		t.Fatalf("capped intra send cost %g, want %g", got, want)
	}
}

// TestNICContentionLeaderSubUncontended: a sub-communicator with one rank
// per node (the hierarchical leader group) must send inter-node at factor
// 1 even on a capped topology, while the world communicator pays the full
// node population.
func TestNICContentionLeaderSubUncontended(t *testing.T) {
	const bytes = 1 << 20
	w := NewWorldHier(8, simnet.TwoLevel(4, cheapIntra, costlyInter, 1))
	leaders := []int{0, 4}
	times := Run(w, func(p *Proc) [2]float64 {
		var out [2]float64
		// World-communicator inter-node send: 4 node-mates contend.
		if p.Rank() == 0 {
			p.Send(4, 1, nil, bytes)
			out[0] = p.Now()
		} else if p.Rank() == 4 {
			p.Recv(0, 1)
		}
		p.Barrier()
		start := p.Now()
		// Leader sub-communicator: one flow per node, no contention.
		if p.Rank() == 0 || p.Rank() == 4 {
			sub := p.Sub(leaders)
			if sub.Rank() == 0 {
				sub.Send(1, 2, nil, bytes)
				out[1] = sub.Now() - start
			} else {
				sub.Recv(0, 2)
			}
			p.Join(sub)
		}
		return out
	})
	wantWorld := costlyInter.Alpha + 4*costlyInter.BetaPerByte*bytes
	wantLeader := costlyInter.TransferTime(bytes)
	if got := times[0][0]; got != wantWorld {
		t.Fatalf("world inter send cost %g, want %g (4 contending flows)", got, wantWorld)
	}
	if got := times[0][1]; got != wantLeader {
		t.Fatalf("leader sub inter send cost %g, want %g (uncontended)", got, wantLeader)
	}
}

// TestNICContentionRaggedLastNode: ranks on the short last node contend
// only with the ranks that actually exist there.
func TestNICContentionRaggedLastNode(t *testing.T) {
	const bytes = 1 << 20
	w := NewWorldHier(6, simnet.TwoLevel(4, cheapIntra, costlyInter, 1)) // nodes {0..3} and {4,5}
	times := Run(w, func(p *Proc) float64 {
		if p.Rank() == 4 {
			p.Send(0, 1, nil, bytes) // last node hosts only 2 ranks
			return p.Now()
		}
		if p.Rank() == 0 {
			p.Recv(4, 1)
		}
		return 0
	})
	want := costlyInter.Alpha + 2*costlyInter.BetaPerByte*bytes
	if got := times[4]; got != want {
		t.Fatalf("ragged-node inter send cost %g, want %g (2 resident ranks)", got, want)
	}
}

// TestTraceRecordsNICFactor: the send hook must expose the contention
// factor each message was priced with.
func TestTraceRecordsNICFactor(t *testing.T) {
	w := NewWorldHier(4, simnet.TwoLevel(2, cheapIntra, costlyInter, 1))
	l := logSends(w)
	Run(w, func(p *Proc) any {
		switch p.Rank() {
		case 0:
			p.Send(1, 1, nil, 100) // intra
			p.Send(2, 2, nil, 100) // inter, contended
		case 1:
			p.Recv(0, 1)
		case 2:
			p.Recv(0, 2)
		}
		return nil
	})
	byTag := map[int]TraceEvent{}
	for _, ev := range l.all() {
		byTag[ev.Tag] = ev
	}
	if got := byTag[1].NICFactor; got != 1 {
		t.Fatalf("intra message NICFactor = %g, want 1", got)
	}
	if got := byTag[2].NICFactor; got != 2 {
		t.Fatalf("contended inter message NICFactor = %g, want 2", got)
	}
}
