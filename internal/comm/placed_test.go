package comm

import (
	"testing"

	"repro/internal/simnet"
)

// placedMach is a 2-ranks/node, 2-nodes/group test machine with a
// single-flow NIC, a two-flow group uplink, and matching ingress caps.
var placedMach = simnet.Hierarchy{Levels: []simnet.Level{
	{GroupSize: 2, Profile: cheapIntra, Serial: 1, IngressSerial: 1},
	{GroupSize: 2, Profile: costlyInter, Serial: 2, IngressSerial: 2},
	{Profile: simnet.AriesGlobal},
}}

// TestPlacedWorldPricesByMachineSlots: a placed world must price messages
// by the machine locality of the ranks' slots, not by the rank numbers.
func TestPlacedWorldPricesByMachineSlots(t *testing.T) {
	const bytes = 1 << 20
	// Ranks 0 and 1 land on node-mate slots 4 and 5; ranks 2 and 3 on the
	// next node of the same machine group.
	w := NewWorldPlaced(4, placedMach, []int{4, 5, 6, 7})
	times := Run(w, func(p *Proc) float64 {
		if p.Rank() == 0 {
			p.Send(1, 1, nil, bytes)
			return p.Now()
		}
		if p.Rank() == 1 {
			p.Recv(0, 1)
		}
		return 0
	})
	if got, want := times[0], cheapIntra.TransferTime(bytes); got != want {
		t.Fatalf("node-mate slots priced %g, want intra %g", got, want)
	}
	// The induced hierarchy mirrors the machine locality.
	ih := w.Hierarchy()
	if ih.Depth() != placedMach.Depth() {
		t.Fatalf("regular placement must report an induced hierarchy, got %+v", ih)
	}
	if ih.SharedLevel(0, 1) != 0 || ih.SharedLevel(0, 2) != 1 {
		t.Fatalf("induced locality wrong: %d/%d", ih.SharedLevel(0, 1), ih.SharedLevel(0, 2))
	}
}

// TestPlacedWorldStaticProxy: without an ActivitySource a placed world
// falls back to the communicator-size proxy counted over machine groups —
// two node-mate ranks contending for a cap-1 NIC pay factor 2.
func TestPlacedWorldStaticProxy(t *testing.T) {
	const bytes = 1 << 20
	w := NewWorldPlaced(4, placedMach, []int{0, 1, 2, 3})
	times := Run(w, func(p *Proc) float64 {
		if p.Rank() == 0 {
			p.Send(2, 1, nil, bytes) // crosses the node boundary
			return p.Now()
		}
		if p.Rank() == 2 {
			p.Recv(0, 1)
		}
		return 0
	})
	want := costlyInter.Alpha + 2*costlyInter.BetaPerByte*bytes
	if got := times[0]; got != want {
		t.Fatalf("placed inter send cost %g, want %g (2 node-mates, cap 1)", got, want)
	}
}

// fixedActivity returns constant flow counts for every slot and level.
type fixedActivity struct{ egress, ingress int }

// EgressFlows implements ActivitySource.
func (f fixedActivity) EgressFlows(slot, level int) int { return f.egress }

// IngressFlows implements ActivitySource.
func (f fixedActivity) IngressFlows(slot, level int) int { return f.ingress }

// TestPlacedWorldActivitySource: an installed ActivitySource must replace
// the static proxy on both the egress and ingress sides of the crossed
// levels.
func TestPlacedWorldActivitySource(t *testing.T) {
	const bytes = 1 << 20
	send := func(egress, ingress int) float64 {
		w := NewWorldPlaced(4, placedMach, []int{0, 1, 2, 3})
		w.SetActivitySource(fixedActivity{egress: egress, ingress: ingress})
		times := Run(w, func(p *Proc) float64 {
			if p.Rank() == 0 {
				p.Send(2, 1, nil, bytes)
				return p.Now()
			}
			if p.Rank() == 2 {
				p.Recv(0, 1)
			}
			return 0
		})
		return times[0]
	}
	// 3 observed egress flows through the cap-1 NIC, single ingress flow:
	// factor 3 on the bandwidth term.
	if got, want := send(3, 1), costlyInter.Alpha+3*costlyInter.BetaPerByte*bytes; got != want {
		t.Fatalf("observed-egress cost %g, want %g", got, want)
	}
	// Adding 2 converging ingress flows through the cap-1 ingress doubles
	// it again: factor 3 (egress) x 2 (ingress).
	if got, want := send(3, 2), costlyInter.Alpha+6*costlyInter.BetaPerByte*bytes; got != want {
		t.Fatalf("observed-ingress cost %g, want %g", got, want)
	}
	// A single observed flow on both sides is contention-free.
	if got, want := send(1, 1), costlyInter.TransferTime(bytes); got != want {
		t.Fatalf("single-flow cost %g, want %g", got, want)
	}
}

// TestPlacedWorldIrregularRunsFlat: an irregular placement reports the
// flat hierarchy of the machine's outermost profile (flat algorithm
// structure) but is still priced by machine locality.
func TestPlacedWorldIrregularRunsFlat(t *testing.T) {
	w := NewWorldPlaced(3, placedMach, []int{0, 1, 2})
	if h := w.Hierarchy(); h.Depth() != 1 || h.Levels[0].Profile != w.Profile() {
		t.Fatalf("irregular placement must report the flat hierarchy, got %+v", h)
	}
	const bytes = 1 << 10
	times := Run(w, func(p *Proc) float64 {
		if p.Rank() == 0 {
			p.Send(1, 1, nil, bytes)
			return p.Now()
		}
		if p.Rank() == 1 {
			p.Recv(0, 1)
		}
		return 0
	})
	if got, want := times[0], cheapIntra.TransferTime(bytes); got != want {
		t.Fatalf("irregular node-mate send cost %g, want intra %g", got, want)
	}
}

// TestPlacedWorldRejectsBadSlots: slot lists must match the world size and
// be strictly ascending.
func TestPlacedWorldRejectsBadSlots(t *testing.T) {
	for name, slots := range map[string][]int{
		"short":      {0, 1},
		"descending": {0, 2, 1},
		"duplicate":  {0, 1, 1},
		"negative":   {-1, 0, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s slot list accepted", name)
				}
			}()
			NewWorldPlaced(3, placedMach, slots)
		}()
	}
}
