package stream_test

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// TestOpenLoopAllocationPin pins, exactly, the allocations of a pooled
// allreduce whose results are never released — the open-loop shape of
// the gor-latency and gor-bandwidth workloads: every rank keeps one Scratch
// across calls, every result leaves the pool for good, and each call's
// inputs differ from the last. Such a pool lives on the buffers the
// exchange hands it and needs its small ones, which is why the near-miss
// rule replaces only a buffer of at least half the requested size. The
// counts were taken before that rule existed and must not move. (The
// split allgather read 125 until its block allgather stopped boxing again
// the list it forwards at each stage after the first: two allocations
// fewer per rank, 109. It read 109 until the allgather stopped copying
// each rank's reduced partition — header, index and value slices — and
// lent the partition itself, taken back into its owner's pool once every
// rank has assembled: three allocations fewer per rank, 85. It read 85
// until the split phase's arrival slice, the allgather's rank-indexed
// parts list and its first block list (allocated and boxed) came from the
// pool: four allocations fewer per rank, 53 — the same count as recursive
// doubling.)
//
// A call on the goroutine transport sometimes costs a scheduler-dependent
// allocation or two on top (a parked receiver, a grown mailbox), so what
// is pinned is the floor: the fewest allocations any of 48 calls made.
func TestOpenLoopAllocationPin(t *testing.T) {
	const P = 8
	cases := []struct {
		name string
		alg  core.Algorithm
		n, k int
		want float64
	}{
		{"rec-doubling", core.SSARRecDouble, 1 << 16, 128, 53},
		{"split-allgather", core.SSARSplitAllgather, 1 << 16, 1 << 10, 53},
	}
	for _, tc := range cases {
		sc := scenario.Scenario{Name: "stream/openloop/" + tc.name, N: tc.n, P: P, Calls: 4,
			Density: scenario.Const(float64(tc.k) / float64(tc.n))}
		calls := sc.Generator(scenario.NewKey(26)).All()
		w := comm.NewWorld(P, simnet.Aries).UseGoroutineTransport()
		pools := make([]*stream.Scratch, P)
		for r := range pools {
			pools[r] = stream.NewScratch()
		}
		call := 0
		op := func() {
			in := calls[call%len(calls)]
			call++
			comm.Run(w, func(p *comm.Proc) *stream.Vector {
				return core.Allreduce(p, in[p.Rank()], core.Options{Algorithm: tc.alg, Scratch: pools[p.Rank()]})
			})
		}
		for call < 2*len(calls) {
			op()
		}
		floor := math.Inf(1)
		for call < 14*len(calls) {
			floor = min(floor, testing.AllocsPerRun(1, op)) // a warm-up call, then the measured one
		}
		if floor != tc.want {
			t.Errorf("%s: %.0f allocations per call, pinned at %.0f", tc.name, floor, tc.want)
		}
	}
}
