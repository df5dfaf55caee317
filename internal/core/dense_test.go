package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/comm"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// agreementWorlds builds the three backends at P ranks; close releases the
// TCP world's sockets.
func agreementWorlds(t *testing.T, P int) (worlds map[string]*comm.World, close func()) {
	t.Helper()
	tcp, err := comm.NewWorldTCP(P, simnet.Aries, comm.TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*comm.World{
		"sim":       comm.NewWorld(P, testProfile),
		"goroutine": comm.NewWorld(P, testProfile).UseGoroutineTransport(),
		"tcp":       tcp,
	}, func() { tcp.Close() }
}

// mallocsPerRankCall runs body calls times on every rank after warm calls,
// and returns the process-wide Mallocs delta over the timed calls per rank
// per call. The count is read on rank 0 between barriers, so every rank's
// allocations — and on TCP the reader goroutines' — are in it. Whatever
// else the process does only adds to a count, so the least of three
// repetitions is taken.
func mallocsPerRankCall(w *comm.World, P, warm, calls int, body func(p *comm.Proc)) float64 {
	least := math.Inf(1)
	for range 3 {
		var before, after runtime.MemStats
		comm.Run(w, func(p *comm.Proc) int {
			for range warm {
				body(p)
			}
			p.Barrier()
			if p.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
			p.Barrier()
			for range calls {
				body(p)
			}
			p.Barrier()
			if p.Rank() == 0 {
				runtime.ReadMemStats(&after)
			}
			return 0
		})
		least = min(least, float64(after.Mallocs-before.Mallocs)/float64(P*calls))
	}
	return least
}

// TestRecDoubleAgreementAllocations: Auto's one-word max-agreement is a
// dense recursive doubling, and it copies only at its first send — every
// later stage and the fold-out send on the arrival the rank has just
// absorbed. So a call costs a rank at most 3 allocations (its result, the
// first send's copy and that copy's interface box; fewer with a fold), on
// every backend and on a folded world (P = 6) as on a power of two. The
// count is the collective's own: on TCP the decoded copy of each arrival
// is the transport's, so what the same exchange costs with a payload boxed
// once is subtracted (nothing, in process). The budget allows 0.02 per
// rank per call for background noise; copying on every stage, as before,
// read 7 (5 at P = 6).
func TestRecDoubleAgreementAllocations(t *testing.T) {
	const warm, calls = 20, 400
	for _, P := range []int{8, 6} {
		worlds, closeTCP := agreementWorlds(t, P)
		for name, w := range worlds {
			agree := func(p *comm.Proc) {
				AllreduceDenseRecDouble(p, []float64{float64(p.Rank())}, stream.OpMax, 8, p.NextTagBase())
			}
			box := any([]float64{0}) // the transport's share: the same exchange, nothing copied or boxed
			exchange := func(p *comm.Proc) {
				butterfly(p, P, p.NextTagBase(), false,
					func(int, int) (any, int) { return box, 8 },
					func(int, int, any) {}, nil)
			}
			own := mallocsPerRankCall(w, P, warm, calls, agree) - mallocsPerRankCall(w, P, warm, calls, exchange)
			t.Logf("P=%d %s: %.2f allocations per rank per call", P, name, own)
			if own > 3.02 {
				t.Errorf("P=%d %s: one-word agreement makes %.2f allocations per rank, budget 3", P, name, own)
			}
		}
		closeTCP()
	}
}

// TestRecDoubleResultsOwnTheirStorage: sending arrivals on must leave every
// rank a result no other rank holds, and must not forward an arrival before
// it is absorbed. On every backend and on P = 8 and P = 6, each rank's sum
// is exact; writing to one rank's result leaves every other rank's
// unchanged; and later calls leave an earlier call's results unchanged.
func TestRecDoubleResultsOwnTheirStorage(t *testing.T) {
	const n = 5
	for _, P := range []int{8, 6} {
		want := make([]float64, n)
		for r := range P {
			for i := range want {
				want[i] += float64((r + 1) << i)
			}
		}
		worlds, closeTCP := agreementWorlds(t, P)
		for name, w := range worlds {
			ctx := fmt.Sprintf("P=%d %s", P, name)
			run := func() [][]float64 {
				return comm.Run(w, func(p *comm.Proc) []float64 {
					x := make([]float64, n)
					for i := range x {
						x[i] = float64((p.Rank() + 1) << i)
					}
					return AllreduceDense(p, x, stream.OpSum)
				})
			}
			first := run()
			for r, res := range first {
				for i := range want {
					if res[i] != want[i] {
						t.Fatalf("%s: rank %d coord %d = %g, want %g", ctx, r, i, res[i], want[i])
					}
				}
			}
			for r := range first {
				first[r][0] = -1
				for o, res := range first {
					if o != r && res[0] != want[0] {
						t.Fatalf("%s: writing rank %d's result changed rank %d's", ctx, r, o)
					}
				}
				first[r][0] = want[0]
			}
			for range 3 {
				run()
			}
			for r, res := range first {
				for i := range want {
					if res[i] != want[i] {
						t.Fatalf("%s: rank %d's earlier result changed at coord %d: %g", ctx, r, i, res[i])
					}
				}
			}
		}
		closeTCP()
	}
}
