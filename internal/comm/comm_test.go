package comm

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/simnet"
	"repro/internal/stream"
)

// zeroLatency is a profile where time does not advance, for pure
// message-plumbing tests.
var zeroLatency = simnet.Profile{Name: "zero"}

func TestPingPong(t *testing.T) {
	w := NewWorld(2, zeroLatency)
	out := Run(w, func(p *Proc) string {
		if p.Rank() == 0 {
			p.Send(1, 7, "ping", 4)
			return p.Recv(1, 7).Payload.(string)
		}
		m := p.Recv(0, 7)
		p.Send(0, 7, "pong", 4)
		return m.Payload.(string)
	})
	if out[0] != "pong" || out[1] != "ping" {
		t.Fatalf("got %v", out)
	}
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	w := NewWorld(2, zeroLatency)
	out := Run(w, func(p *Proc) [2]int {
		if p.Rank() == 0 {
			p.Send(1, 1, 100, 0)
			p.Send(1, 2, 200, 0)
			return [2]int{}
		}
		// Receive in reverse tag order: matching must buffer tag 1.
		b := p.Recv(0, 2).Payload.(int)
		a := p.Recv(0, 1).Payload.(int)
		return [2]int{a, b}
	})
	if out[1] != [2]int{100, 200} {
		t.Fatalf("got %v", out[1])
	}
}

func TestSourceMatching(t *testing.T) {
	w := NewWorld(3, zeroLatency)
	out := Run(w, func(p *Proc) int {
		switch p.Rank() {
		case 0:
			p.Send(2, 5, 10, 0)
		case 1:
			p.Send(2, 5, 20, 0)
		case 2:
			// Same tag, distinct sources: must match by source.
			a := p.Recv(1, 5).Payload.(int)
			b := p.Recv(0, 5).Payload.(int)
			return a*100 + b
		}
		return 0
	})
	if out[2] != 2010 {
		t.Fatalf("got %d, want 2010", out[2])
	}
}

func TestVirtualClockAlphaBeta(t *testing.T) {
	prof := simnet.Profile{Alpha: 1e-6, BetaPerByte: 1e-9}
	w := NewWorld(2, prof)
	Run(w, func(p *Proc) any {
		if p.Rank() == 0 {
			p.Send(1, 0, nil, 1000)
		} else {
			p.Recv(0, 0)
		}
		return nil
	})
	want := 1e-6 + 1e-6 // α + β·1000
	for rank, got := range w.Times() {
		if math.Abs(got-want) > 1e-15 {
			t.Fatalf("rank %d time = %g, want %g", rank, got, want)
		}
	}
}

func TestReceiverWaitsForSender(t *testing.T) {
	prof := simnet.Profile{Alpha: 1e-6}
	w := NewWorld(2, prof)
	Run(w, func(p *Proc) any {
		if p.Rank() == 0 {
			p.Compute(5e-6) // sender is busy first
			p.Send(1, 0, nil, 0)
		} else {
			p.Recv(0, 0) // arrival = 5µs + α
		}
		return nil
	})
	if got, want := w.Times()[1], 6e-6; math.Abs(got-want) > 1e-15 {
		t.Fatalf("receiver time = %g, want %g", got, want)
	}
}

func TestSendRecvSymmetricExchange(t *testing.T) {
	prof := simnet.Profile{Alpha: 2e-6, BetaPerByte: 1e-9}
	w := NewWorld(2, prof)
	Run(w, func(p *Proc) any {
		peer := 1 - p.Rank()
		p.SendRecv(peer, 3, nil, 500)
		return nil
	})
	// Both ranks advance α+βL sending, and the peer's message arrives at
	// the same completed time → exchange costs one α+βL on each side.
	want := 2e-6 + 500e-9
	for rank, got := range w.Times() {
		if math.Abs(got-want) > 1e-15 {
			t.Fatalf("rank %d time = %g, want %g", rank, got, want)
		}
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	prof := simnet.Profile{Alpha: 1e-6}
	w := NewWorld(8, prof)
	Run(w, func(p *Proc) any {
		p.Compute(float64(p.Rank()) * 1e-6) // skewed start
		p.Barrier()
		return nil
	})
	t0 := w.Times()[0]
	for rank, got := range w.Times() {
		if math.Abs(got-t0) > 1e-12 {
			t.Fatalf("rank %d time %g differs from rank 0 %g after barrier", rank, got, t0)
		}
	}
	// Barrier must dominate the slowest rank's start time.
	if t0 < 7e-6 {
		t.Fatalf("barrier completed at %g, before slowest rank started", t0)
	}
}

func TestNextTagBaseConsistentAcrossRanks(t *testing.T) {
	w := NewWorld(4, zeroLatency)
	out := Run(w, func(p *Proc) [3]int {
		return [3]int{p.NextTagBase(), p.NextTagBase(), p.NextTagBase()}
	})
	for r := 1; r < 4; r++ {
		if out[r] != out[0] {
			t.Fatalf("rank %d tag bases %v differ from rank 0 %v", r, out[r], out[0])
		}
	}
	if out[0][0] == out[0][1] {
		t.Fatal("tag bases must be distinct per invocation")
	}
}

func TestForkJoinOverlapSemantics(t *testing.T) {
	prof := simnet.Profile{Alpha: 1e-6}
	w := NewWorld(2, prof)
	Run(w, func(p *Proc) any {
		tag := p.NextTagBase()
		f := p.Fork()
		done := make(chan struct{})
		go func() {
			defer close(done)
			if f.Rank() == 0 {
				f.Send(1, tag, nil, 0)
			} else {
				f.Recv(0, tag)
			}
			f.Compute(10e-6) // 10µs of "communication work"
		}()
		p.Compute(4e-6) // overlapped local compute
		<-done
		p.Join(f)
		return nil
	})
	// Overlap: total = max(4µs, comm+10µs), not the sum.
	for rank, got := range w.Times() {
		if got > 12e-6 || got < 10e-6 {
			t.Fatalf("rank %d time = %g, want ~11µs (overlapped), not 15µs (serial)", rank, got)
		}
	}
}

func TestRunCollectsResultsInRankOrder(t *testing.T) {
	w := NewWorld(16, zeroLatency)
	out := Run(w, func(p *Proc) int { return p.Rank() * p.Rank() })
	for r, v := range out {
		if v != r*r {
			t.Fatalf("result[%d] = %d, want %d", r, v, r*r)
		}
	}
}

func TestRunReusableAcrossCalls(t *testing.T) {
	w := NewWorld(4, zeroLatency)
	var counter atomic.Int64
	for i := 0; i < 3; i++ {
		Run(w, func(p *Proc) any {
			peer := p.Rank() ^ 1
			p.SendRecv(peer, 9, p.Rank(), 0)
			counter.Add(1)
			return nil
		})
	}
	if counter.Load() != 12 {
		t.Fatalf("ran %d rank-programs, want 12", counter.Load())
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic to propagate from rank goroutine")
		}
	}()
	w := NewWorld(2, zeroLatency)
	Run(w, func(p *Proc) any {
		if p.Rank() == 1 {
			panic("boom")
		}
		return nil
	})
}

func TestManyRanksStress(t *testing.T) {
	// All-to-all with 32 ranks; exercises matching under contention.
	w := NewWorld(32, zeroLatency)
	out := Run(w, func(p *Proc) int {
		tag := p.NextTagBase()
		for to := 0; to < p.Size(); to++ {
			if to != p.Rank() {
				p.Send(to, tag, p.Rank(), 0)
			}
		}
		sum := p.Rank()
		for from := 0; from < p.Size(); from++ {
			if from != p.Rank() {
				sum += p.Recv(from, tag).Payload.(int)
			}
		}
		return sum
	})
	want := 31 * 32 / 2
	for r, v := range out {
		if v != want {
			t.Fatalf("rank %d sum = %d, want %d", r, v, want)
		}
	}
}

func TestPanicUnblocksPeersInRecv(t *testing.T) {
	// Rank 1 panics while rank 0 blocks waiting for its message; the world
	// must poison itself so Run terminates and re-raises the root cause.
	defer func() {
		e := recover()
		if e == nil {
			t.Fatal("expected panic to propagate")
		}
		msg, _ := e.(string)
		if !strings.Contains(msg, "boom") {
			t.Fatalf("expected root-cause panic, got %v", e)
		}
	}()
	w := NewWorld(2, zeroLatency)
	Run(w, func(p *Proc) any {
		if p.Rank() == 1 {
			panic("boom")
		}
		p.Recv(1, 0) // never satisfied; must be unblocked by poisoning
		return nil
	})
}

func TestWorldRecoversAfterPoisonedRun(t *testing.T) {
	w := NewWorld(2, zeroLatency)
	func() {
		defer func() { recover() }()
		Run(w, func(p *Proc) any {
			if p.Rank() == 0 {
				panic("first run dies")
			}
			p.Recv(0, 0)
			return nil
		})
	}()
	// A fresh Run on the same world must work.
	out := Run(w, func(p *Proc) int {
		peer := 1 - p.Rank()
		return p.SendRecv(peer, 1, p.Rank()+10, 0).Payload.(int)
	})
	if out[0] != 11 || out[1] != 10 {
		t.Fatalf("post-poison run wrong: %v", out)
	}
}

// TestRankPools: a rank's Proc draws on the one pool the world keeps for
// it — the same object in every Run, shared by a Sub view of the rank, and
// what was left in it is there at the next Run — while a forked Proc, from
// Fork or re-synced by ForkInto over a view that had the pool, has none of
// its parent's. A Run that re-raises a rank's panic replaces every pool
// with an empty one, so storage an aborted op left in a pool is never
// handed out again. Keep follows the same rules: a value kept under a key
// is the rank's own, found again at the next Run and by a Sub view, never
// by a fork (which builds anew at every call), and dropped with the pool
// by a Run that panicked.
func TestRankPools(t *testing.T) {
	const P = 4
	w := NewWorld(P, zeroLatency)
	all := []int{0, 1, 2, 3}
	type keyT struct{}
	type view struct {
		pool, world, sub, fork, reforked *stream.Scratch
		held                             int
		kept, subKept, forkKept          *int
		forkAgain                        *int
	}
	views := func(leave bool) []view {
		return Run(w, func(p *Proc) view {
			v := view{pool: p.Pool(), world: w.Pool(p.Rank()), held: p.Pool().Buffers()}
			build := func() *int { return new(int) }
			v.kept = Keep(p, keyT{}, build)
			s := p.Sub(all)
			v.sub = s.Pool()
			v.subKept = Keep(s, keyT{}, build)
			f := p.Fork()
			v.fork = f.Pool()
			v.forkKept, v.forkAgain = Keep(f, keyT{}, build), Keep(f, keyT{}, build)
			p.ForkInto(s)
			v.reforked = s.Pool()
			if leave {
				p.Pool().PutDense(make([]float64, 8))
			}
			return v
		})
	}
	first, second := views(true), views(false)
	for r := range P {
		v := first[r]
		switch {
		case v.pool == nil:
			t.Fatalf("rank %d has no pool", r)
		case v.world != v.pool || v.sub != v.pool:
			t.Errorf("rank %d: World.Pool and a Sub view's Pool are not the rank's pool", r)
		case v.fork == v.pool || v.reforked == v.pool:
			t.Errorf("rank %d: a forked Proc has its parent's pool", r)
		case second[r].pool != v.pool || second[r].held != 1:
			t.Errorf("rank %d: the second Run's pool is not the first's with its buffer (%d buffers)", r, second[r].held)
		case v.subKept != v.kept || second[r].kept != v.kept:
			t.Errorf("rank %d: a Sub view or the second Run does not find the rank's kept value", r)
		case v.forkKept == v.kept || v.forkAgain == v.forkKept:
			t.Errorf("rank %d: a forked Proc kept a value", r)
		}
		for q := range r {
			if first[q].pool == v.pool || first[q].kept == v.kept {
				t.Errorf("ranks %d and %d share a pool or a kept value", q, r)
			}
		}
	}
	func() {
		defer func() { recover() }()
		Run(w, func(p *Proc) any {
			if p.Rank() == 1 {
				panic("the op dies")
			}
			p.Recv(1, 0)
			return nil
		})
	}()
	for r, v := range views(false) {
		if v.pool == first[r].pool || v.held != 0 || v.kept == first[r].kept {
			t.Errorf("rank %d kept its pool (%d buffers) or its value through a Run that panicked", r, v.held)
		}
	}
}
