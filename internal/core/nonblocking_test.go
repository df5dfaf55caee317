package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/stream"
)

func TestIAllreduceMatchesBlocking(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	P := 8
	inputs := patterns[0].gen(rng, 1000, 50, P)
	want := refSum(inputs)
	for _, alg := range []Algorithm{SSARRecDouble, SSARSplitAllgather, DSARSplitAllgather} {
		w := comm.NewWorld(P, testProfile)
		results := comm.Run(w, func(p *comm.Proc) *stream.Vector {
			req := IAllreduce(p, inputs[p.Rank()], Options{Algorithm: alg})
			return req.Wait(p)
		})
		for r, res := range results {
			got := res.ToDense()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("alg=%s rank=%d coord=%d: got %g want %g", alg, r, i, got[i], want[i])
				}
			}
		}
	}
}

func TestIAllreduceOverlapsCompute(t *testing.T) {
	// A nonblocking allreduce overlapped with local compute should cost
	// max(compute, collective), not the sum.
	rng := rand.New(rand.NewSource(53))
	P := 4
	inputs := patterns[0].gen(rng, 10000, 100, P)

	w := comm.NewWorld(P, testProfile)
	comm.Run(w, func(p *comm.Proc) any {
		return Allreduce(p, inputs[p.Rank()], Options{Algorithm: SSARRecDouble})
	})
	collectiveT := w.MaxTime()

	localWork := collectiveT * 0.8
	comm.Run(w, func(p *comm.Proc) any {
		req := IAllreduce(p, inputs[p.Rank()], Options{Algorithm: SSARRecDouble})
		p.Compute(localWork)
		return req.Wait(p)
	})
	overlapped := w.MaxTime()
	if overlapped > collectiveT*1.05 {
		t.Fatalf("overlapped time %g, want ≈ collective time %g (compute hidden)", overlapped, collectiveT)
	}

	// Blocking version serializes: collective + compute.
	comm.Run(w, func(p *comm.Proc) any {
		res := Allreduce(p, inputs[p.Rank()], Options{Algorithm: SSARRecDouble})
		p.Compute(localWork)
		return res
	})
	serial := w.MaxTime()
	if serial < collectiveT+localWork*0.99 {
		t.Fatalf("serial time %g, want ≥ %g", serial, collectiveT+localWork)
	}
}

func TestTwoOutstandingNonblockingOps(t *testing.T) {
	// MPI-3 allows multiple outstanding collectives; tags must not collide
	// and both must complete with correct results.
	rng := rand.New(rand.NewSource(55))
	P := 4
	a := patterns[0].gen(rng, 500, 30, P)
	b := patterns[2].gen(rng, 500, 30, P)
	wantA, wantB := refSum(a), refSum(b)

	w := comm.NewWorld(P, testProfile)
	results := comm.Run(w, func(p *comm.Proc) [2]*stream.Vector {
		r1 := IAllreduce(p, a[p.Rank()], Options{Algorithm: SSARRecDouble})
		r2 := IAllreduce(p, b[p.Rank()], Options{Algorithm: SSARSplitAllgather})
		// Wait in reverse issue order to stress tag separation.
		v2 := r2.Wait(p)
		v1 := r1.Wait(p)
		return [2]*stream.Vector{v1, v2}
	})
	for r, pair := range results {
		gotA, gotB := pair[0].ToDense(), pair[1].ToDense()
		for i := range wantA {
			if gotA[i] != wantA[i] || gotB[i] != wantB[i] {
				t.Fatalf("rank %d coord %d: outstanding ops interfered", r, i)
			}
		}
	}
}

func TestRequestTest(t *testing.T) {
	P := 2
	inputs := []*stream.Vector{
		stream.NewSparse(10, []int32{1}, []float64{1}, stream.OpSum),
		stream.NewSparse(10, []int32{2}, []float64{2}, stream.OpSum),
	}
	w := comm.NewWorld(P, testProfile)
	comm.Run(w, func(p *comm.Proc) any {
		req := IAllreduce(p, inputs[p.Rank()], Options{Algorithm: SSARRecDouble})
		res := req.Wait(p)
		if !req.Test() {
			panic("Test must report true after Wait")
		}
		if res.Get(1) != 1 || res.Get(2) != 2 {
			panic("wrong result")
		}
		return nil
	})
}

func TestISparseAllgather(t *testing.T) {
	P, n := 8, 800
	w := comm.NewWorld(P, testProfile)
	results := comm.Run(w, func(p *comm.Proc) *stream.Vector {
		lo, hi := partition(n, P, p.Rank())
		idx := []int32{int32(lo), int32(hi - 1)}
		val := []float64{float64(lo + 1), float64(hi)}
		mine := stream.NewSparse(n, idx, val, stream.OpSum)
		req := ISparseAllgather(p, mine)
		return req.Wait(p)
	})
	for r, res := range results {
		if res.NNZ() != 2*P {
			t.Fatalf("rank %d: gathered %d entries, want %d", r, res.NNZ(), 2*P)
		}
		if !res.Equal(results[0]) {
			t.Fatalf("rank %d: allgather results differ", r)
		}
	}
}

func TestSparseAllgatherBlocking(t *testing.T) {
	P, n := 5, 100 // non-power-of-two
	w := comm.NewWorld(P, testProfile)
	results := comm.Run(w, func(p *comm.Proc) *stream.Vector {
		mine := stream.NewSparse(n, []int32{int32(p.Rank())}, []float64{float64(p.Rank() + 1)}, stream.OpSum)
		return SparseAllgather(p, mine)
	})
	for r, res := range results {
		if res.NNZ() != P {
			t.Fatalf("rank %d: nnz=%d want %d", r, res.NNZ(), P)
		}
		for i := 0; i < P; i++ {
			if res.Get(i) != float64(i+1) {
				t.Fatalf("rank %d: coord %d = %g", r, i, res.Get(i))
			}
		}
	}
}

func TestBcast(t *testing.T) {
	for _, P := range []int{2, 3, 8, 13} {
		for root := 0; root < P; root += P/2 + 1 {
			w := comm.NewWorld(P, testProfile)
			results := comm.Run(w, func(p *comm.Proc) []float64 {
				var x []float64
				if p.Rank() == root {
					x = []float64{1, 2, 3, float64(root)}
				}
				return Bcast(p, x, root, 8)
			})
			for r, res := range results {
				if len(res) != 4 || res[3] != float64(root) {
					t.Fatalf("P=%d root=%d rank=%d: got %v", P, root, r, res)
				}
			}
		}
	}
}

// TestNonblockingPanicReachesRun: a collective that panics on its own
// goroutine — here, rank 2's input has dimension 32 where every other
// rank's has 64 — poisons the world and re-raises from Wait on the rank's
// goroutine, so Run panics with the rank attached instead of the process
// dying, and every goroutine the call started is gone afterwards. On the
// simulator and goroutine backends, for IAllreduce, ISparseAllgather and a
// persistent bucket run. A chunked split allgather's merge stage runs on a
// goroutine of its own on the goroutine backend; a panic there reaches Run
// the same way.
func TestNonblockingPanicReachesRun(t *testing.T) {
	const P = 4
	input := func(p *comm.Proc) *stream.Vector {
		n := 64
		if p.Rank() == 2 {
			n = 32
		}
		return stream.NewSparse(n, []int32{int32(p.Rank())}, []float64{1}, stream.OpSum)
	}
	sched := NewBucketScheduler([][2]int{{0, 32}}, 1)
	ops := map[string]func(p *comm.Proc){
		"IAllreduce": func(p *comm.Proc) {
			IAllreduce(p, input(p), Options{Algorithm: SSARRecDouble}).Wait(p)
		},
		"ISparseAllgather": func(p *comm.Proc) {
			ISparseAllgather(p, input(p)).Wait(p)
		},
		"chunked split": func(p *comm.Proc) {
			Allreduce(p, input(p), Options{Algorithm: SSARSplitAllgather, Chunks: 2})
		},
		"BucketRun": func(p *comm.Proc) {
			run := sched.NewRun()
			defer run.Close()
			opts := []Options{{Algorithm: SSARRecDouble}}
			run.Drain(p, run.Issue(p, []*stream.Vector{input(p)}, opts))
		},
	}
	worlds := map[string]*comm.World{
		"sim":       comm.NewWorld(P, testProfile),
		"goroutine": comm.NewWorld(P, testProfile).UseGoroutineTransport(),
	}
	for wname, w := range worlds {
		for oname, op := range ops {
			ctx := wname + " " + oname
			wait := comm.LeakCheck()
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				comm.Run(w, func(p *comm.Proc) any { op(p); return nil })
				return ""
			}()
			want := "rank 2 panicked"
			if oname == "ISparseAllgather" || oname == "chunked split" {
				want = "panicked" // every rank meets rank 2's block or slice; the lowest reports
			}
			if !strings.Contains(msg, want) || !strings.Contains(msg, "dimension mismatch") {
				t.Errorf("%s: Run panicked with %q, want %q with a dimension mismatch", ctx, msg, want)
			}
			if err := wait(2 * time.Second); err != nil {
				t.Errorf("%s: Run left %v", ctx, err)
			}
		}
	}
}
