package adapt

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// bucketSchedule builds calls× P per-layer contribution sets over spans:
// full-dimension sparse vectors with support inside their span and
// *ragged* per-rank non-zero counts — the case that would desynchronize
// bucket decisions if anything in PlanBuckets keyed off local state.
func bucketSchedule(seed int64, n, P, calls int, spans [][2]int) [][][]*stream.Vector {
	rng := rand.New(rand.NewSource(seed))
	out := make([][][]*stream.Vector, calls)
	for c := range out {
		out[c] = make([][]*stream.Vector, P)
		for r := 0; r < P; r++ {
			out[c][r] = make([]*stream.Vector, len(spans))
			for li, sp := range spans {
				span := sp[1] - sp[0]
				k := 1 + rng.Intn(span/2+1)
				seen := map[int32]bool{}
				var idx []int32
				var val []float64
				for len(idx) < k {
					ix := int32(sp[0] + rng.Intn(span))
					if seen[ix] {
						continue
					}
					seen[ix] = true
					idx = append(idx, ix)
					val = append(val, float64(rng.Intn(63)+1)/8)
				}
				out[c][r][li] = stream.NewSparse(n, idx, val, stream.OpSum)
			}
		}
	}
	return out
}

// TestPlanBucketsReplicaConsistent: under ragged per-rank sparsity, every
// rank's PlanBuckets must return the identical per-bucket Options on
// every call (the decisions feed collective tag layouts and program
// order), results must match the sequential reference, and per-bucket
// hysteresis must bound switching.
func TestPlanBucketsReplicaConsistent(t *testing.T) {
	const (
		P     = 8
		n     = 1 << 14
		calls = 6
	)
	spans := [][2]int{{0, 4000}, {4000, 6000}, {6000, 16384}}
	sched := bucketSchedule(8106, n, P, calls, spans)
	bs := core.NewBucketScheduler(spans, 6000) // {2} alone, {0,1} fused
	if bs.NumBuckets() != 2 {
		t.Fatalf("%d buckets, want 2", bs.NumBuckets())
	}

	w := comm.NewWorld(P, simnet.Aries)
	ctrls := make([]*Controller, P)
	for r := range ctrls {
		ctrls[r] = NewController(Config{})
	}
	type callPlan struct {
		plans []core.Options
		sums  []*stream.Vector
	}
	perRank := comm.Run(w, func(p *comm.Proc) []callPlan {
		out := make([]callPlan, calls)
		for c, byRank := range sched {
			contribs := byRank[p.Rank()]
			plans := ctrls[p.Rank()].PlanBuckets(p, bs, contribs, core.Options{})
			sums := bs.Drain(p, bs.Issue(p, contribs, plans))
			out[c] = callPlan{plans: plans, sums: sums}
		}
		return out
	})

	for c := 0; c < calls; c++ {
		for r := 1; r < P; r++ {
			if !reflect.DeepEqual(perRank[0][c].plans, perRank[r][c].plans) {
				t.Fatalf("call %d: rank %d plan %+v differs from rank 0's %+v",
					c, r, perRank[r][c].plans, perRank[0][c].plans)
			}
		}
		for b := 0; b < bs.NumBuckets(); b++ {
			fused := make([]*stream.Vector, P)
			for r := range fused {
				fused[r] = bs.Fuse(b, sched[c][r], nil)
			}
			want := make([]float64, n)
			for _, v := range fused {
				for i, x := range v.ToDense() {
					want[i] += x
				}
			}
			for r := 0; r < P; r++ {
				got := perRank[r][c].sums[b].ToDense()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("call %d bucket %d rank %d coord %d: got %g want %g",
							c, b, r, i, got[i], want[i])
					}
				}
			}
		}
	}
	if sw := ctrls[0].BucketSwitches(); sw > 2*bs.NumBuckets() {
		t.Errorf("%d bucket switches over %d calls — hysteresis should bound churn", sw, calls)
	}
}

// TestPlanBucketsPinnedAlgorithm: with a pinned non-Auto algorithm and no
// chunk search requested, PlanBuckets must replicate the caller's Options
// untouched; with Chunks=AutoChunks it may only resolve the chunk degree.
func TestPlanBucketsPinnedAlgorithm(t *testing.T) {
	const (
		P = 4
		n = 1 << 12
	)
	spans := [][2]int{{0, 2000}, {2000, 4096}}
	sched := bucketSchedule(8107, n, P, 3, spans)
	bs := core.NewBucketScheduler(spans, 1)

	w := comm.NewWorld(P, simnet.Aries)
	ctrls := make([]*Controller, P)
	for r := range ctrls {
		ctrls[r] = NewController(Config{})
	}
	pinned := core.Options{Algorithm: core.SSARSplitAllgather, Levels: 0}
	auto := pinned
	auto.Chunks = core.AutoChunks
	plans := comm.Run(w, func(p *comm.Proc) [][]core.Options {
		var out [][]core.Options
		for _, byRank := range sched {
			contribs := byRank[p.Rank()]
			out = append(out, ctrls[p.Rank()].PlanBuckets(p, bs, contribs, pinned))
			out = append(out, ctrls[p.Rank()].PlanBuckets(p, bs, contribs, auto))
		}
		return out
	})
	for r, rounds := range plans {
		for i, round := range rounds {
			for b, o := range round {
				if o.Algorithm != core.SSARSplitAllgather {
					t.Fatalf("rank %d round %d bucket %d: algorithm %v, want pinned SSARSplitAllgather", r, i, b, o.Algorithm)
				}
				if i%2 == 0 && o != pinned {
					t.Fatalf("rank %d round %d bucket %d: pinned options mutated: %+v", r, i, b, o)
				}
				if i%2 == 1 && o.Chunks == core.AutoChunks {
					t.Fatalf("rank %d round %d bucket %d: AutoChunks not resolved", r, i, b)
				}
			}
		}
	}
}

// TestPlanBucketsCountsDecidedCalls: ClusteredCalls counts decided calls
// on the bucketed path as on the blocking one — one per PlanBuckets call
// whose buckets priced with the clustered support model, however many
// buckets it plans, and none for a pinned algorithm, which decides only
// its chunk degree.
func TestPlanBucketsCountsDecidedCalls(t *testing.T) {
	const P, n, calls = 8, 1 << 14, 4
	spans := [][2]int{{0, n / 2}, {n / 2, n}}
	bs := core.NewBucketScheduler(spans, 1) // one bucket per layer
	sched := scheduleOf(41, n, P, calls, func(int) int { return 4000 }, func(int) string { return "clustered" })
	pinned := core.Options{Algorithm: core.SSARSplitAllgather, Chunks: core.AutoChunks}
	counts := comm.Run(comm.NewWorld(P, simnet.Aries), func(p *comm.Proc) [2]int {
		a := NewController(Config{})
		var got [2]int
		for i, opts := range []core.Options{{}, pinned} {
			for _, byRank := range sched {
				v := byRank[p.Rank()]
				a.PlanBuckets(p, bs, []*stream.Vector{v.ExtractRange(0, n/2), v.ExtractRange(n/2, n)}, opts)
			}
			got[i] = a.ClusteredCalls()
		}
		return got
	})
	if got := counts[0]; got != [2]int{calls, calls} {
		t.Errorf("ClusteredCalls read %d after %d clustered Auto PlanBuckets calls of %d buckets and %d after as many pinned ones, want %d both times",
			got[0], calls, bs.NumBuckets(), got[1], calls)
	}
}

// TestFreshControllerPlansWarm: a controller's agreements run on storage
// the rank's world keeps (comm.Keep), so a controller built for one call
// on a warm rank — as a training run with a controller of its own per call
// builds one — costs at most two allocations: the controller itself (its
// sketch inline) and its per-bucket hysteresis state at the first plan.
// On an 8-rank goroutine world, each call builds a fresh controller, kept
// in a slice the ranks share so that it lives on the heap (one the
// compiler keeps on the stack costs only its hysteresis state), and plans
// three buckets with Auto, construction and plan counted together between
// barriers; over calls 2 to 12 the median stays within 2.5 per rank
// (1.25 × 2). It read 2.00, against 3.00 with the sketch allocated
// separately; a controller whose agreements grew workspaces of their own
// read about 9 for the plan alone.
func TestFreshControllerPlansWarm(t *testing.T) {
	const P, n, calls, budget = 8, 1 << 12, 12, 2.5
	spans := [][2]int{{0, 1000}, {1000, 2500}, {2500, n}}
	sched := core.NewBucketScheduler(spans, 1)
	contribs := bucketSchedule(4202, n, P, 1, spans)[0]
	w := comm.NewWorld(P, simnet.Aries).UseGoroutineTransport()
	mallocs := make([]float64, calls)
	ctrls := make([]*Controller, P)
	comm.Run(w, func(p *comm.Proc) any {
		var from, to runtime.MemStats
		dst := make([]core.Options, sched.NumBuckets())
		for c := range calls {
			p.Barrier()
			if p.Rank() == 0 {
				runtime.ReadMemStats(&from)
			}
			p.Barrier()
			ctrls[p.Rank()] = NewController(Config{})
			dst = ctrls[p.Rank()].PlanBucketsInto(p, sched, contribs[p.Rank()], core.Options{Algorithm: core.Auto}, dst)
			p.Barrier()
			if p.Rank() == 0 {
				runtime.ReadMemStats(&to)
				mallocs[c] = float64(to.Mallocs-from.Mallocs) / P
			}
		}
		return nil
	})
	t.Logf("allocations per rank of a fresh controller and its first plan, calls 1 to %d: %.2f", calls, mallocs)
	warm := slices.Clone(mallocs[1:])
	slices.Sort(warm)
	if median := warm[len(warm)/2]; median > budget {
		t.Errorf("a fresh controller and its first plan made %.2f allocations per rank in the median warm call, budget %.2f", median, budget)
	}
}
