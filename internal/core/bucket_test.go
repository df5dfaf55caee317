package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/quant"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// TestBucketSchedulerComposition pins the boundary rule: layers are
// walked in backprop (reverse) order and greedily accumulated until the
// bucket reaches the target coordinate count, with each bucket's layer
// list restored to ascending model order.
func TestBucketSchedulerComposition(t *testing.T) {
	spans := [][2]int{{0, 100}, {100, 160}, {160, 300}, {300, 310}, {310, 400}}
	cases := []struct {
		coords int
		want   [][]int
	}{
		// coords<=0: every layer its own bucket, in reverse order.
		{0, [][]int{{4}, {3}, {2}, {1}, {0}}},
		// 100: {4}=90+{3}=10 reach 100; {2}=140 alone; {1}=60+{0}=100.
		{100, [][]int{{3, 4}, {2}, {0, 1}}},
		// Huge target: everything in one bucket.
		{1 << 20, [][]int{{0, 1, 2, 3, 4}}},
	}
	for _, tc := range cases {
		s := NewBucketScheduler(spans, tc.coords)
		if s.NumBuckets() != len(tc.want) {
			t.Fatalf("coords=%d: %d buckets, want %d", tc.coords, s.NumBuckets(), len(tc.want))
		}
		for b := range tc.want {
			if !reflect.DeepEqual(s.Layers(b), tc.want[b]) {
				t.Errorf("coords=%d bucket %d: layers %v, want %v", tc.coords, b, s.Layers(b), tc.want[b])
			}
		}
	}
}

// TestBucketCoordsSizing checks the sizing rule's shape: more ranks or a
// higher-latency link want bigger buckets; a degenerate profile fuses
// everything.
func TestBucketCoordsSizing(t *testing.T) {
	base := CostScenario{N: 1 << 20, P: 8, Profile: simnet.Aries}
	c8 := BucketCoords(base)
	if c8 < 1 || c8 > base.N {
		t.Fatalf("BucketCoords out of range: %d", c8)
	}
	big := base
	big.P = 64
	if c64 := BucketCoords(big); c64 <= c8 {
		t.Errorf("more ranks should want bigger buckets: P=64 -> %d, P=8 -> %d", c64, c8)
	}
	slow := base
	slow.Profile = simnet.GigE
	if BucketCoords(slow) >= c8 {
		// GigE's alpha/beta ratio is lower than Aries', so its latency
		// floor amortizes at smaller buckets.
		t.Errorf("GigE should want smaller buckets than Aries")
	}
	degenerate := base
	degenerate.Profile = simnet.Profile{}
	if got := BucketCoords(degenerate); got != base.N {
		t.Errorf("degenerate profile: %d, want N=%d", got, base.N)
	}
}

// bucketInputs builds P ragged per-layer contribution sets over spans:
// full-dimension vectors with support inside their span, dyadic values.
func bucketInputs(rng *rand.Rand, n int, spans [][2]int, P int) [][]*stream.Vector {
	inputs := make([][]*stream.Vector, P)
	for r := range inputs {
		inputs[r] = make([]*stream.Vector, len(spans))
		for li, sp := range spans {
			span := sp[1] - sp[0]
			k := 0
			if span > 0 {
				k = 1 + rng.Intn(span) // ragged across ranks and layers
			}
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
				val = append(val, dyadic(rng))
			}
			inputs[r][li] = stream.NewSparse(n, idx, val, stream.OpSum)
		}
	}
	return inputs
}

// TestBucketSchedulerIssueDrain: fusing + nonblocking issue + drain must
// reproduce the sequential reference sum of each bucket's layers on the
// simulator, and on the goroutine transport and loopback TCP the simulator's
// results byte for byte (wire form: representation, indices, value bits),
// with per-bucket and replicated Options. Two buckets are in flight at once,
// so on TCP two forked Procs of every rank share the rank's connections and
// its frame buffer; ci.sh runs this under -race.
func TestBucketSchedulerIssueDrain(t *testing.T) {
	const n = 900
	spans := [][2]int{{0, 300}, {300, 340}, {340, 700}, {700, 900}}
	rng := rand.New(rand.NewSource(8104))
	P := 6
	inputs := bucketInputs(rng, n, spans, P)
	s := NewBucketScheduler(spans, 350) // {3}+{2} reach 560; {1}+{0} = 340 tail
	if s.NumBuckets() != 2 {
		t.Fatalf("%d buckets, want 2", s.NumBuckets())
	}

	// Reference: sum of every rank's fused bucket vector.
	wantBucket := make([][]float64, s.NumBuckets())
	for b := range wantBucket {
		fused := make([]*stream.Vector, P)
		for r := range fused {
			fused[r] = s.Fuse(b, inputs[r], nil)
		}
		wantBucket[b] = refSum(fused)
	}

	tcp, err := comm.NewWorldTCP(P, simnet.Aries, comm.TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	worlds := []struct {
		name string
		mk   func() *comm.World
	}{
		{"sim", func() *comm.World { return comm.NewWorld(P, testProfile) }}, // first: the others are compared to it
		{"goroutine", func() *comm.World { return comm.NewWorld(P, simnet.Aries).UseGoroutineTransport() }},
		{"tcp", func() *comm.World { return tcp }},
	}
	optCases := [][]Options{
		nil,
		{{Algorithm: SSARSplitAllgather, Chunks: 2}},
		{{Algorithm: SSARSplitAllgather, Chunks: 3}, {Algorithm: SSARRecDouble}},
	}
	for oi, opts := range optCases {
		var sim [][]*stream.Vector
		for _, wc := range worlds {
			results := comm.Run(wc.mk(), func(p *comm.Proc) []*stream.Vector {
				return s.Drain(p, s.Issue(p, inputs[p.Rank()], opts))
			})
			if sim == nil {
				sim = results
			}
			for r, sums := range results {
				for b, sum := range sums {
					got := sum.ToDense()
					for i, want := range wantBucket[b] {
						if got[i] != want {
							t.Fatalf("%s opts=%d rank=%d bucket=%d coord=%d: got %g want %g",
								wc.name, oi, r, b, i, got[i], want)
						}
					}
					if !bytes.Equal(sum.AppendWire(nil), sim[r][b].AppendWire(nil)) {
						t.Fatalf("%s opts=%d rank=%d bucket=%d: result differs from the simulator's in wire form", wc.name, oi, r, b)
					}
				}
			}
		}
	}
}

// poison empties sc, overwriting every buffer it held — to its full
// capacity — with NaN values and out-of-range indices, so that a result
// still sharing storage with anything released into the pool changes.
func poison(sc *stream.Scratch) {
	empty := stream.Zero(1, stream.OpSum)
	for sc.Buffers() > 0 {
		idx, val := empty.CloneInto(sc).Pairs() // a header and the smallest idx and val buffers
		fillCap(idx, -1)
		fillCap(val, math.NaN())
		fillCap(sc.GrabDense(0, 0), math.NaN())
	}
}

// fillCap sets every element of b's backing array up to its capacity.
func fillCap[T any](b []T, x T) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = x
	}
}

// TestBucketIssueOwnsFusedInput: with one pool per bucket, Issue fuses
// each bucket into its pool and the bucket's collective releases the fused
// input there when it finishes. Over every algorithm, world size and
// in-process backend, flat and at full depth, pooled buckets must return exactly what a blocking
// unpooled allreduce of each fused bucket does — on a second step, too,
// after the first step's results were released into the pools and rebuilt
// from them — and must keep returning it after every buffer left in the
// pools is overwritten with NaN, which no result may share storage with.
func TestBucketIssueOwnsFusedInput(t *testing.T) {
	const n = 600
	spans := [][2]int{{0, 150}, {150, 200}, {200, 420}, {420, 600}}
	s := NewBucketScheduler(spans, 200) // {2,3} and {0,1}
	B := s.NumBuckets()
	mach := simnet.TwoLevel(2, simnet.NVLinkLike, simnet.Aries, 1)
	backends := []struct {
		name string
		mk   func(P int) *comm.World
	}{
		{"sim", func(P int) *comm.World { return comm.NewWorldHier(P, mach) }},
		{"goroutine", func(P int) *comm.World { return comm.NewWorldHier(P, mach).UseGoroutineTransport() }},
	}
	rng := rand.New(rand.NewSource(8106))
	for alg := Auto; alg <= RingSparse; alg++ {
		for _, levels := range []int{0, AllLevels} {
			opts := []Options{
				{Algorithm: alg, Levels: levels, Chunks: 2, Seed: 3},
				{Algorithm: alg, Levels: levels, Quant: &quant.Config{Bits: 4, Bucket: 64, Norm: quant.NormMax}, Seed: 4},
			}
			for _, P := range []int{1, 2, 3, 8} {
				inputs := bucketInputs(rng, n, spans, P)
				for _, be := range backends {
					plain := comm.Run(be.mk(P), func(p *comm.Proc) []*stream.Vector {
						sums := make([]*stream.Vector, B)
						for b := range sums {
							sums[b] = Allreduce(p, s.Fuse(b, inputs[p.Rank()], nil), opts[b])
						}
						return sums
					})
					pools := make([][]*stream.Scratch, P)
					pooled := comm.Run(be.mk(P), func(p *comm.Proc) []*stream.Vector {
						pools[p.Rank()] = make([]*stream.Scratch, B)
						o := append([]Options(nil), opts...)
						for b := range o {
							o[b].Scratch = stream.NewScratch()
							pools[p.Rank()][b] = o[b].Scratch
						}
						for b, sum := range s.Drain(p, s.Issue(p, inputs[p.Rank()], o)) {
							o[b].Scratch.Release(sum)
						}
						return s.Drain(p, s.Issue(p, inputs[p.Rank()], o))
					})
					check := func(when string) {
						for r := range plain {
							for b := range plain[r] {
								if !bytes.Equal(pooled[r][b].AppendWire(nil), plain[r][b].AppendWire(nil)) {
									t.Fatalf("%s P=%d %s rank %d bucket %d: pooled result differs from unpooled %s",
										ChoiceName(alg, levels), P, be.name, r, b, when)
								}
							}
						}
					}
					check("as returned")
					for _, ps := range pools {
						for _, sc := range ps {
							poison(sc)
						}
					}
					check("once the pools were overwritten")
				}
			}
		}
	}
}

// TestBucketIssueStripsSharedPool: buckets in flight together must not
// share a pool, so a Scratch that two buckets' options name — or that one
// replicated Options carries to every bucket — is never touched.
func TestBucketIssueStripsSharedPool(t *testing.T) {
	spans := [][2]int{{0, 10}, {10, 20}, {20, 30}}
	s := NewBucketScheduler(spans, 1) // one bucket per layer
	inputs := bucketInputs(rand.New(rand.NewSource(8107)), 30, spans, 2)
	for _, shared := range [][]int{{0, 0, 1}, {0}} {
		pools := []*stream.Scratch{stream.NewScratch(), stream.NewScratch()}
		comm.Run(comm.NewWorld(2, testProfile).UseGoroutineTransport(), func(p *comm.Proc) any {
			if p.Rank() != 0 {
				return s.Drain(p, s.Issue(p, inputs[1], nil))
			}
			opts := make([]Options, len(shared))
			for b, i := range shared {
				opts[b].Scratch = pools[i]
			}
			return s.Drain(p, s.Issue(p, inputs[0], opts))
		})
		for i, sc := range pools {
			if sc.Buffers() != 0 {
				t.Errorf("pools %v: pool %d was used although buckets shared it", shared, i)
			}
		}
	}
}

// TestBucketSchedulerOptionArity: a per-bucket Options slice of the wrong
// length is a caller bug and must panic rather than silently misassign
// decisions to buckets.
func TestBucketSchedulerOptionArity(t *testing.T) {
	spans := [][2]int{{0, 10}, {10, 20}, {20, 30}}
	s := NewBucketScheduler(spans, 1) // one bucket per layer
	rng := rand.New(rand.NewSource(8105))
	inputs := bucketInputs(rng, 30, spans, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Issue with a 2-element Options slice for 3 buckets should panic")
		}
	}()
	comm.Run(comm.NewWorld(2, testProfile), func(p *comm.Proc) any {
		return s.Issue(p, inputs[p.Rank()], []Options{{}, {}})
	})
}

// TestBucketRunMatchesOneShot: a rank's persistent run re-arms its bucket
// requests step after step on re-synced forks, and that must be invisible.
// Three consecutive steps on the simulator — compute, issue, overlapped
// compute, drain — give every rank the same sums, bit for bit in wire form, and the
// same virtual time after each step through one BucketRun as through fresh
// Issue/Drain calls. The buckets run Auto and chunk-only Auto on pools of
// their own, so the agreement workspaces those pools hold are reused too.
// So does a run closed after every Issue, before its Drain, whose workers
// stop once their operations end and which the next Issue restarts on the
// same requests and forks; no goroutine of it outlives the comm.Run.
func TestBucketRunMatchesOneShot(t *testing.T) {
	const n, P, steps = 900, 6, 3
	spans := [][2]int{{0, 300}, {300, 340}, {340, 700}, {700, 900}}
	rng := rand.New(rand.NewSource(8105))
	inputs := make([][][]*stream.Vector, steps)
	for i := range inputs {
		inputs[i] = bucketInputs(rng, n, spans, P)
	}
	s := NewBucketScheduler(spans, 350)
	type trace struct {
		wire [][]byte
		now  []float64
	}
	run := func(persistent, closing bool) []trace {
		return comm.Run(comm.NewWorld(P, testProfile), func(p *comm.Proc) trace {
			pools := []*stream.Scratch{stream.NewScratch(), stream.NewScratch()}
			opts := []Options{{Algorithm: Auto, Scratch: pools[0]},
				{Algorithm: SSARSplitAllgather, Chunks: AutoChunks, Scratch: pools[1]}}
			issue, drain := s.Issue, s.Drain
			if persistent {
				r := s.NewRun()
				defer r.Close()
				issue, drain = r.Issue, r.Drain
				if closing {
					issue = func(p *comm.Proc, contribs []*stream.Vector, opts []Options) []*Request {
						defer r.Close()
						return r.Issue(p, contribs, opts)
					}
				}
			}
			var tr trace
			for i := range steps {
				p.Compute(float64(p.Rank()+1) * 1e-6) // the gradient: the next issue starts after it
				reqs := issue(p, inputs[i][p.Rank()], opts)
				p.Compute(float64(i+1) * 1e-7) // overlapped, shorter than the collectives
				for b, sum := range drain(p, reqs) {
					tr.wire = append(tr.wire, sum.AppendWire(nil))
					pools[b].Release(sum)
				}
				tr.now = append(tr.now, p.Now())
			}
			return tr
		})
	}
	fresh, kept := run(false, false), run(true, false)
	wait := comm.LeakCheck()
	closed := run(true, true)
	if err := wait(2 * time.Second); err != nil {
		t.Errorf("a run closed after every Issue left %v", err)
	}
	for name, got := range map[string][]trace{"a BucketRun": kept, "a BucketRun closed after every Issue": closed} {
		for r := range fresh {
			for i := range fresh[r].now {
				if math.Float64bits(got[r].now[i]) != math.Float64bits(fresh[r].now[i]) {
					t.Errorf("rank %d step %d: Now() = %v through %s, %v through Issue/Drain", r, i, got[r].now[i], name, fresh[r].now[i])
				}
			}
			for j := range fresh[r].wire {
				if !bytes.Equal(got[r].wire[j], fresh[r].wire[j]) {
					t.Errorf("rank %d sum %d (step %d bucket %d) differs through %s", r, j, j/s.NumBuckets(), j%s.NumBuckets(), name)
				}
			}
		}
	}
}

// TestBucketRunReArmsOnlyAfterWait: a persistent request is re-armed by
// the run's next Issue, so issuing again before the previous step's Drain
// is a program error, reported on the issuing rank.
func TestBucketRunReArmsOnlyAfterWait(t *testing.T) {
	const P = 2
	s := NewBucketScheduler([][2]int{{0, 8}}, 1)
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		comm.Run(comm.NewWorld(P, testProfile), func(p *comm.Proc) any {
			r := s.NewRun()
			defer r.Close()
			contribs := []*stream.Vector{stream.NewSparse(8, []int32{int32(p.Rank())}, []float64{1}, stream.OpSum)}
			first := r.Issue(p, contribs, nil)
			if p.Rank() == 0 {
				r.Issue(p, contribs, nil)
			}
			r.Drain(p, first)
			return nil
		})
		return ""
	}()
	if !strings.Contains(msg, "rank 0 panicked: core: nonblocking request re-armed before Wait") {
		t.Fatalf("Run panicked with %q, want rank 0's re-arm error", msg)
	}
}
