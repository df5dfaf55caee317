package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// TestSplitAllgatherLendingLifetime: a split allgather lends its rank's
// reduced partition to every rank that holds it by reference and takes it
// back into its pool once each has counted it read (stream.Scratch.Lend).
// One long-lived Run per world makes every rank issue lendOps split
// allgathers back to back, with no barrier between calls, so a fast owner
// grabs from its pool while slower ranks may still be reading its last
// block. Every op has fresh dyadic inputs (exact float sums), and every
// fifth one a small δ, so the lent partitions are dense there. On the
// simulator, the goroutine backend and loopback TCP — at P = 8, folded at
// P = 6, and on a TwoLevel(4) hierarchy where only the leaders gather —
// each rank's result of each op must equal, byte for byte on the wire, what
// the simulator returns without pools, which lends nothing. Afterwards no
// pool may hold more than the last op's block lent: a count that never
// reaches zero (a skipped countdown, or a TCP owner counting its peers)
// would leave one more block lent per op, up to the lent list's bound. A
// block reclaimed while still read shows as a wrong result, and in the
// ci.sh -race pass as a data race.
func TestSplitAllgatherLendingLifetime(t *testing.T) {
	const lendOps, n = 200, 2048
	topo := simnet.TwoLevel(4, simnet.NVLinkLike, simnet.Aries, 0)
	cases := []struct {
		name   string
		P      int
		hier   bool
		levels int
	}{
		{"P=8", 8, false, 0},
		{"P=6", 6, false, 0},
		{"TwoLevel(4)", 8, true, AllLevels},
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(int64(101 + tc.P)))
		inputs := make([][]*stream.Vector, lendOps)
		for op := range inputs {
			inputs[op] = make([]*stream.Vector, tc.P)
			for r := range inputs[op] {
				v := randSparse(rng, n, 16+rng.Intn(240))
				if op%5 == 4 {
					v.SetDelta(24)
				}
				inputs[op][r] = v
			}
		}
		opts := Options{Algorithm: SSARSplitAllgather, Levels: tc.levels}
		run := func(w *comm.World, pooled bool) ([][]uint64, []int) {
			digests := make([][]uint64, tc.P)
			lent := make([]int, tc.P)
			comm.Run(w, func(p *comm.Proc) int {
				r := p.Rank()
				o := opts
				if pooled {
					o.Scratch = stream.NewScratch()
				}
				digests[r] = make([]uint64, lendOps)
				for op, in := range inputs {
					h := fnv.New64a()
					h.Write(Allreduce(p, in[r], o).AppendWire(nil))
					digests[r][op] = h.Sum64()
				}
				lent[r] = o.Scratch.Lent()
				return 0
			})
			return digests, lent
		}
		newWorld := func() *comm.World {
			if tc.hier {
				return comm.NewWorldHier(tc.P, topo)
			}
			return comm.NewWorld(tc.P, simnet.Aries)
		}
		want, _ := run(newWorld(), false)

		cfg := comm.TCPConfig{}
		if tc.hier {
			cfg.Hierarchy = &topo
		}
		tcp, err := comm.NewWorldTCP(tc.P, simnet.Aries, cfg)
		if err != nil {
			t.Fatalf("%s: tcp world: %v", tc.name, err)
		}
		defer tcp.Close()
		for _, w := range []*comm.World{newWorld(), newWorld().UseGoroutineTransport(), tcp} {
			got, lent := run(w, true)
			where := fmt.Sprintf("%s on %s", tc.name, w.Transport())
			for r := range got {
				for op := range got[r] {
					if got[r][op] != want[r][op] {
						t.Fatalf("%s: rank %d op %d: result differs from the simulator's without pools", where, r, op)
					}
				}
				if lent[r] > 1 {
					t.Errorf("%s: rank %d's pool still lends %d blocks after the run, want at most the last op's", where, r, lent[r])
				}
			}
		}
	}
}
