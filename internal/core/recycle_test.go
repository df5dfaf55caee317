package core

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/quant"
	"repro/internal/scenario"
	"repro/internal/simnet"
)

// TestTCPSteadyStateAllocations: over loopback TCP, every payload a
// collective has sent or consumed goes back into its rank's decode pool
// (Proc.Recycle), and the socket readers decode the next arrivals into
// that storage. So a steady-state op allocates what the caller keeps and
// a handful of small objects per rank, not one decoded copy per message:
// the split phase's seven slices per rank, DSAR's seven quantized blocks
// and the allgather lists, or the sparse allgather's seven blocks. Each
// pinned algorithm runs at P = 8 with a pool per rank, as the tcp-dense-q4
// workload does (DSAR-Q4), and as the SSAR split allgather. The count is
// exact — the least Mallocs delta of three repetitions, over the whole
// process, reader goroutines included, per op (all eight ranks) — and the
// budget is ×1.25 what it read when it was written: 81 for DSAR-Q4, where
// decoding every arrival fresh read 511, and 57 for the split allgather,
// which read 81 until it stopped copying the partition it shares (three
// allocations per rank) and lent the partition itself, taken back by its
// owner's pool once assembled. What remains per rank is what the caller
// keeps, the first stage's list, the merge's arrival slice and DSAR's own
// quantized block, encoder and rng. One dropped Recycle fails it: the
// split phase's reads 280 and 264 (three allocations for each of the 56
// slices decoded fresh, and the churn), DSAR's of its gathered blocks 249,
// and the butterfly's after a stage send 113 and 113 (the lists).
func TestTCPSteadyStateAllocations(t *testing.T) {
	const P, n, warm, calls = 8, 1 << 16, 10, 40
	cases := []struct {
		name   string
		opts   Options
		budget float64
	}{
		{"DSAR-Q4", Options{Algorithm: DSARSplitAllgather, Seed: 4,
			Quant: &quant.Config{Bits: 4, Bucket: 1024, Norm: quant.NormMax}}, 1.25 * 81},
		{"SSAR-split", Options{Algorithm: SSARSplitAllgather}, 1.25 * 57},
	}
	w, err := comm.NewWorldTCP(P, simnet.Aries, comm.TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	sc := scenario.Scenario{Name: "core/tcp-steady", N: n, P: P, Calls: 4,
		Density: scenario.Const(1.0 / 16)}
	inputs := sc.Generator(scenario.NewKey(31)).All()
	for _, tc := range cases {
		pools := perRankScratches(P)
		call := make([]int, P)
		body := func(p *comm.Proc) {
			r := p.Rank()
			o := tc.opts
			o.Scratch = pools[r]
			Allreduce(p, inputs[call[r]%len(inputs)][r], o)
			call[r]++
		}
		perOp := P * mallocsPerRankCall(w, P, warm, calls, body)
		t.Logf("%s: %.1f allocations per op, budget %.0f", tc.name, perOp, tc.budget)
		if perOp > tc.budget {
			t.Errorf("%s: %.1f allocations per op over loopback TCP, budget %.0f", tc.name, perOp, tc.budget)
		}
	}
}
