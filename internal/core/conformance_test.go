package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/pin"
	"repro/internal/quant"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// The conformance table: one row per collective and world shape, run on
// each of its transports inside one long-lived comm.Run, every rank with
// its own pool (the ledger rows run the pool-free path on the real
// transports instead), ops back to back with no barrier between them, so a
// fast owner grabs from its pool while slower ranks may still read the
// block it lent at the last op. Each row holds four columns:
//
//  1. every op's result on every rank equals, in wire bytes, what the
//     simulator returns without pools (itself held to the chained dense
//     sum where it is not quantized), and the inputs are unchanged;
//  2. on a budget row, the allocations and bytes per op of three windows
//     after the warm-up — exact process-wide counts, socket readers and
//     merge goroutines included — stay within the budget (confBudget);
//  3. goroutines and open descriptors fall back to their pre-open counts
//     after Close;
//  4. no pool still lends more than the last op's block — a split
//     allgather's partition or, on the Q4 rows, DSAR's quantized own
//     block.
//
// Inputs are dyadic, so sums are exact: a difference is a transport or
// pooling bug, never float noise, and a block reclaimed while still read
// shows as one (and in the ci.sh -race pass as a data race). Every row
// names the test it runs under (confRow.test); the tests below differ only
// in their rows, and runConformance is their one runner.

// TestConformance runs the grid: algorithm × regime (sparse; dense past δ;
// Q4 on DSAR and Auto) × depth (flat, or AllLevels on TwoLevel(4)) ×
// chunks (0; 2 on the split-phase algorithms and Auto) × P ∈ {6, 8}, on
// the simulator, the goroutine backend and loopback TCP; the dense
// baselines densify their input, so they have no dense regime. The SSAR
// split-allgather rows run under TestSplitAllgatherLendingLifetime.
func TestConformance(t *testing.T) { runConformance(t) }

// TestSplitAllgatherLendingLifetime runs the grid's SSAR split-allgather
// rows: a split allgather lends its rank's reduced partition to every rank
// that holds it by reference and takes it back into its pool once each has
// counted it read (stream.Scratch.Lend). A count that never reaches zero
// (a skipped countdown, or a TCP owner counting its peers) leaves one more
// block lent per op, which column 4 catches.
func TestSplitAllgatherLendingLifetime(t *testing.T) { runConformance(t) }

// TestCrossTransportEquivalence runs the ledger rows at P ∈ {4, 12, 16,
// 32}, whose reference results are the pin entries
// core/transport-equiv/P=<P>.
func TestCrossTransportEquivalence(t *testing.T) { runConformance(t, "core/transport-equiv") }

// TestCrossTransportRaggedLevels runs the ledger rows at P = 26 on a
// three-level machine ragged twice, pinned as core/transport-ragged/P=26.
func TestCrossTransportRaggedLevels(t *testing.T) { runConformance(t, "core/transport-ragged") }

// TestTCPSteadyStateAllocations runs the budget rows over loopback TCP.
func TestTCPSteadyStateAllocations(t *testing.T) { runConformance(t) }

// TestSplitAllgatherAllocationBudget runs the budget rows of goroutine
// split allgathers whose results are kept: SSAR's, and DSAR-Q4's, whose
// quantized own block every rank reads.
func TestSplitAllgatherAllocationBudget(t *testing.T) { runConformance(t) }

// TestGoroutinePoolsReachSteadyState runs the same shape with no
// allocation or bytes budget: the pools stop growing and the bytes per op
// stay flat from window to window.
func TestGoroutinePoolsReachSteadyState(t *testing.T) { runConformance(t) }

// TestReleasedResultsAreReused runs the budget rows whose results go back
// into the pools.
func TestReleasedResultsAreReused(t *testing.T) { runConformance(t) }

// runConformance runs the table's rows that belong to t, each row on each
// of its transports. A row's reference is taken by its first transport's
// subtest. When every row ran, t owns the ledger entries under prefixes
// and checks those its rows produce.
func runConformance(t *testing.T, prefixes ...string) {
	rows := slices.DeleteFunc(slices.Concat(confBudgetRows(), confGridRows(), confLedgerRows()),
		func(row confRow) bool { return row.test != t.Name() })
	wants, inputs := make([][][][]byte, len(rows)), make([][]byte, len(rows))
	for i, row := range rows {
		for _, tr := range row.transports {
			t.Run(row.name+"/"+tr, func(t *testing.T) {
				if wants[i] == nil {
					wants[i], inputs[i] = row.reference(t)
				}
				row.run(t, tr, wants[i], inputs[i])
			})
		}
	}
	if slices.ContainsFunc(wants, func(w [][][]byte) bool { return w == nil }) {
		return // a -run filter left rows out, and the ledger needs them all
	}
	for _, prefix := range prefixes {
		pin.Prefix(t, prefix)
	}
	var entries []string
	for _, row := range rows {
		if row.ledger != "" && !slices.Contains(entries, row.ledger) {
			entries = append(entries, row.ledger)
		}
	}
	for _, entry := range entries {
		// Set by set, then row by row: an entry's rows share their sets.
		h := pin.New()
		first := slices.IndexFunc(rows, func(row confRow) bool { return row.ledger == entry })
		for set := range rows[first].sets {
			for i, row := range rows {
				if row.ledger == entry {
					for _, wire := range wants[i] {
						h.Write(wire[set])
					}
				}
			}
		}
		pin.Check(t, entry, h)
	}
}

// confRow is one row of the conformance table: opts on a world of P ranks
// (on machine, or flat when nil) over each transport, op i reducing
// sets[i % len(sets)] (one vector per rank), ops times, or as the budget
// says. A release row hands every result back to its rank's pool; a
// poolFree row runs without pools. test is the name of the test the row
// runs under.
type confRow struct {
	test       string
	name       string
	transports []string
	P          int
	machine    *simnet.Hierarchy
	opts       Options
	sets       [][]*stream.Vector
	ops        int
	release    bool
	poolFree   bool
	budget     *confBudget
	ledger     string // the pin entry the reference results are part of
}

// confBudget is a row's allocation budget: three windows of window ops
// follow warm ops, their counts read on rank 0 between barriers. The least
// window's allocations per op stay within allocs and every window's bytes
// per op within bytes times the op's result bytes (12 per pair, over the
// ranks), a zero budget checking nothing; the pools grow by less than one
// buffer per measured op, and the last window's bytes stay within 1.1× the
// first's, or under a tenth of the bytes budget.
type confBudget struct {
	warm, window  int
	allocs, bytes float64
}

var confQ4 = &quant.Config{Bits: 4, Bucket: 256, Norm: quant.NormMax}

// world opens a world of the row's shape on transport.
func (row confRow) world(transport string) (*comm.World, error) {
	if transport == "tcp" {
		return comm.NewWorldTCP(row.P, simnet.Aries, comm.TCPConfig{Hierarchy: row.machine})
	}
	w := comm.NewWorld(row.P, simnet.Aries)
	if row.machine != nil {
		w = comm.NewWorldHier(row.P, *row.machine)
	}
	if transport == "goroutine" {
		w = w.UseGoroutineTransport()
	}
	return w, nil
}

// reference returns the simulator's pool-free results, rank by rank and
// set by set in wire form, and a digest of the inputs taken before.
func (row confRow) reference(t *testing.T) (want [][][]byte, inputs []byte) {
	inputs = confDigest(row.sets)
	w, _ := row.world("sim")
	bad := make([]string, row.P)
	want = comm.Run(w, func(p *comm.Proc) [][]byte {
		out := make([][]byte, len(row.sets))
		for s, set := range row.sets {
			res := Allreduce(p, set[p.Rank()], row.opts)
			out[s] = res.AppendWire(nil)
			if row.opts.Quant == nil && !slices.Equal(res.ToDense(), refSum(set)) {
				bad[p.Rank()] = fmt.Sprintf("set %d rank %d: the simulator's result is not the chained sum", s, p.Rank())
			}
		}
		return out
	})
	if i := slices.IndexFunc(bad, func(msg string) bool { return msg != "" }); i >= 0 {
		t.Fatal(bad[i])
	}
	return want, inputs
}

// run is the row runner: it opens the row's world on transport, runs the
// row's ops in one Run and checks the four columns.
func (row confRow) run(t *testing.T, transport string, want [][][]byte, inputs []byte) {
	wait := comm.LeakCheck()
	w, err := row.world(transport)
	if err != nil {
		t.Fatal(err)
	}
	P, b := row.P, row.budget
	warm, windows := row.ops, 0
	if b != nil {
		warm, windows = b.warm, 3
	}
	pools := perRankScratches(P)
	bad := make([]string, P)
	lent, pairs, growth := make([]int, P), make([]int, P), make([]int, P)
	var marks [3][2]runtime.MemStats
	comm.Run(w, func(p *comm.Proc) int {
		r := p.Rank()
		o := row.opts
		if !row.poolFree {
			o.Scratch = pools[r]
		}
		var wire []byte
		op := 0
		step := func() {
			set := op % len(row.sets)
			res := Allreduce(p, row.sets[set][r], o)
			wire = res.AppendWire(wire[:0])
			if bad[r] == "" && !bytes.Equal(wire, want[r][set]) {
				bad[r] = fmt.Sprintf("op %d rank %d: the result differs from the simulator's without pools", op, r)
			}
			if op >= warm {
				pairs[r] += res.NNZ()
			}
			if row.release {
				o.Scratch.Release(res)
			}
			op++
		}
		for range warm {
			step()
		}
		growth[r] = -o.Scratch.Buffers()
		for win := range windows {
			p.Barrier()
			if r == 0 {
				runtime.ReadMemStats(&marks[win][0])
			}
			p.Barrier()
			for range b.window {
				step()
			}
			p.Barrier()
			if r == 0 {
				runtime.ReadMemStats(&marks[win][1])
			}
		}
		lent[r] = o.Scratch.Lent()
		growth[r] += o.Scratch.Buffers()
		return 0
	})
	for r := range P {
		if bad[r] != "" {
			t.Error(bad[r])
		}
		if lent[r] > 1 {
			t.Errorf("rank %d's pool still lends %d blocks after the run, want at most the last op's", r, lent[r])
		}
	}
	if !bytes.Equal(confDigest(row.sets), inputs) {
		t.Error("the inputs changed")
	}
	if b != nil {
		measured, grown, results := 3*b.window, 0, 0.0
		for r := range P {
			grown += growth[r]
			results += 12 * float64(pairs[r]) / float64(measured)
		}
		var allocs, volume [3]float64 // per op, by window
		for i, m := range marks {
			allocs[i] = float64(m[1].Mallocs-m[0].Mallocs) / float64(b.window)
			volume[i] = float64(m[1].TotalAlloc-m[0].TotalAlloc) / float64(b.window)
		}
		least, most := slices.Min(allocs[:]), slices.Max(volume[:])
		t.Logf("allocations per op %.1f, bytes per op %.0f for %.0f result bytes (×%.4f); pools grew by %d buffers over %d ops",
			allocs, volume, results, most/results, grown, measured)
		if b.allocs > 0 && least > b.allocs {
			t.Errorf("%.1f allocations per op, budget %.2f", least, b.allocs)
		}
		if b.bytes > 0 && most > b.bytes*results {
			t.Errorf("%.0f bytes allocated per op for %.0f result bytes (×%.4f), budget ×%.4f", most, results, most/results, b.bytes)
		}
		if volume[2] > 1.1*volume[0] && volume[2] > 0.1*b.bytes*results {
			t.Errorf("bytes allocated per op rose from %.0f in the first window to %.0f in the last", volume[0], volume[2])
		}
		if grown >= measured {
			t.Errorf("pools grew by %d buffers over %d measured ops", grown, measured)
		}
	}
	if err := w.Close(); err != nil {
		t.Error(err)
	}
	if err := wait(2 * time.Second); err != nil {
		t.Errorf("the closed world left %v", err)
	}
}

// confDigest hashes the wire bytes of every vector of sets.
func confDigest(sets [][]*stream.Vector) []byte {
	h := pin.New()
	for _, set := range sets {
		for _, v := range set {
			h.Write(v.AppendWire(nil))
		}
	}
	return h.Sum(nil)
}

// confBudgetRows are the allocation budgets at scaled gor-bandwidth shapes
// (P = 8 goroutine ranks, N = 2^17, N/16 non-zeros per rank, four input
// sets) and at the tcp-dense-q4 shape (P = 8 over loopback TCP, and on
// goroutine ranks, N = 2^16, density 1/16).
func confBudgetRows() []confRow {
	rng := rand.New(rand.NewSource(93))
	wide := make([][]*stream.Vector, 4)
	for s := range wide {
		wide[s] = patterns[0].gen(rng, 1<<17, 1<<13, 8)
	}
	rng6 := rand.New(rand.NewSource(96))
	wide6 := make([][]*stream.Vector, 4)
	for s := range wide6 {
		wide6[s] = patterns[0].gen(rng6, 1<<17, 1<<13, 6)
	}
	tcpSets := scenario.Scenario{Name: "core/tcp-steady", N: 1 << 16, P: 8, Calls: 4,
		Density: scenario.Const(1.0 / 16)}.Generator(scenario.NewKey(31)).All()
	split := Options{Algorithm: SSARSplitAllgather}
	q4 := Options{Algorithm: DSARSplitAllgather, Seed: 4, Quant: &quant.Config{Bits: 4, Bucket: 1024, Norm: quant.NormMax}}
	row := func(test, name, transport string, opts Options, sets [][]*stream.Vector, release bool, b confBudget) confRow {
		return confRow{test: test, name: "budget/" + name, transports: []string{transport}, P: 8, opts: opts, sets: sets,
			release: release, budget: &b}
	}
	return []confRow{
		// Kept results: an op allocates its results and little else (×1.01,
		// 24.3 allocations; 56.5 while the split phase's arrival slice, the
		// allgather's parts list and its first block list, allocated and
		// boxed, were per-call). A shared copy of each partition taken
		// outside the pools read ×1.14, the clone-and-Concat allgather ×2.64.
		row("TestSplitAllgatherAllocationBudget", "split-keep", "goroutine", split, wide, false,
			confBudget{warm: 8, window: 12, allocs: 1.25 * 24.3, bytes: 1.05}),
		// DSAR-Q4 at the tcp-dense-q4 shape in process, results kept: every
		// rank reads every rank's lent quantized block (P readers each), and
		// an op allocates its dense results and little else: 16.2
		// allocations, bytes ×1.93 of the budget's 12 bytes per result pair.
		// Per-call slices and lists, a generator source and a quantized
		// block per rank read 80.2 and ×1.97.
		row("TestSplitAllgatherAllocationBudget", "dsar-q4", "goroutine", q4, tcpSets, false,
			confBudget{warm: 10, window: 40, allocs: 1.25 * 16.2, bytes: 1.25 * 1.93}),
		// The same shape unbudgeted: the pools grow by less than a buffer
		// per op, and the bytes per op of the last window stay within 1.1×
		// the first's.
		row("TestGoroutinePoolsReachSteadyState", "split-keep", "goroutine", split, wide, false, confBudget{warm: 8, window: 12}),
		// Released results: the next call builds its result in them, the
		// blocks the ranks share are lent and taken back, and the slices
		// and block lists come from the pools, so an op allocates nothing:
		// 0 allocations, 0 bytes (32 and 1.8 kB while the slices and lists
		// were per-call), against a budget of 0.01 of one rank's result
		// (one missed reuse in a window adds 0.08). Auto runs recursive
		// doubling here, its agreement on the pool's workspace, also 0.
		// Either budget of 1 fails any per-rank allocation.
		row("TestReleasedResultsAreReused", "split-release", "goroutine", split, wide, true,
			confBudget{warm: 48, window: 12, allocs: 1, bytes: 0.01 / 8}),
		row("TestReleasedResultsAreReused", "auto-release", "goroutine", Options{}, wide, true,
			confBudget{warm: 8, window: 12, allocs: 1, bytes: 0.01 / 8}),
		// The split-release shape at P = 6 (N = 2^17, N/16 non-zeros per
		// rank, four sets, seed 96), whose allgathers fold two excess ranks
		// onto two core ranks. The fold hands a block list back at the
		// fold-in for the one it takes at the fold-out, so an op allocates
		// nothing here either: 0.0 allocations per op on goroutine ranks
		// and 0.0–0.3 over TCP, against 4.0 and 8.0 while each folding core
		// rank lost a list (and its box) per op to its excess partner. Over
		// TCP stray allocations scatter the bytes from 0 to ×0.0063 of the
		// results, so its bytes budget, ×0.1, only catches result-sized
		// storage that stops coming back.
		{test: "TestConformance", name: "budget/split-release/P=6", transports: []string{"goroutine"}, P: 6,
			opts: split, sets: wide6, release: true, budget: &confBudget{warm: 48, window: 12, allocs: 0.5, bytes: 0.01 / 6}},
		{test: "TestConformance", name: "budget/split-release/P=6", transports: []string{"tcp"}, P: 6,
			opts: split, sets: wide6, release: true, budget: &confBudget{warm: 48, window: 12, allocs: 1, bytes: 0.1}},
		// Over TCP every payload sent or consumed goes back into the
		// rank's decode pool (Proc.Recycle): 16.4 allocations for DSAR-Q4
		// (511 decoding every arrival fresh, 80.5 with the per-call slices,
		// lists, generator and quantized block) and 24.3 for the split
		// allgather (56.3 with the per-call slices and lists; 278 and 238
		// with splitSend's Recycle dropped); bytes ×1.93 and ×1.01 of the
		// results.
		row("TestTCPSteadyStateAllocations", "dsar-q4", "tcp", q4, tcpSets, false,
			confBudget{warm: 10, window: 40, allocs: 1.25 * 16.4, bytes: 1.25 * 1.97}),
		row("TestTCPSteadyStateAllocations", "split", "tcp", split, tcpSets, false,
			confBudget{warm: 10, window: 40, allocs: 1.25 * 24.3, bytes: 1.25 * 1.02}),
	}
}

// confGridRows are the grid's rows, their input sets drawn once per world
// size, each run twice per row.
func confGridRows() []confRow {
	two4 := simnet.TwoLevel(4, simnet.NVLinkLike, simnet.Aries, 0)
	var rows []confRow
	for _, P := range []int{6, 8} {
		sparse := drawSets(rand.New(rand.NewSource(int64(101+P))), P)
		dense := make([][]*stream.Vector, len(sparse))
		for s, set := range sparse {
			for _, v := range set {
				d := v.Clone()
				d.SetDelta(v.Dim() / 32)
				dense[s] = append(dense[s], d)
			}
		}
		for _, machine := range []*simnet.Hierarchy{nil, &two4} {
			depth, levels := "flat", 0
			if machine != nil {
				depth, levels = "two4", AllLevels
			}
			for _, alg := range allAlgorithms {
				regimes := []string{"sparse", "dense", "q4"}
				switch {
				case alg == DenseRecDouble || alg == DenseRabenseifner || alg == DenseRing:
					regimes = regimes[:1]
				case !honorsQuant(alg):
					regimes = regimes[:2]
				}
				chunks := []int{0}
				if alg == SSARSplitAllgather || alg == DSARSplitAllgather || alg == Auto {
					chunks = append(chunks, 2)
				}
				for _, regime := range regimes {
					for _, c := range chunks {
						row := confRow{test: "TestConformance", name: fmt.Sprintf("P=%d/%s/%s/%s/c%d", P, depth, alg, regime, c),
							transports: []string{"sim", "goroutine", "tcp"}, P: P, machine: machine,
							sets: dense, ops: 2 * len(sparse),
							opts: Options{Algorithm: alg, Levels: levels, Chunks: c, Seed: 42}}
						if alg == SSARSplitAllgather {
							row.test = "TestSplitAllgatherLendingLifetime"
						}
						if regime == "sparse" {
							row.sets = sparse
						}
						if regime == "q4" {
							row.opts.Quant = confQ4
						}
						rows = append(rows, row)
					}
				}
			}
		}
	}
	return rows
}

// drawSets draws one input set per pattern: a dimension in [600, 900) and
// up to a fifth of it non-zero per rank.
func drawSets(rng *rand.Rand, P int) [][]*stream.Vector {
	sets := make([][]*stream.Vector, len(patterns))
	for i, pat := range patterns {
		n := 600 + rng.Intn(300)
		k := 1 + rng.Intn(n/5)
		sets[i] = pat.gen(rng, n, k, P)
	}
	return sets
}

// confLedgerRows are the pinned rows: at P ∈ {4, 12, 16, 32} on flat
// worlds and on TwoLevel(3), ragged at every P but 12, which folds every
// butterfly; and at P = 26 on a three-level machine ragged twice
// (26 = 12 + 12 + 2), at the full and a truncated depth. They run without
// pools, so on the simulator they would repeat the reference; their rows
// in two chunks stay out of the ledger.
func confLedgerRows() []confRow {
	two3 := simnet.TwoLevel(3, simnet.NVLinkLike, simnet.Aries, 0)
	wall := []string{"goroutine", "tcp"}
	cells := []struct {
		name           string
		alg            Algorithm
		levels         int // > 0: on TwoLevel(3)
		quants, chunks int // quants 2: also quantized
	}{
		{"ssar-recdouble", SSARRecDouble, 0, 1, 0}, {"ssar-split", SSARSplitAllgather, 0, 1, 0},
		{"dsar-split", DSARSplitAllgather, 0, 2, 0}, {"hier-ssar-recdouble", SSARRecDouble, AllLevels, 1, 0},
		{"hier-ssar-split", SSARSplitAllgather, AllLevels, 1, 0}, {"hier-dsar", DSARSplitAllgather, AllLevels, 2, 0},
		{"dense-raben", DenseRabenseifner, 0, 1, 0}, {"dense-recdouble", DenseRecDouble, 0, 1, 0},
		{"dense-ring", DenseRing, 0, 1, 0}, {"ring-sparse", RingSparse, 0, 1, 0},
		{"ssar-split/c2", SSARSplitAllgather, 0, 1, 2}, {"dsar-split/c2", DSARSplitAllgather, 0, 2, 2},
		{"hier-ssar-split/c2", SSARSplitAllgather, AllLevels, 1, 2}, {"hier-dsar/c2", DSARSplitAllgather, AllLevels, 2, 2},
	}
	var rows []confRow
	rng := rand.New(rand.NewSource(99))
	for _, P := range []int{4, 12, 16, 32} {
		sets := drawSets(rng, P)
		for _, c := range cells {
			for _, q := range []*quant.Config{nil, confQ4}[:c.quants] {
				row := confRow{test: "TestCrossTransportEquivalence", name: fmt.Sprintf("transport-equiv/P=%d/%s", P, c.name), transports: wall,
					P: P, sets: sets, ops: len(sets), poolFree: true,
					opts: Options{Algorithm: c.alg, Levels: c.levels, Chunks: c.chunks, Quant: q, Seed: 42}}
				if c.levels > 0 {
					row.machine = &two3
				}
				if q != nil {
					row.name += "/q4"
				}
				if c.chunks == 0 {
					row.ledger = fmt.Sprintf("core/transport-equiv/P=%d", P)
				}
				rows = append(rows, row)
			}
		}
	}
	ragged := simnet.Hierarchy{Levels: []simnet.Level{
		{GroupSize: 3, Profile: simnet.NVLinkLike},
		{GroupSize: 4, Profile: simnet.InfiniBandFDR},
		{GroupSize: 0, Profile: simnet.Aries},
	}}
	sets := [][]*stream.Vector{patterns[0].gen(rand.New(rand.NewSource(7)), 800, 120, 26)}
	for _, levels := range []int{AllLevels, 2} {
		for _, alg := range []Algorithm{SSARRecDouble, SSARSplitAllgather, DSARSplitAllgather} {
			rows = append(rows, confRow{test: "TestCrossTransportRaggedLevels", name: fmt.Sprintf("transport-ragged/P=26/levels=%d/%s", levels, alg),
				transports: wall, P: 26, machine: &ragged, sets: sets, ops: 1, poolFree: true,
				opts: Options{Algorithm: alg, Levels: levels, Seed: 3}, ledger: "core/transport-ragged/P=26"})
		}
	}
	return rows
}
