package cluster

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/simnet"
)

// request builds a PlaceRequest over the test machine with the given free
// slots and a synthetic flow field.
func request(free []int, p int, flows func(slot, level int) int) PlaceRequest {
	m := testMachine()
	return PlaceRequest{
		Machine: m,
		Free:    free,
		P:       p,
		Cost: core.CostScenario{
			N: 1 << 14, P: p, K: 1 << 9,
			Profile: m.Levels[m.Depth()-1].Profile,
			Chunks:  core.AutoChunks,
		},
		Flows: flows,
		RNG:   rand.New(rand.NewSource(1)),
	}
}

func ascending(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestPlacementContracts: every policy returns exactly P strictly
// ascending free slots, and reports ok=false when the job cannot fit.
func TestPlacementContracts(t *testing.T) {
	free := []int{0, 1, 2, 3, 8, 9, 10, 11, 20, 21, 22, 23, 28, 29, 30, 31}
	isFree := map[int]bool{}
	for _, s := range free {
		isFree[s] = true
	}
	for _, place := range []Placement{Packed{}, Spread{}, Random{}, CostAware{}} {
		slots, ok := place.Place(request(free, 8, nil))
		if !ok || len(slots) != 8 {
			t.Fatalf("%s: got %v, want 8 slots", place.Name(), slots)
		}
		for i, s := range slots {
			if !isFree[s] {
				t.Fatalf("%s: placed on busy slot %d", place.Name(), s)
			}
			if i > 0 && slots[i-1] >= s {
				t.Fatalf("%s: slots not ascending: %v", place.Name(), slots)
			}
		}
		if _, ok := place.Place(request(free, len(free)+1, nil)); ok {
			t.Fatalf("%s: placed a job larger than the free set", place.Name())
		}
		// A flat (depth-1) machine is a single node spanning every slot.
		flat := request(free, 8, nil)
		flat.Machine = simnet.Flat(simnet.Aries)
		if slots, ok := place.Place(flat); !ok || len(slots) != 8 {
			t.Fatalf("%s on a flat machine: got %v, want 8 slots", place.Name(), slots)
		}
	}
}

// TestCostAwareNeverWorseThanPackedOrSpread: on any job mix, CostAware's
// predicted step time must never exceed the better of Packed's and
// Spread's on the same request — its candidate set includes both picks,
// and Predict is the same deterministic model for all three.
func TestCostAwareNeverWorseThanPackedOrSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		// A random free set (always enough for the job) and a random flow
		// field standing in for arbitrary co-tenant load.
		total := 32
		free := []int{}
		for s := 0; s < total; s++ {
			if rng.Float64() < 0.7 {
				free = append(free, s)
			}
		}
		p := 4 << rng.Intn(2) // 4 or 8
		if len(free) < p {
			continue
		}
		load := make([][]int, 3)
		for l := range load {
			load[l] = make([]int, total)
			for g := range load[l] {
				load[l][g] = rng.Intn(12)
			}
		}
		m := testMachine()
		flows := func(slot, level int) int { return load[level][m.GroupOf(slot, level)] }

		r := request(free, p, flows)
		best := -1.0
		for _, place := range []Placement{Packed{}, Spread{}} {
			slots, ok := place.Place(r)
			if !ok {
				t.Fatalf("%s failed on a feasible request", place.Name())
			}
			if pred := r.Predict(slots); best < 0 || pred < best {
				best = pred
			}
		}
		slots, ok := CostAware{}.Place(r)
		if !ok {
			t.Fatal("CostAware failed on a feasible request")
		}
		if pred := r.Predict(slots); pred > best {
			t.Fatalf("trial %d: CostAware predicted %g, best of packed/spread %g (free=%v, p=%d)", trial, pred, best, free, p)
		}
	}
}

// TestCostAwareDodgesLoadedRegion: with the first machine group heavily
// loaded and the second idle, CostAware must place an 8-rank job in the
// idle group, where Packed piles onto the load.
func TestCostAwareDodgesLoadedRegion(t *testing.T) {
	m := testMachine()
	// Free slots everywhere; group 0 (slots 0..7) saturated with flows.
	flows := func(slot, level int) int {
		if m.GroupOf(slot, 0) < 2 { // the two nodes of group 0
			return 32
		}
		return 0
	}
	r := request(ascending(32), 8, flows)
	packed, _ := Packed{}.Place(r)
	aware, ok := CostAware{}.Place(r)
	if !ok {
		t.Fatal("CostAware failed")
	}
	if aware[0] < 8 {
		t.Fatalf("CostAware placed into the loaded region: %v", aware)
	}
	if r.Predict(aware) >= r.Predict(packed) {
		t.Fatalf("CostAware pick %v predicts %g, no better than packed %v at %g",
			aware, r.Predict(aware), packed, r.Predict(packed))
	}
}

// TestRandomPlacementIsolatedStream: Random draws only from the request's
// stream, and sorted output is a valid subset.
func TestRandomPlacementIsolatedStream(t *testing.T) {
	key := scenario.NewKey(11)
	draw := func() []int {
		r := request(ascending(32), 8, nil)
		r.RNG = scenario.NewPartitionedRNG(key).Named("job/placement")
		slots, ok := Random{}.Place(r)
		if !ok {
			t.Fatal("Random failed on a feasible request")
		}
		return slots
	}
	a, b := draw(), draw()
	if !sort.IntsAreSorted(a) {
		t.Fatalf("Random slots not sorted: %v", a)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same stream, different draw: %v vs %v", a, b)
		}
	}
}

// TestClusterEndToEndPolicies: the full loop runs under every policy on a
// shared mix, and the cost-aware policy's mean predicted job time is the
// best (or tied) of the four — the BENCH_8 headline, in miniature.
func TestClusterEndToEndPolicies(t *testing.T) {
	mean := func(place Placement) float64 {
		stats := runSmall(t, place, 17, 0)
		sum := 0.0
		for _, s := range stats {
			sum += s.PredictedJob
		}
		return sum / float64(len(stats))
	}
	awarePred := mean(CostAware{})
	for _, place := range []Placement{Packed{}, Spread{}, Random{}} {
		if m := mean(place); awarePred > m {
			t.Fatalf("cost-aware mean predicted job time %g worse than %s's %g", awarePred, place.Name(), m)
		}
	}
}
