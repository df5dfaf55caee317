package scenario

import (
	"hash"
	"hash/fnv"
	"sort"
	"testing"
)

// digestCalls caps how many calls a digest covers, keeping the BENCH-sized
// cells fast while still hashing every rank's full byte stream.
const digestCalls = 2

// digestScenario hashes, with FNV-64a, the wire bytes of a scenario's
// first calls, running between (when non-nil) before each call: any
// change to any rank's support or values anywhere in the prefix changes
// the digest.
func digestScenario(sc Scenario, key SimulationKey, between func()) hash.Hash64 {
	g := sc.Generator(key)
	h := fnv.New64a()
	var buf []byte
	for c := 0; c < digestCalls && c < sc.Calls; c++ {
		if between != nil {
			between()
		}
		for _, v := range g.Next() {
			buf = v.AppendWire(buf[:0])
			h.Write(buf)
		}
	}
	return h
}

// TestSeedIsolationAddingScenario is the PartitionedRNG contract's
// regression test: generate every library scenario, then regenerate each
// one while a brand-new scenario (and every other library scenario, in
// reverse order) is generated around it — every pre-existing scenario's
// byte stream must be unchanged. Streams derive from (key, name), never
// from creation order, so a library addition cannot perturb committed
// documents.
func TestSeedIsolationAddingScenario(t *testing.T) {
	key := NewKey(701)
	baseline := map[string]uint64{}
	for _, sc := range Library() {
		baseline[sc.Name] = digestScenario(sc, key, nil).Sum64()
	}

	// The "new scenario" a future PR might add.
	added := Scenario{
		Name: "brand-new", N: 1 << 15, P: 8, Calls: 4,
		Density: Const(0.03),
		Blocks:  []Block{{Start: 0.5, Frac: 0.1, Weight: 1}},
		HotMass: Const(0.6),
		Ragged:  0.3,
	}
	// Interleave: drive the new scenario and the library in reverse order,
	// alternating call by call with the scenario under test.
	names := Names()
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	for _, name := range names {
		inter := added.Generator(key)
		// A foreign scenario generates mid-flight, before every call.
		if got := digestScenario(library[name], key, func() { inter.Next() }).Sum64(); got != baseline[name] {
			t.Errorf("scenario %s: byte stream changed when another scenario generated alongside (%016x -> %016x)", name, baseline[name], got)
		}
	}
}

// TestPartitionedRNGStreamIndependence pins the property underneath:
// a named stream's sequence depends only on (key, name), not on which
// other streams exist or when they drew.
func TestPartitionedRNGStreamIndependence(t *testing.T) {
	key := NewKey(17)
	seq := func(order []string, want string) []float64 {
		pr := NewPartitionedRNG(key)
		var out []float64
		for _, name := range order {
			r := pr.Named(name)
			for i := 0; i < 50; i++ {
				x := r.Float64()
				if name == want {
					out = append(out, x)
				}
			}
		}
		return out
	}
	a1 := seq([]string{"a", "b", "c"}, "a")
	a2 := seq([]string{"c", "b", "a"}, "a")
	a3 := seq([]string{"a"}, "a")
	for i := range a1 {
		if a1[i] != a2[i] || a1[i] != a3[i] {
			t.Fatalf("stream 'a' diverged across creation orders at draw %d", i)
		}
	}
	// Distinct names give unrelated sequences (first draws differ).
	pr := NewPartitionedRNG(key)
	if pr.Named("a").Float64() == pr.Named("b").Float64() {
		t.Fatal("distinct streams produced identical first draws")
	}
	// Stream, the per-rank helper, is Named with the canonical name.
	pr2 := NewPartitionedRNG(key)
	x := pr2.Stream(SubsystemSupport, 3).Float64()
	pr3 := NewPartitionedRNG(key)
	if y := pr3.Named("support/rank3").Float64(); x != y {
		t.Fatalf("Stream and Named disagree: %g vs %g", x, y)
	}
}

// TestSeedIsolationRankExtension: growing the world must leave the
// original ranks' streams untouched — rank r's bytes at P=8 equal rank
// r's bytes at P=4.
func TestSeedIsolationRankExtension(t *testing.T) {
	base := Scenario{
		Name: "extend", N: 1 << 14, P: 4, Calls: 3,
		Density: Const(0.03),
		Blocks:  []Block{{Start: 0, Frac: 0.1, Weight: 1}},
		HotMass: Const(0.7),
		Ragged:  0.2,
	}
	wide := base
	wide.P = 8
	key := NewKey(23)
	small := base.Generator(key).All()
	big := wide.Generator(key).All()
	for c := range small {
		for r := 0; r < base.P; r++ {
			if !small[c][r].Equal(big[c][r]) {
				t.Fatalf("call %d rank %d changed when P grew from 4 to 8", c, r)
			}
		}
	}
}

// TestSeedIsolationSubsystems: the value-noise subsystem and the support
// subsystem draw from separate streams, so changing one leaves the other
// byte-identical.
func TestSeedIsolationSubsystems(t *testing.T) {
	base := Scenario{
		Name: "subsys", N: 1 << 14, P: 4, Calls: 3,
		Density: Const(0.03),
	}
	normal := base
	normal.Values = ValuesNormal
	key := NewKey(29)
	a := base.Generator(key).All()
	b := normal.Generator(key).All()
	for c := range a {
		for r := range a[c] {
			ai, _ := a[c][r].Pairs()
			bi, _ := b[c][r].Pairs()
			if len(ai) != len(bi) {
				t.Fatalf("support size changed with the value spec")
			}
			for j := range ai {
				if ai[j] != bi[j] {
					t.Fatalf("call %d rank %d: support changed when only the value distribution changed", c, r)
				}
			}
		}
	}
	// Conversely, reshaping the support (same k) leaves the value stream's
	// draw sequence unchanged.
	shaped := base
	shaped.Blocks = []Block{{Start: 0.2, Frac: 0.1, Weight: 1}}
	shaped.HotMass = Const(0.8)
	sv := shaped.Generator(key).All()
	for c := range a {
		for r := range a[c] {
			_, av := a[c][r].Pairs()
			_, bv := sv[c][r].Pairs()
			as := append([]float64(nil), av...)
			bs := append([]float64(nil), bv...)
			sort.Float64s(as)
			sort.Float64s(bs)
			for j := range as {
				if as[j] != bs[j] {
					t.Fatalf("call %d rank %d: value draws changed when only the support shape changed", c, r)
				}
			}
		}
	}
}

// TestSeedIsolationCallPrefix: a longer run extends a shorter one — the
// shared prefix is byte-identical, so cutting a sweep short (or extending
// it) never invalidates earlier calls.
func TestSeedIsolationCallPrefix(t *testing.T) {
	short := Scenario{Name: "prefix", N: 1 << 14, P: 4, Calls: 3, Density: Const(0.02)}
	long := short
	long.Calls = 6
	key := NewKey(31)
	a := short.Generator(key).All()
	b := long.Generator(key).All()
	for c := range a {
		for r := range a[c] {
			if !a[c][r].Equal(b[c][r]) {
				t.Fatalf("call %d rank %d: prefix changed when Calls grew", c, r)
			}
		}
	}
}
