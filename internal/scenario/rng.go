// Package scenario is the deterministic workload-generation subsystem: a
// declarative library of input scenarios (support shape, density and drift
// schedules, raggedness, per-layer profiles) generated from seed-isolated
// per-subsystem random streams, plus record/replay of the per-step,
// per-rank support/value traces a scenario emits.
//
// The determinism contract is the one the drift-gated BENCH documents
// rely on and the seed-isolation regression test pins: every random draw
// comes from a stream derived from (SimulationKey, stream name), where the
// name encodes the scenario, the subsystem (support sampling, value noise,
// drift, raggedness, batch sampling) and the rank. Because no two streams
// share state, adding a new scenario, a new subsystem, a new rank, or more
// calls never changes the byte stream any existing (scenario, subsystem,
// rank) tuple observes.
package scenario

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
)

// SimulationKey is the determinism key of one generation run: every random
// stream a generator consumes is derived from (key, stream name). Equal
// keys reproduce equal workloads byte for byte.
type SimulationKey uint64

// NewKey builds a SimulationKey from a user-facing seed. The seed is
// diffused (splitmix64 finalizer) so that adjacent seeds yield unrelated
// keys.
func NewKey(seed int64) SimulationKey {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return SimulationKey(z ^ (z >> 31))
}

// Derive maps a stream name to the seed of that stream's generator:
// FNV-1a over the key bytes followed by the name. The mapping is stable
// across processes and releases — it is part of the trace/replay contract.
func (k SimulationKey) Derive(name string) int64 {
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(uint64(k) >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(name))
	return int64(h.Sum64())
}

// Subsystem names used by the scenario generator. Each subsystem draws
// from its own stream, so a scenario change that consumes more draws in
// one subsystem (say, a drift schedule adding raggedness) cannot perturb
// another subsystem's sequence.
const (
	// SubsystemSupport draws support indices (which coordinates are
	// non-zero).
	SubsystemSupport = "support"
	// SubsystemValues draws the values placed on the support.
	SubsystemValues = "values"
	// SubsystemDrift draws any stochastic part of a drift schedule.
	SubsystemDrift = "drift"
	// SubsystemRagged draws the per-rank non-zero-count jitter.
	SubsystemRagged = "ragged"
	// SubsystemBatch draws training minibatch indices (internal/train).
	SubsystemBatch = "batch"
	// SubsystemArrival draws per-job start-time jitter (internal/cluster).
	SubsystemArrival = "arrival"
	// SubsystemJitter draws per-step straggler stretch factors
	// (internal/cluster).
	SubsystemJitter = "jitter"
)

// PartitionedRNG hands out isolated, lazily-initialized random streams
// keyed by name. Streams are created under a lock, so concurrent ranks may
// request their streams in any order; each returned *rand.Rand is for a
// single goroutine, exactly like rand.New.
type PartitionedRNG struct {
	key     SimulationKey
	mu      sync.Mutex
	streams map[string]*rand.Rand
}

// NewPartitionedRNG returns a PartitionedRNG deriving every stream from
// the given key.
func NewPartitionedRNG(key SimulationKey) *PartitionedRNG {
	return &PartitionedRNG{key: key, streams: make(map[string]*rand.Rand)}
}

// Key returns the determinism key the streams derive from.
func (pr *PartitionedRNG) Key() SimulationKey { return pr.key }

// Named returns the stream of the given name, creating it on first use.
// The same name always returns the same stream instance; distinct names
// return streams with unrelated sequences.
func (pr *PartitionedRNG) Named(name string) *rand.Rand {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if r, ok := pr.streams[name]; ok {
		return r
	}
	r := rand.New(rand.NewSource(pr.key.Derive(name)))
	pr.streams[name] = r
	return r
}

// Stream returns the per-rank stream of one subsystem — the common case,
// equivalent to Named(subsystem + "/rank" + rank).
func (pr *PartitionedRNG) Stream(subsystem string, rank int) *rand.Rand {
	return pr.Named(streamName(subsystem, rank))
}

// StreamSeed is the seed Stream's generator starts from under key, for a
// caller that keeps one generator and reseeds it (rand.Rand.Seed).
func (k SimulationKey) StreamSeed(subsystem string, rank int) int64 {
	return k.Derive(streamName(subsystem, rank))
}

// streamName names Stream's stream.
func streamName(subsystem string, rank int) string {
	return fmt.Sprintf("%s/rank%d", subsystem, rank)
}
