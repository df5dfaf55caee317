// Package comm provides the message-passing substrate the collectives run
// on: an in-process "world" of P ranks (one goroutine each) exchanging
// tagged messages, in the style of MPI point-to-point communication. It
// stands in for the MPI runtime the paper builds on (there is no MPI
// ecosystem for Go), preserving exactly the properties the collective
// algorithms rely on: ordered, reliable, tagged point-to-point messages
// between any pair of ranks, plus nonblocking operation via Requests.
//
// Every message carries both its payload and its modeled wire size. How a
// message actually moves — and what its timestamps mean — is the pluggable
// Transport's business (see transport.go): the default simulator backend
// advances per-rank virtual clocks by the α–β model, while the real
// backends (goroutine, TCP) move bytes over shared memory or sockets and
// stamp measured wall-clock times. Collective implementations are written
// once against Proc and run unchanged on every backend.
package comm

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// Message is a tagged point-to-point message.
type Message struct {
	// Src is the sender's rank.
	Src int
	// Tag disambiguates concurrent protocols (MPI-style).
	Tag int
	// Payload is the application data. Ownership transfers to the receiver:
	// senders must not mutate a payload after sending. A block-allgather
	// list transfers like any payload, but the blocks inside it are
	// forwarded from rank to rank as they arrived: they are shared
	// read-only by every rank that has seen them, not owned by the last.
	// What a rank no longer references — a payload it has sent, or one it
	// received and consumed — it may hand to Proc.Recycle, which on TCP
	// lets the next arrival be decoded into that storage and in process
	// does nothing: a shared block goes back only to its owner's pool,
	// once every rank has read it (stream.Scratch.Lend).
	Payload any
	// Bytes is the modeled wire size used by the α–β cost model.
	Bytes int
	// Arrival is the time at which the message is fully received: virtual
	// α–β seconds on the simulator backend, measured wall-clock seconds
	// since the Run epoch on real transports.
	Arrival float64
}

// World is a communicator over P ranks.
type World struct {
	p       int
	profile simnet.Profile    // the outermost level's: local compute costs
	hier    *simnet.Hierarchy // the machine over the ranks; never nil, depth 1 when flat
	boxes   []*mailbox
	pools   []*stream.Scratch // one per rank, for the world's life (Proc.Pool)
	kept    []map[any]any     // one per rank, beside its pool (Keep)
	times   []float64         // final per-rank time (virtual or wall), filled by Run

	// mach and slots are set only by NewWorldPlaced: the full machine
	// hierarchy and the ascending machine slot hosting each rank. Pricing
	// (profiles, contention levels) then happens over slots on mach, while
	// hier holds the induced job-structure hierarchy (flat when irregular).
	mach  *simnet.Hierarchy
	slots []int

	// activity, when non-nil, replaces the static communicator-size
	// contention proxy with observed in-flight flow counts (see
	// SetActivitySource). Install before Run; reads happen on rank
	// goroutines.
	activity ActivitySource

	// transport is the execution backend (see transport.go); wall caches
	// transport.Wall() for the clock-gating hot paths, and epoch anchors
	// wall-clock measurement (unix nanos, reset by Run).
	transport Transport
	wall      bool
	epoch     atomic.Int64

	// local, when non-nil, lists the world ranks this process hosts (the
	// multi-process TCP form); nil means all ranks are local.
	local []int

	msgs  atomic.Int64 // total messages sent since the last reset
	bytes atomic.Int64 // total modeled payload bytes since the last reset

	// poisoned is set when a rank panics mid-Run so that ranks blocked in
	// Recv unblock (and re-panic) instead of deadlocking on messages that
	// will never arrive.
	poisoned atomic.Bool

	// onSend, when non-nil, is called with every Send (see OnSend).
	// Install before Run; reads happen on rank goroutines.
	onSend func(TraceEvent)

	// obs, when non-nil, is the observability hub plus the cached
	// hot-path metric handles (see obs.go). Installed by
	// EnableObservability before Run; nil means disabled, and every
	// instrumentation site costs one pointer comparison.
	obs *worldObs
}

type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []Message
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// NewWorld creates a world of p ranks on the flat network of the given
// profile: the depth-1 case of NewWorldHier (an ad-hoc unnamed profile is
// accepted here). Panics if p <= 0.
func NewWorld(p int, profile simnet.Profile) *World {
	return newWorld(p, simnet.Flat(profile))
}

// newWorld builds the simulator-backed world of p ranks organized by h.
func newWorld(p int, h simnet.Hierarchy) *World {
	if p <= 0 {
		panic("comm: world size must be positive")
	}
	w := &World{p: p, profile: h.Levels[len(h.Levels)-1].Profile, hier: &h,
		boxes: make([]*mailbox, p), pools: make([]*stream.Scratch, p), kept: make([]map[any]any, p), times: make([]float64, p)}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	w.newPools()
	w.setTransport(simTransport{})
	return w
}

// newPools gives every rank an empty pool and slot, dropping any it had.
func (w *World) newPools() {
	for i := range w.pools {
		w.pools[i] = stream.NewScratch()
		w.kept[i] = map[any]any{}
	}
}

// Pool returns rank's pool (see Proc.Pool). Safe to call from inside Run,
// with the calling rank's own id: the pool belongs to that rank alone.
func (w *World) Pool(rank int) *stream.Scratch { return w.pools[rank] }

// setTransport installs the execution backend and caches its clock mode.
func (w *World) setTransport(t Transport) {
	w.transport = t
	w.wall = t.Wall()
	w.epoch.Store(time.Now().UnixNano())
	w.syncObsClock()
}

// Transport returns the name of the world's execution backend: "sim" (the
// default virtual-clock simulator), "goroutine", or "tcp".
func (w *World) Transport() string { return w.transport.Name() }

// WallClock reports whether the world's times (Times, MaxTime, Proc.Now,
// Message.Arrival, TraceEvent timestamps) are measured wall-clock seconds
// rather than simulated virtual seconds. False on the simulator backend,
// true on the goroutine and TCP backends.
func (w *World) WallClock() bool { return w.wall }

// Close releases any transport resources (network listeners and
// connections of the TCP backend; a no-op for the simulator and goroutine
// backends). The world must not be used after Close.
func (w *World) Close() error { return w.transport.close() }

// wallNow returns the measured seconds since the last Run's epoch.
func (w *World) wallNow() float64 {
	return float64(time.Now().UnixNano()-w.epoch.Load()) * 1e-9
}

// localRanks returns the world ranks hosted by this process.
func (w *World) localRanks() []int {
	if w.local != nil {
		return w.local
	}
	all := make([]int, w.p)
	for i := range all {
		all[i] = i
	}
	return all
}

// LocalRanks returns the world ranks this process hosts: all of them
// except on a multi-process TCP world restricted with TCPConfig.LocalRanks.
// Run executes rank programs (and fills Times entries) only for these.
func (w *World) LocalRanks() []int {
	return append([]int(nil), w.localRanks()...)
}

// NewWorldHier creates a world of p ranks on an N-level machine hierarchy:
// every message is priced by the profile of the innermost level its two
// ranks share (simnet.Hierarchy.ProfileFor), and pays each crossed level's
// egress serialization factor on its bandwidth term (see Proc.Send). The
// world's default profile (returned by Profile, used for local compute
// costs) is the outermost level's. Panics if h.Validate fails or p <= 0.
func NewWorldHier(p int, h simnet.Hierarchy) *World {
	if err := h.Validate(); err != nil {
		panic(err.Error())
	}
	return newWorld(p, h)
}

// NewWorldPlaced creates a world of p ranks gang-placed onto slots of a
// larger machine: rank i occupies machine slot slots[i] (strictly
// ascending, within the machine), and every message is priced by the
// machine hierarchy over the two ranks' slots — profile of the innermost
// machine level the slots share, serialization factors of the machine
// levels crossed. When the placement is regular, the world reports the
// induced job-structure hierarchy (simnet.Hierarchy.Induced) through
// Hierarchy/SubLevel so hierarchical collectives organize around the
// machine's real locality; irregular placements report the flat hierarchy
// and run flat, still machine-correctly priced. Panics on an invalid machine,
// a slot count mismatch, or out-of-machine slots. Multi-tenant contention
// across co-placed worlds is modeled by installing a shared
// ActivitySource (see SetActivitySource); without one, contention falls
// back to the per-world static proxy.
func NewWorldPlaced(p int, mach simnet.Hierarchy, slots []int) *World {
	if err := mach.Validate(); err != nil {
		panic(err.Error())
	}
	if len(slots) != p {
		panic(fmt.Sprintf("comm: %d slots for %d ranks", len(slots), p))
	}
	for i, s := range slots {
		if s < 0 {
			panic(fmt.Sprintf("comm: negative machine slot %d", s))
		}
		if i > 0 && slots[i-1] >= s {
			panic("comm: machine slots must be strictly ascending")
		}
	}
	h, ok := mach.Induced(slots)
	if !ok {
		h = simnet.Flat(mach.Levels[len(mach.Levels)-1].Profile)
	}
	w := newWorld(p, h)
	w.mach = &mach
	w.slots = append([]int(nil), slots...)
	return w
}

// ActivitySource supplies observed per-level in-flight flow counts for
// dynamic contention pricing — the multi-tenant replacement for the static
// communicator-size proxy (see Proc.Send). Slot arguments are machine
// slots on placed worlds (NewWorldPlaced) and plain world ranks otherwise;
// levels index the pricing hierarchy (the machine's, on placed worlds).
// Counts include the querying flow itself; values below 1 are treated
// as 1. Implementations must be safe for concurrent reads from rank
// goroutines — the cluster simulator satisfies this by only mutating
// counters between Run calls on its single event-loop goroutine.
type ActivitySource interface {
	// EgressFlows returns how many flows are driving the egress of the
	// level-`level` group containing `slot` at the current event.
	EgressFlows(slot, level int) int
	// IngressFlows returns how many flows are converging on the ingress of
	// the level-`level` group containing `slot` at the current event.
	IngressFlows(slot, level int) int
}

// SetActivitySource installs src as the world's dynamic contention oracle:
// Send prices every crossed level's egress (and, on hierarchies with
// ingress caps, the destination's ingress) with src's observed flow counts
// instead of the static communicator-size proxy. Install before Run; pass
// nil to restore the proxy.
func (w *World) SetActivitySource(src ActivitySource) { w.activity = src }

// Size returns the number of ranks.
func (w *World) Size() int { return w.p }

// Profile returns the world's network profile (the outermost level's).
func (w *World) Profile() simnet.Profile { return w.profile }

// Hierarchy returns the machine the world's ranks are organized by: the
// one it was built on, the induced job-structure hierarchy of a regular
// placement, or the flat one (Depth() == 1) of Profile. The value is the
// world's own — shared and read-only.
func (w *World) Hierarchy() *simnet.Hierarchy { return w.hier }

// pricingHier returns the hierarchy messages are priced on: the machine
// hierarchy for placed worlds, the world's own otherwise.
func (w *World) pricingHier() *simnet.Hierarchy {
	if w.mach != nil {
		return w.mach
	}
	return w.hier
}

// slotOf maps a world rank to its position on the pricing hierarchy: its
// machine slot on placed worlds, the rank itself otherwise.
func (w *World) slotOf(rank int) int {
	if w.slots != nil {
		return w.slots[rank]
	}
	return rank
}

// Times returns each rank's completion time for the last Run. On the
// simulator backend (the default) entries are final virtual-clock values —
// the modeled α–β completion times. On the real backends (goroutine, TCP)
// entries are measured wall-clock seconds from the Run epoch to the rank's
// program returning. On a multi-process TCP world only this process's
// LocalRanks entries are filled; the rest stay zero.
func (w *World) Times() []float64 { return w.times }

// TotalMessages returns the number of messages sent since the last
// ResetCounters, across all ranks. Useful for verifying the analytic
// message complexity of collective algorithms.
func (w *World) TotalMessages() int64 { return w.msgs.Load() }

// TotalBytes returns the total modeled payload volume since the last
// ResetCounters.
func (w *World) TotalBytes() int64 { return w.bytes.Load() }

// ResetCounters zeroes the message and byte counters.
func (w *World) ResetCounters() {
	w.msgs.Store(0)
	w.bytes.Store(0)
}

// MaxTime returns the maximum entry of Times: the simulated completion
// time of the last Run on the simulator backend, the measured wall-clock
// completion time (of this process's ranks) on real transports.
func (w *World) MaxTime() float64 {
	max := 0.0
	for _, t := range w.times {
		if t > max {
			max = t
		}
	}
	return max
}

// Proc is one rank's handle on the world. A Proc is confined to the
// goroutine running the rank's program (plus any nonblocking-operation
// goroutines it explicitly forks via Fork).
//
// A Proc may be a sub-communicator view (see Sub): Rank and Size then
// refer to the group, and peer arguments to Send/Recv/SendRecv/Barrier are
// group-local ranks, transparently translated to world ranks. Collective
// algorithms written against this interface therefore run unchanged over
// any subset of ranks.
type Proc struct {
	rank    int // world rank
	world   *World
	clock   simnet.Clock
	nextTag int

	// group, when non-nil, restricts this view to a sub-communicator: the
	// ascending world ranks of the group, with groupRank this rank's index.
	group     []int
	groupRank int

	// levelUsers caches, per hierarchy level, the number of this
	// communicator's ranks sharing this rank's group at that level — the
	// modeled count of flows contending for the group's egress (see
	// activeAt). A zero entry means not yet computed.
	levelUsers []int

	// obs is this rank's span track, cached at Proc creation (Run, Sub,
	// Fork) so the disabled path is a plain nil field check. Nil when
	// the world's observability is disabled.
	obs *obs.Track

	// pool is the rank's pool (Pool), kept its slot (Keep); nil on a fork.
	pool *stream.Scratch
	kept map[any]any
}

// Rank returns this process's rank in [0, Size) — group-local on a
// sub-communicator view.
func (p *Proc) Rank() int {
	if p.group != nil {
		return p.groupRank
	}
	return p.rank
}

// Pool returns the rank's reusable storage: one stream.Scratch per rank,
// which the world keeps from its construction to its end, across Run
// calls, so a caller that draws from it and gives back what it is done
// with finds it warm at its next call, as an MPI-4 persistent collective
// (MPI_Allreduce_init) finds the storage it was set up with. The pool
// belongs to the rank's goroutine: a Sub view shares it, a forked Proc
// (Fork, ForkInto), which may run beside the rank, has none (nil, on
// which every Scratch method degrades to plain allocation), and
// collectives the rank keeps in flight at once run on child pools of it
// (stream.Scratch.Child). A Run that re-raises a rank's panic replaces
// every rank's pool with an empty one, so storage an aborted collective
// still held is never handed out again.
func (p *Proc) Pool() *stream.Scratch { return p.pool }

// Keep returns the value the world keeps for the rank under key, built by
// build on first use — MPI's attribute caching (MPI_Comm_set_attr) beside
// the rank's pool. Give each use an unexported key type, as for
// context.WithValue. The pool's rules hold: a Sub view shares the values,
// a fork keeps none (build runs every call), and a Run that re-raises a
// panic drops them. A kept value must hold no goroutine or descriptor
// between calls: most worlds are never closed.
func Keep[T any](p *Proc, key any, build func() T) T {
	if p.kept == nil {
		return build()
	}
	if v, ok := p.kept[key]; ok {
		return v.(T)
	}
	v := build()
	p.kept[key] = v
	return v
}

// WorldRank returns this process's rank in the full world, regardless of
// any sub-communicator view.
func (p *Proc) WorldRank() int { return p.rank }

// Size returns the communicator size (the group size on a
// sub-communicator view).
func (p *Proc) Size() int {
	if p.group != nil {
		return len(p.group)
	}
	return p.world.p
}

// worldRank translates a communicator-local peer rank to a world rank.
func (p *Proc) worldRank(r int) int {
	if p.group != nil {
		if r < 0 || r >= len(p.group) {
			panic(fmt.Sprintf("comm: invalid group rank %d (group size %d)", r, len(p.group)))
		}
		return p.group[r]
	}
	if r < 0 || r >= p.world.p {
		panic(fmt.Sprintf("comm: invalid rank %d (world size %d)", r, p.world.p))
	}
	return r
}

// Profile returns the network profile (the outermost level's).
func (p *Proc) Profile() simnet.Profile { return p.world.profile }

// Hierarchy returns the machine this communicator's ranks are organized
// by (see World.Hierarchy; shared and read-only). Sub-communicator views
// report the flat hierarchy of Profile: the grouping is defined over world
// ranks, and hierarchical algorithms are expected to run on the world
// communicator.
func (p *Proc) Hierarchy() *simnet.Hierarchy {
	if p.group != nil {
		flat := simnet.Flat(p.world.profile)
		return &flat
	}
	return p.world.hier
}

// Sub returns a sub-communicator view of this rank over the given world
// ranks (ascending, distinct, containing this rank). The view starts at
// the parent's current virtual time and has an independent clock; fold its
// elapsed time back with Join after the sub-group phase completes, exactly
// as with Fork. Tag ranges must be provided by the caller (allocate on the
// parent in program order); nesting Sub on a sub view is not supported.
func (p *Proc) Sub(ranks []int) *Proc {
	if p.group != nil {
		panic("comm: nested sub-communicators are not supported")
	}
	idx := -1
	for i, r := range ranks {
		if i > 0 && ranks[i-1] >= r {
			panic("comm: Sub ranks must be ascending and distinct")
		}
		if r < 0 || r >= p.world.p {
			panic(fmt.Sprintf("comm: Sub rank %d outside world of %d", r, p.world.p))
		}
		if r == p.rank {
			idx = i
		}
	}
	if idx < 0 {
		panic(fmt.Sprintf("comm: Sub group %v does not contain caller rank %d", ranks, p.rank))
	}
	s := &Proc{rank: p.rank, world: p.world, group: ranks, groupRank: idx, obs: p.obs, pool: p.pool, kept: p.kept}
	s.clock.Observe(p.clock.Now())
	return s
}

// SubLevel returns the sub-communicator of all ranks sharing this rank's
// level-l group: SubLevel(0) is this rank's node, SubLevel(1) its rack or
// Dragonfly group, and SubLevel(Depth-1) the whole world. The view follows
// the Sub contract (independent clock, fold back with Join, no nesting).
// Panics on an out-of-range level.
func (p *Proc) SubLevel(l int) *Proc {
	h := p.world.hier
	if l < 0 || l >= h.Depth() {
		panic(fmt.Sprintf("comm: SubLevel %d outside hierarchy of depth %d", l, h.Depth()))
	}
	return p.Sub(h.GroupRanks(p.rank, l, p.world.p))
}

// Now returns the rank's current time: its virtual clock on the simulator
// backend, measured wall-clock seconds since the Run epoch on real
// transports (where every rank shares the machine's real clock).
func (p *Proc) Now() float64 {
	if p.world.wall {
		return p.world.wallNow()
	}
	return p.clock.Now()
}

// Compute advances the rank's virtual clock by a modeled computation. On
// real transports it is a no-op: computation there takes actual wall time,
// which Now measures directly.
func (p *Proc) Compute(seconds float64) {
	if p.world.wall {
		return
	}
	p.clock.Advance(seconds)
}

// Observe advances the rank's virtual clock to time t if later. A no-op on
// real transports, where time flows on its own.
func (p *Proc) Observe(t float64) {
	if p.world.wall {
		return
	}
	p.clock.Observe(t)
}

// Wall reports whether this rank's times are measured wall-clock seconds
// (see World.WallClock) — the gate collectives use to enable true-
// parallelism optimizations that would be meaningless under the
// single-machine simulator.
func (p *Proc) Wall() bool { return p.world.wall }

// NextTagBase allocates a fresh tag range for one collective operation.
// Ranks call collectives in identical program order, so the same base is
// allocated on every rank; each collective may use [base, base+tagStride).
func (p *Proc) NextTagBase() int {
	base := p.nextTag
	p.nextTag += tagStride
	return base
}

// tagStride is the tag space reserved per collective invocation; stages
// within one collective offset into this range.
const tagStride = 1 << 20

// activeAt returns how many ranks of this Proc's communicator share this
// rank's level-l group on the pricing hierarchy — the modeled number of
// flows contending for the group's egress when the communicator drives
// traffic out of it. This is the static fallback proxy, used only when no
// ActivitySource is installed: the communicator group stands in for the
// in-flight flow set, on the grounds that collectives keep every member of
// the communicator they run on busy in lockstep — a world-communicator
// phase contends with all group-mates, a leader sub-communicator phase
// (one rank per group) is contention-free. The proxy is exact for one job
// running lockstep collectives alone on the machine and deliberately blind
// to anything else (overlapped collectives, co-tenant jobs); worlds driven
// by the cluster simulator install an ActivitySource and never reach it.
// The count is static per communicator view, which keeps message pricing
// deterministic (no cross-goroutine state).
func (p *Proc) activeAt(l int) int {
	w := p.world
	h := w.pricingHier()
	if p.levelUsers == nil {
		p.levelUsers = make([]int, h.Depth())
	}
	if p.levelUsers[l] == 0 {
		if p.group == nil && w.slots == nil {
			p.levelUsers[l] = len(h.GroupRanks(p.rank, l, w.p))
		} else {
			mine := h.GroupOf(w.slotOf(p.rank), l)
			if p.group == nil {
				for r := 0; r < w.p; r++ {
					if h.GroupOf(w.slotOf(r), l) == mine {
						p.levelUsers[l]++
					}
				}
			} else {
				for _, r := range p.group {
					if h.GroupOf(w.slotOf(r), l) == mine {
						p.levelUsers[l]++
					}
				}
			}
		}
	}
	return p.levelUsers[l]
}

// Send transmits payload of the given modeled size to rank `to`, through
// the world's Transport.
//
// On the simulator backend the sender's clock advances by the full
// α+β·bytes transfer (message injection occupies the sender, which is what
// gives the split phase its (P−1)α latency term in §5.3.2); the receiver
// will observe the same completion time. The message is priced by the
// profile of the innermost level the two ranks share and pays, for every
// level it escapes below the shared one, that level's egress
// serialization factor (simnet.Hierarchy.SerialFactor) — and, on
// hierarchies with ingress caps, every entered level's ingress factor
// (simnet.Hierarchy.IngressFactor). The contending flow counts come from
// the world's ActivitySource when one is installed (observed in-flight
// flows, the multi-tenant cluster path) and otherwise from the static
// communicator-size proxy of activeAt — on a simnet.TwoLevel world exactly
// the per-node NIC factor.
//
// On real transports the recorded send times are measured and contention
// is physical, so no factor is modeled: the goroutine backend hands the
// payload over by reference like the simulator, the TCP backend serializes
// it through the wire codec onto a socket.
func (p *Proc) Send(to, tag int, payload any, bytes int) {
	p.world.transport.send(p, p.worldRank(to), tag, payload, bytes)
}

// Recycle declares that this Proc no longer references payload — one it
// has sent, or one it received and has consumed — so the transport may
// reuse its storage. Over TCP every payload a rank holds is its own, built
// by it or decoded for it, and Recycle puts it into the pool the rank's
// socket readers decode arrivals into; the in-process backends hand
// payloads over by reference and ignore it. After the call the caller must
// not touch payload or anything inside it, except the blocks of a
// block-allgather list, which Recycle never takes: a block is its owner's,
// lent to whoever holds it by reference (stream.Scratch.Lend) and taken
// back by the owner's pool once every holder has read it. Pass the
// interface value that was sent or received: Recycle allocates nothing.
func (p *Proc) Recycle(payload any) {
	p.world.transport.recycle(p, payload)
}

// ByReference reports whether this rank's sends hand the payload object
// itself to the receiver, as the simulator and goroutine backends do, so
// that a block forwarded through an allgather is read by every rank at
// once. Over TCP it is false: each receiver decodes a copy of its own.
func (p *Proc) ByReference() bool { return p.world.transport.byReference() }

// sendFactor returns the modeled contention factor and priced hierarchy
// level of a message to world rank dst (see Send): the product of every
// escaped level's egress serialization factor and — under an
// ActivitySource, on ingress-capped hierarchies — every entered level's
// ingress factor at the destination.
func (p *Proc) sendFactor(dst int) (factor float64, level int) {
	factor = 1.0
	w := p.world
	h := w.pricingHier()
	src, d := w.slotOf(p.rank), w.slotOf(dst)
	level = h.SharedLevel(src, d)
	if a := w.activity; a != nil {
		for l := 0; l < level; l++ {
			if n := a.EgressFlows(src, l); n > 1 {
				factor *= h.SerialFactor(l, n)
			}
			if n := a.IngressFlows(d, l); n > 1 {
				factor *= h.IngressFactor(l, n)
			}
		}
		return factor, level
	}
	for l := 0; l < level; l++ {
		factor *= h.SerialFactor(l, p.activeAt(l))
	}
	return factor, level
}

// sharedLevel returns the hierarchy level a message to world rank dst is
// priced (and calibrated) at: the innermost pricing-hierarchy level shared
// by the two ranks (their machine slots, on placed worlds).
func (p *Proc) sharedLevel(dst int) int {
	w := p.world
	return w.pricingHier().SharedLevel(w.slotOf(p.rank), w.slotOf(dst))
}

// recordSend updates the world counters, calls the send hook and records
// the obs send span — shared bookkeeping of every transport's send path.
func (p *Proc) recordSend(dst, tag, bytes int, start, arrival, factor float64, level int) {
	p.world.msgs.Add(1)
	p.world.bytes.Add(int64(bytes))
	if fn := p.world.onSend; fn != nil {
		fn(TraceEvent{Src: p.rank, Dst: dst, Tag: tag, Bytes: bytes,
			SendTime: start, Arrival: arrival, NICFactor: factor, Level: level})
	}
	if ob := p.world.obs; ob != nil {
		p.observeSend(ob, dst, tag, bytes, start, arrival, level)
	}
}

// deliver enqueues a message into the destination world rank's mailbox.
func (p *Proc) deliver(to int, m Message) {
	p.world.deliver(to, m)
}

// deliver enqueues a message into a local rank's mailbox — the common
// last hop of every transport (the TCP backend's socket readers land
// remote messages here too).
func (w *World) deliver(to int, m Message) {
	box := w.boxes[to]
	box.mu.Lock()
	box.pending = append(box.pending, m)
	box.mu.Unlock()
	box.cond.Broadcast()
}

// poison marks the world failed and wakes every rank blocked in Recv,
// which then re-panics instead of deadlocking on messages that will never
// arrive. Rank panics and transport failures (a TCP peer dying mid-run)
// both land here.
func (w *World) poison() {
	w.poisoned.Store(true)
	for _, b := range w.boxes {
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	}
}

// Recv blocks until a message from rank `from` with the given tag is
// available, removes it, advances the virtual clock to its arrival time
// (simulator backend only), and returns it. Out-of-order messages
// (different tags or sources) are left queued, giving MPI-style tag
// matching.
func (p *Proc) Recv(from, tag int) Message {
	wfrom := p.worldRank(from)
	box := p.world.boxes[p.rank]
	box.mu.Lock()
	defer box.mu.Unlock()
	for {
		for i, m := range box.pending {
			if m.Src == wfrom && m.Tag == tag {
				// Delete zeroes the vacated tail slot, which would
				// otherwise pin the payload past the receiver's release.
				box.pending = slices.Delete(box.pending, i, i+1)
				p.Observe(m.Arrival)
				return m
			}
		}
		if p.world.poisoned.Load() {
			panic("comm: world poisoned by a peer rank's panic")
		}
		box.cond.Wait()
	}
}

// SendRecv exchanges messages with a peer (both directions use the same
// tag), the fundamental step of recursive doubling/halving. Send happens
// first; the pattern is deadlock-free because payloads are buffered.
func (p *Proc) SendRecv(peer, tag int, payload any, bytes int) Message {
	p.Send(peer, tag, payload, bytes)
	return p.Recv(peer, tag)
}

// Fork creates a detached Proc sharing this rank's identity and mailbox but
// with an independent clock starting at the current virtual time, and
// without the rank's pool (Pool). Used to run nonblocking collectives: the
// forked Proc's sends and receives do not advance the parent's clock; Join
// folds the forked completion time back.
//
// Tag ranges must be allocated on the parent (in program order) before
// forking, so concurrent operations never collide.
func (p *Proc) Fork() *Proc {
	f := new(Proc)
	p.ForkInto(f)
	return f
}

// ForkInto re-initialises f to exactly what Fork would return now — the
// clock observed from p's, tag cursor 0, p's group, contention cache and
// obs track, and no pool or slot (Pool, Keep) — reusing f's storage, so a
// nonblocking operation issued step after step keeps one forked Proc. f
// must be idle: whatever ran on it has finished. The contention cache is a
// pure function of the rank and its communicator, so when p has not filled
// its own, f keeps what it computed as an earlier fork of the same
// communicator.
func (p *Proc) ForkInto(f *Proc) {
	users := f.levelUsers
	if f.world != p.world || f.rank != p.rank || !slices.Equal(f.group, p.group) {
		users = nil
	}
	if p.levelUsers != nil {
		users = append(users[:0], p.levelUsers...)
	}
	*f = Proc{rank: p.rank, world: p.world, group: p.group, groupRank: p.groupRank,
		levelUsers: users, obs: p.obs}
	f.clock.Observe(p.clock.Now())
}

// Abort poisons the world as a rank's panic does once Run has recovered
// it: every rank blocked in Recv panics instead of waiting for messages
// that will never arrive. A nonblocking operation's goroutine, which runs
// outside Run's recover, calls it before handing its panic to the rank.
func (p *Proc) Abort() { p.world.poison() }

// Join folds a forked Proc's elapsed virtual time into the parent,
// modeling perfect computation/communication overlap: the parent's clock
// becomes max(parent, forked). A no-op on real transports, where overlap
// is physical.
func (p *Proc) Join(f *Proc) {
	p.Observe(f.Now())
}

// Barrier synchronizes all ranks of this communicator (dissemination
// barrier: ⌈log2 P⌉ rounds), advancing every clock to a common time.
func (p *Proc) Barrier() {
	base := p.NextTagBase()
	n, rank := p.Size(), p.Rank()
	for round, dist := 0, 1; dist < n; round, dist = round+1, dist*2 {
		to := (rank + dist) % n
		from := (rank - dist + n) % n
		p.Send(to, base+round, nil, 0)
		p.Recv(from, base+round)
	}
}

// Run executes f on every rank this process hosts (all of them, except on
// a multi-process TCP world) concurrently and returns the per-rank
// results. Panics on any rank are re-raised on the caller with the rank
// attached. After Run returns, World.Times holds each local rank's
// completion time — final virtual clock on the simulator, measured wall
// seconds on real transports.
func Run[R any](w *World, f func(*Proc) R) []R {
	w.poisoned.Store(false)
	w.epoch.Store(time.Now().UnixNano())
	for i := range w.times {
		w.times[i] = 0
	}
	results := make([]R, w.p)
	panics := make([]any, w.p)
	var wg sync.WaitGroup
	for _, r := range w.localRanks() {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					panics[rank] = e
					// Poison the world and wake every rank blocked in
					// Recv: their messages will never arrive.
					w.poison()
				}
			}()
			p := &Proc{rank: rank, world: w, pool: w.pools[rank], kept: w.kept[rank]}
			if w.obs != nil {
				p.obs = w.obs.hub.Rank(rank)
			}
			results[rank] = f(p)
			w.times[rank] = p.Now()
		}(r)
	}
	wg.Wait()
	// Drain mailboxes so a world can be reused across experiments even if
	// a protocol intentionally leaves stragglers (none of ours do; this is
	// defensive hygiene) or a rank's panic cut a collective short.
	for _, b := range w.boxes {
		b.mu.Lock()
		clear(b.pending) // stragglers' payloads must not outlive the Run
		b.pending = b.pending[:0]
		b.mu.Unlock()
	}
	// Re-raise the root cause, preferring a rank's own panic over the
	// secondary "world poisoned" panics it triggered in blocked peers.
	var first any
	firstRank := -1
	for rank, e := range panics {
		if e == nil {
			continue
		}
		if s, ok := e.(string); ok && s == "comm: world poisoned by a peer rank's panic" {
			if first == nil {
				first, firstRank = e, rank
			}
			continue
		}
		first, firstRank = e, rank
		break
	}
	if first != nil {
		// An aborted collective may have left storage lent to peers, or
		// half-written, in any rank's pool.
		w.newPools()
		panic(fmt.Sprintf("comm: rank %d panicked: %v", firstRank, first))
	}
	return results
}
