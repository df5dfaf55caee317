// Package sparcml is the public API of the SparCML reproduction: sparse
// collective communication for machine learning (Renggli et al., SC'19).
//
// A World hosts P ranks as goroutines; each rank's program receives a Comm
// handle and exchanges sparse vectors with MPI-style collectives whose
// implementations exploit sparsity (SSAR/DSAR algorithms, §5.3 of the
// paper), optionally with QSGD low-precision compression of dense stages
// (§6) and nonblocking semantics (§7).
//
// Quick start:
//
//	world := sparcml.NewWorld(8, sparcml.Aries)
//	results := sparcml.Run(world, func(c *sparcml.Comm) []float64 {
//	    v := sparcml.NewSparse(1<<20, myIdx, myVal)
//	    sum := c.Allreduce(v, sparcml.Options{})
//	    return sum.ToDense()
//	})
//
// All collectives move real data and simultaneously advance a virtual
// latency–bandwidth clock, so world.SimTime() reports the communication
// time the operation would take on the selected network (Cray Aries,
// InfiniBand FDR, Gigabit Ethernet, or a Spark-like software stack). A
// machine is one Hierarchy: NewWorld's flat network is its depth-1 case,
// TwoLevel and DragonflyLike build the deeper ones for NewWorldHier.
package sparcml

import (
	"repro/internal/adapt"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// Vector is a sparse stream: a vector over [0, N) stored as sorted
// index–value pairs that automatically switches to a dense array when it
// fills in past the δ threshold. See stream.Vector for the full method
// set (Add, Concat, ExtractRange, Encode, ...).
type Vector = stream.Vector

// Op is a coordinate-wise reduction operation with a neutral element.
type Op = stream.Op

// Reduction operations.
const (
	OpSum  = stream.OpSum
	OpMax  = stream.OpMax
	OpMin  = stream.OpMin
	OpProd = stream.OpProd
)

// Algorithm selects an allreduce implementation.
type Algorithm = core.Algorithm

// Allreduce algorithms (§5.3), dense baselines, and Auto selection. Each
// runs at any depth of a machine hierarchy through Options.Levels.
const (
	Auto               = core.Auto
	SSARRecDouble      = core.SSARRecDouble
	SSARSplitAllgather = core.SSARSplitAllgather
	DSARSplitAllgather = core.DSARSplitAllgather
	DenseRecDouble     = core.DenseRecDouble
	DenseRabenseifner  = core.DenseRabenseifner
	DenseRing          = core.DenseRing
	RingSparse         = core.RingSparse
)

// AllLevels, set as Options.Levels, runs a pinned algorithm at the world's
// full hierarchy depth: intra-group reduces to the group leaders, the
// algorithm itself among the outermost leaders, and broadcasts back. Auto
// picks the depth itself whenever the cost model prices one cheapest —
// typically when a per-node NIC cap (a Level's Serial) makes concurrent
// flat flows expensive.
const AllLevels = core.AllLevels

// Options configures an allreduce; see core.Options. Setting the Scratch
// field (one pool per rank — see World.Scratch) makes steady-state
// allreduce calls nearly allocation-free.
type Options = core.Options

// AutoChunks, set as Options.Chunks, asks the cost model to pick the
// pipelined chunk degree alongside the algorithm (a positive value pins
// it; 0 or 1 runs the split phase as one chunk, in line).
const AutoChunks = core.AutoChunks

// Scratch is a per-rank pool of reusable reduction buffers. Passing one in
// Options.Scratch lets the collectives draw merge/densify storage from the
// pool and recycle received streams into it, so repeated allreduce calls
// allocate almost nothing. A Scratch belongs to ONE rank and must not be
// shared across ranks or across concurrently running collectives; vectors
// returned by a collective stay valid — their storage is only recycled if
// explicitly released with Scratch.Release.
type Scratch = stream.Scratch

// NewScratch returns an empty reduction-buffer pool for one rank.
func NewScratch() *Scratch { return stream.NewScratch() }

// SupportModel selects the index-distribution assumption behind the cost
// model's fill-in expectation E[K]; see core.CostScenario.Support for the
// estimators' validity ranges.
type SupportModel = core.SupportModel

// Support models for CostScenario.Support / Options.Support.
const (
	// SupportUniform is the paper's worst-case uniform support model.
	SupportUniform = core.SupportUniform
	// SupportClustered is the blocked hot-set support model
	// (density.ExpectedKClustered), parameterized by HotFraction/HotMass.
	SupportClustered = core.SupportClustered
)

// Adaptive is a per-rank runtime adaptation controller: an AutoAdaptive
// allreduce decision layer that sketches every input's support shape,
// keeps per-level α–β link constants calibrated from observed transfers,
// and feeds both into the cost model with hysteresis. Obtain controllers
// with World.EnableAdaptation + World.Adapt and drive calls through
// Comm.AllreduceAdaptive. See internal/adapt.Controller.
type Adaptive = adapt.Controller

// QuantConfig configures QSGD stochastic quantization; see quant.Config.
type QuantConfig = quant.Config

// Quantization norms.
const (
	NormMax = quant.NormMax
	NormL2  = quant.NormL2
)

// Profile describes a network in the α–β cost model.
type Profile = simnet.Profile

// Hierarchy describes a machine as an ordered list of Levels from
// innermost (intra-node links) to outermost (global links): Span(l)
// consecutive ranks share a level-l group, a message is priced by the
// profile of the innermost level its two ranks share, and each level's
// Serial cap models the group's egress bandwidth serialization. Use with
// NewWorldHier:
//
//	world := sparcml.NewWorldHier(64, sparcml.DragonflyLike(4, 4))
//
// Auto runs its algorithm hierarchically — and picks the depth — on such
// worlds whenever the level-aware cost model prices that cheapest.
// A flat network is the depth-1 hierarchy, which is what NewWorld builds.
type Hierarchy = simnet.Hierarchy

// Level is one tier of a Hierarchy: GroupSize units of the previous level
// per group, the Profile pricing messages whose innermost shared group is
// at this level, and the group's egress Serial cap.
type Level = simnet.Level

// DragonflyLike returns the three-tier hierarchy of a Dragonfly machine in
// the class of Piz Daint: NVLink-like links inside nodes of ranksPerNode
// ranks behind a single full-rate NIC, Aries links between the
// nodesPerGroup nodes of one group behind a tapered two-flow uplink, and
// AriesGlobal links between groups.
func DragonflyLike(ranksPerNode, nodesPerGroup int) Hierarchy {
	return simnet.DragonflyLike(ranksPerNode, nodesPerGroup)
}

// TwoLevel returns the two-tier hierarchy of multi-GPU nodes on one
// network: consecutive groups of ranksPerNode ranks share a node wired by
// intra, inter prices everything between nodes, and nicSerial, when
// positive, caps how many concurrent inter-node sends one node drives at
// full bandwidth (per-node NIC contention):
//
//	world := sparcml.NewWorldHier(32, sparcml.TwoLevel(4, sparcml.NVLinkLike, sparcml.Aries, 1))
func TwoLevel(ranksPerNode int, intra, inter Profile, nicSerial int) Hierarchy {
	return simnet.TwoLevel(ranksPerNode, intra, inter, nicSerial)
}

// CostScenario describes an allreduce instance for the analytic α–β(+NIC)
// cost model that drives Auto selection; see core.CostScenario for field
// semantics (byte quantities are wire bytes, times are simulated seconds).
type CostScenario = core.CostScenario

// PredictSeconds returns the modeled completion time in simulated seconds
// of one allreduce under the scenario, for any Auto candidate algorithm.
func PredictSeconds(alg Algorithm, s CostScenario) float64 {
	return core.PredictSeconds(alg, s)
}

// ChooseAutoLevels returns what Auto resolves to for a scenario — the
// paper's δ representation gate followed by a modeled-cost comparison of
// the candidates: the algorithm, the hierarchy depth it runs at
// (Options.Levels; 0 for flat choices) and the split-phase chunk count it
// pipelines at (Options.Chunks; 1 unless the scenario's Chunks is
// AutoChunks). On a multi-tier Hierarchy world the cost model also prices
// candidates at every usable depth — DSAR, or the one sparse algorithm a
// 64 KiB rule on a leader's expected accumulation names for that depth —
// and picks the cheapest.
func ChooseAutoLevels(s CostScenario) (Algorithm, int, int) {
	return core.ChooseAutoLevels(s)
}

// Built-in network profiles.
var (
	// Aries models Piz Daint's Cray Aries interconnect.
	Aries = simnet.Aries
	// InfiniBandFDR models an FDR InfiniBand fabric.
	InfiniBandFDR = simnet.InfiniBandFDR
	// GigE models Gigabit Ethernet.
	GigE = simnet.GigE
	// SparkLike models a JVM dataflow communication layer.
	SparkLike = simnet.SparkLike
	// NVLinkLike models an intra-node GPU interconnect, the natural intra
	// profile of a TwoLevel machine.
	NVLinkLike = simnet.NVLinkLike
	// AriesGlobal models the tapered global links between Dragonfly
	// groups, the natural outermost profile of a three-tier Hierarchy.
	AriesGlobal = simnet.AriesGlobal
)

// NewSparse builds a sparse vector of dimension n from index–value pairs
// under summation. Indices must be unique and in [0, n); they need not be
// sorted.
func NewSparse(n int, idx []int32, val []float64) *Vector {
	return stream.NewSparse(n, idx, val, stream.OpSum)
}

// NewSparseOp is NewSparse with an explicit reduction operation.
func NewSparseOp(n int, idx []int32, val []float64, op Op) *Vector {
	return stream.NewSparse(n, idx, val, op)
}

// NewDense builds a dense vector under summation.
func NewDense(values []float64) *Vector {
	return stream.NewDense(values, stream.OpSum)
}

// FromDense builds a vector from a dense slice, choosing the sparse
// representation when beneficial.
func FromDense(values []float64) *Vector {
	return stream.FromDense(values, stream.OpSum)
}

// World is a group of P communicating ranks over a simulated network.
type World struct {
	inner  *comm.World
	adapts []*Adaptive // one controller per rank, see EnableAdaptation
}

// NewWorld creates a world of p ranks on the given network profile.
func NewWorld(p int, profile Profile) *World {
	return &World{inner: comm.NewWorld(p, profile)}
}

// NewWorldHier creates a world of p ranks on an N-level machine hierarchy:
// every message is priced by the profile of the innermost level its ranks
// share and pays each crossed level's egress serialization factor. Auto
// picks the recursive hierarchical collectives — at the cheapest modeled
// depth — on such worlds.
func NewWorldHier(p int, h Hierarchy) *World {
	return &World{inner: comm.NewWorldHier(p, h)}
}

// TCPConfig configures a TCP-transport world (NewWorldTCP): the rendezvous
// address, this process's ranks, and the dial timeout.
type TCPConfig = comm.TCPConfig

// NewWorldTCP creates a world of p ranks communicating over TCP sockets —
// a real execution backend, with measured wall-clock times instead of the
// simulator's virtual clock. The zero cfg hosts every rank in this process
// behind an ephemeral loopback rendezvous; a multi-process world names a
// shared cfg.Rendezvous and partitions ranks via cfg.LocalRanks. The
// profile still parameterizes Auto's cost model (until calibration
// replaces it) but never prices a transfer. Close the world to release its
// sockets.
func NewWorldTCP(p int, profile Profile, cfg TCPConfig) (*World, error) {
	inner, err := comm.NewWorldTCP(p, profile, cfg)
	if err != nil {
		return nil, err
	}
	return &World{inner: inner}, nil
}

// UseGoroutineTransport switches the world to the in-process goroutine
// backend: ranks run truly concurrently, every payload is handed to its
// receiver by reference (as on the simulator — nothing is serialized, and
// a sent vector belongs to the receiver), and all times are measured
// wall-clock seconds. Call before Run; returns the world for chaining.
func (w *World) UseGoroutineTransport() *World {
	w.inner.UseGoroutineTransport()
	return w
}

// Transport names the world's execution backend: "sim", "goroutine", or
// "tcp".
func (w *World) Transport() string { return w.inner.Transport() }

// WallClock reports whether the world's times (SimTime, SimTimes, Now,
// trace timestamps) are measured wall-clock seconds rather than virtual
// α–β seconds.
func (w *World) WallClock() bool { return w.inner.WallClock() }

// Close releases backend resources (TCP listeners and connections); a
// no-op on the simulator and goroutine backends.
func (w *World) Close() error { return w.inner.Close() }

// Size returns the number of ranks.
func (w *World) Size() int { return w.inner.Size() }

// Scratch returns rank's reusable reduction-buffer pool: the one pool the
// world keeps per rank for its whole life, which the training loop draws
// from too. The pools persist across Run calls, which is what makes them
// pay off:
//
//	results := sparcml.Run(world, func(c *sparcml.Comm) []float64 {
//	    opts := sparcml.Options{Scratch: world.Scratch(c.Rank())}
//	    return c.Allreduce(v, opts).ToDense()
//	})
//
// Safe to call concurrently from inside Run, but always with the calling
// rank's own id: each pool belongs to exactly one rank. Collectives the
// rank keeps in flight at once each take a child pool of it
// (Scratch.Child). A Run that panics replaces every rank's pool with an
// empty one.
func (w *World) Scratch(rank int) *Scratch { return w.inner.Pool(rank) }

// EnableAdaptation switches the world to runtime-adaptive Auto selection:
// one Adaptive controller per rank is built — all identical, which is
// what keeps the per-rank decision state machines in lockstep — and the
// world's send hook folds every send into its rank's link calibrator (a
// few running sums per hierarchy level, so long-running workloads stay at
// constant memory). Call it once, from the driving goroutine, before Run;
// it is idempotent (later calls keep the first controllers).
// Then route collectives through the controllers:
//
//	world.EnableAdaptation()
//	results := sparcml.Run(world, func(c *sparcml.Comm) []float64 {
//	    a := world.Adapt(c.Rank())
//	    return c.AllreduceAdaptive(v, a, sparcml.Options{}).ToDense()
//	})
func (w *World) EnableAdaptation() {
	if w.adapts != nil {
		return
	}
	w.adapts = make([]*Adaptive, w.Size())
	for r := range w.adapts {
		w.adapts[r] = adapt.NewController(adapt.Config{})
	}
	adapt.Calibrate(w.inner, w.adapts)
}

// Observability is the per-world observation hub: a low-overhead metrics
// registry plus per-rank span timelines, exportable as a plain-text
// metrics dump (WriteMetrics) or a Chrome trace-event JSON (WriteChrome)
// that loads directly into Perfetto. See internal/obs for the span
// taxonomy and ARCHITECTURE.md's Observability section for a walkthrough.
type Observability = obs.Obs

// EnableObservability attaches an observation hub to the world: every
// send, collective phase, adaptation decision, and training step from
// then on lands on the hub as a span or metric. Call it once, from the
// driving goroutine, before Run; it is idempotent. With no hub attached
// the instrumentation costs one nil check per hook and zero allocations:
//
//	hub := world.EnableObservability()
//	sparcml.Run(world, func(c *sparcml.Comm) []float64 { ... })
//	hub.WriteChrome(f) // open f in https://ui.perfetto.dev
func (w *World) EnableObservability() *Observability {
	return w.inner.EnableObservability()
}

// Adapt returns rank's adaptation controller. Like Scratch, each
// controller belongs to exactly one rank and persists across Run calls
// (which is what lets its sketch and calibration warm up over a training
// run). Panics unless EnableAdaptation was called first.
func (w *World) Adapt(rank int) *Adaptive {
	if w.adapts == nil {
		panic("sparcml: call World.EnableAdaptation before Adapt")
	}
	return w.adapts[rank]
}

// Hierarchy returns the machine the world's ranks are organized by;
// Depth() == 1 means a flat network. Treat it as read-only.
func (w *World) Hierarchy() Hierarchy { return *w.inner.Hierarchy() }

// SimTime returns the maximum completion time across ranks for the most
// recent Run: simulated α–β seconds on the default backend, measured
// wall-clock seconds on the real backends (WallClock reports which).
func (w *World) SimTime() float64 { return w.inner.MaxTime() }

// SimTimes returns each rank's completion time for the most recent Run —
// simulated or measured wall-clock seconds, as with SimTime. On a
// multi-process TCP world only this process's ranks have entries; the
// rest are zero.
func (w *World) SimTimes() []float64 { return w.inner.Times() }

// Comm is one rank's communicator handle.
type Comm struct {
	proc *comm.Proc
}

// Run executes f concurrently on every rank of the world and returns the
// per-rank results in rank order. It may be called repeatedly; each call
// starts fresh virtual clocks, so SimTime after a call reports that call's
// simulated duration.
func Run[R any](w *World, f func(*Comm) R) []R {
	return comm.Run(w.inner, func(p *comm.Proc) R {
		return f(&Comm{proc: p})
	})
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.proc.Rank() }

// Size returns the world size.
func (c *Comm) Size() int { return c.proc.Size() }

// Now returns this rank's current virtual time in seconds.
func (c *Comm) Now() float64 { return c.proc.Now() }

// Compute advances this rank's virtual clock by a modeled local
// computation of the given duration.
func (c *Comm) Compute(seconds float64) { c.proc.Compute(seconds) }

// Allreduce performs a sparse allreduce of v across all ranks and returns
// the reduction (identical on every rank). v is not modified.
func (c *Comm) Allreduce(v *Vector, opts Options) *Vector {
	return core.Allreduce(c.proc, v, opts)
}

// AllreduceAdaptive is Allreduce with the runtime adaptation layer in
// front: a, this rank's controller (World.Adapt), sketches the input,
// agrees the measured scenario with the other ranks, and picks algorithm
// and hierarchy depth through the cost model with hysteresis. Every rank
// must route the same calls through its own controller in the same order.
// Results are those of the chosen concrete algorithm — adaptation never
// changes reduction semantics.
func (c *Comm) AllreduceAdaptive(v *Vector, a *Adaptive, opts Options) *Vector {
	return a.Allreduce(c.proc, v, opts)
}

// IAllreduce starts a nonblocking allreduce; the input must not be
// modified until Wait. Ranks must issue nonblocking operations in
// identical program order.
func (c *Comm) IAllreduce(v *Vector, opts Options) *Request {
	return &Request{inner: core.IAllreduce(c.proc, v, opts), c: c}
}

// BucketScheduler coalesces per-layer gradient contributions into
// cost-model-sized fused buckets and runs them as overlapped nonblocking
// collectives in backprop order; see core.BucketScheduler.
type BucketScheduler = core.BucketScheduler

// NewBucketScheduler partitions the model's layer spans (span i = [lo,hi)
// coordinate range of layer i) into buckets of at least coords
// coordinates each, walked in backprop order so bucket 0 is ready first.
func NewBucketScheduler(spans [][2]int, coords int) *BucketScheduler {
	return core.NewBucketScheduler(spans, coords)
}

// BucketCoords returns the scenario's model-derived bucket size in
// coordinates: large enough that the per-collective latency floor stays
// a small fraction of the bucket's dense-equivalent transfer time.
func BucketCoords(s CostScenario) int { return core.BucketCoords(s) }

// BucketIssue fuses every bucket of the scheduler and starts its
// nonblocking allreduce, in issue (backprop) order. opts follows
// BucketScheduler.Issue: nil, one replicated element, or one per bucket.
// Buckets in flight never share a pool: a Scratch is used only when every
// bucket's Options names its own (bucket b a child of the rank's pool,
// World.Scratch(rank).Child(b), not that pool itself, which the caller
// keeps using meanwhile), and then it belongs to that bucket until
// BucketDrain. The contributions are only read and may be released as
// soon as BucketIssue returns.
func (c *Comm) BucketIssue(s *BucketScheduler, contribs []*Vector, opts []Options) []*Request {
	inner := s.Issue(c.proc, contribs, opts)
	out := make([]*Request, len(inner))
	for i, r := range inner {
		out[i] = &Request{inner: r, c: c}
	}
	return out
}

// BucketDrain waits on BucketIssue's requests in issue order and returns
// the summed bucket vectors. A bucket issued on its own pool hands the
// pool back with its sum, built in it: release the sum there once it is
// applied and the next step reuses the storage.
func (c *Comm) BucketDrain(reqs []*Request) []*Vector {
	out := make([]*Vector, len(reqs))
	for i, r := range reqs {
		out[i] = r.Wait()
	}
	return out
}

// AllgatherSparse gathers disjoint sparse contributions from all ranks
// into their union (identical on every rank).
func (c *Comm) AllgatherSparse(mine *Vector) *Vector {
	return core.SparseAllgather(c.proc, mine)
}

// IAllgatherSparse is the nonblocking variant of AllgatherSparse.
func (c *Comm) IAllgatherSparse(mine *Vector) *Request {
	return &Request{inner: core.ISparseAllgather(c.proc, mine), c: c}
}

// AllreduceDense reduces a raw dense slice (recursive doubling), returning
// the sum on every rank — a convenience for scalars and small metadata.
func (c *Comm) AllreduceDense(x []float64) []float64 {
	return core.AllreduceDense(c.proc, x, stream.OpSum)
}

// Bcast broadcasts root's slice to every rank.
func (c *Comm) Bcast(x []float64, root int) []float64 {
	return core.Bcast(c.proc, x, root, stream.DefaultValueBytes)
}

// Barrier synchronizes all ranks.
func (c *Comm) Barrier() { c.proc.Barrier() }

// Reduce combines every rank's vector at the root (binomial tree);
// non-root ranks return nil.
func (c *Comm) Reduce(v *Vector, root int) *Vector {
	return core.Reduce(c.proc, v, root)
}

// ReduceScatter partitions the dimension space uniformly across ranks and
// returns this rank's fully reduced partition.
func (c *Comm) ReduceScatter(v *Vector) *Vector {
	return core.ReduceScatterSparse(c.proc, v)
}

// Gather collects disjoint sparse contributions at the root; non-root
// ranks return nil.
func (c *Comm) Gather(mine *Vector, root int) *Vector {
	return core.GatherSparse(c.proc, mine, root)
}

// Scatter splits the root's vector by the uniform dimension partition and
// returns each rank's slice in canonical representation (dense when the
// partition holds more than δ entries). Non-root ranks pass v == nil and
// must supply n and op.
func (c *Comm) Scatter(v *Vector, root, n int, op Op) *Vector {
	return core.ScatterRanges(c.proc, v, root, n, op)
}

// Alltoall sends pieces[r] to rank r and returns the pieces received,
// indexed by source. A sent piece belongs to its receiver — on the
// simulator and goroutine backends it is the same object — so do not
// mutate or recycle pieces after the call.
func (c *Comm) Alltoall(pieces []*Vector) []*Vector {
	return core.AlltoallSparse(c.proc, pieces)
}

// DrydenAllreduce runs the Dryden et al. (2016) lossy sparse allreduce
// baseline: the result keeps at most k entries; the locally postponed
// remainder is returned for the caller's error-feedback residual.
func (c *Comm) DrydenAllreduce(v *Vector, k int) (result, postponed *Vector) {
	return core.DrydenAllreduce(c.proc, v, k)
}

// SimulationKey is the determinism key of one workload-generation run:
// every random stream (scenario draws, cluster jitter, random placement)
// derives from (key, stream name), so equal keys replay byte-identical
// runs. See scenario.SimulationKey.
type SimulationKey = scenario.SimulationKey

// NewSimulationKey builds a SimulationKey from a user-facing seed.
func NewSimulationKey(seed int64) SimulationKey { return scenario.NewKey(seed) }

// WorkloadScenario is a declarative workload: dimension, world size, call
// count, and the density/support/drift schedules the deterministic
// generator realizes. See scenario.Scenario for the schedule fields.
type WorkloadScenario = scenario.Scenario

// ScenarioByName looks up a named workload in the scenario library.
func ScenarioByName(name string) (WorkloadScenario, error) { return scenario.ByName(name) }

// ScenarioNames lists every library workload in sorted order.
func ScenarioNames() []string { return scenario.Names() }

// Cluster is the multi-tenant cluster simulator: one shared machine
// hierarchy hosting concurrent jobs gang-scheduled by a Placement policy
// and advanced on a shared virtual clock, with cross-job contention
// served dynamically from in-flight flow counters. See internal/cluster.
type Cluster = cluster.Cluster

// ClusterConfig configures a Cluster: the machine, its slot count, the
// determinism key, and the straggler/arrival jitter knobs.
type ClusterConfig = cluster.Config

// ClusterJob declares one workload to admit to a Cluster.
type ClusterJob = cluster.Job

// ClusterJobStats is one cluster job's outcome: arrival/admission/finish
// times, simulated collective seconds, the admission-time cost prediction,
// and the pinned algorithm.
type ClusterJobStats = cluster.JobStats

// Placement gang-schedules a cluster job's ranks onto machine slots.
type Placement = cluster.Placement

// The placement policies: lowest free slots (Packed), uniform stride
// across the machine (Spread), uniform random slots from the job's
// isolated stream (RandomPlacement), and cost-model-driven candidate
// search (CostAware).
type (
	// Packed places jobs on the lowest free slots.
	Packed = cluster.Packed
	// Spread places jobs at a uniform stride across the free slots.
	Spread = cluster.Spread
	// RandomPlacement places jobs on random free slots.
	RandomPlacement = cluster.Random
	// CostAware prices candidate placements with the Auto cost model and
	// takes the cheapest.
	CostAware = cluster.CostAware
)

// NewCluster creates a cluster over cfg.Slots slots of cfg.Machine,
// placing jobs with the given policy:
//
//	c := sparcml.NewCluster(sparcml.ClusterConfig{
//	    Machine: sparcml.DragonflyLike(4, 2), Slots: 64,
//	    Key: sparcml.NewSimulationKey(1),
//	}, sparcml.CostAware{})
//	sc, _ := sparcml.ScenarioByName("clustered")
//	c.Add(sparcml.ClusterJob{Name: "trainer-0", Scenario: sc})
//	stats := c.Run()
func NewCluster(cfg ClusterConfig, place Placement) *Cluster { return cluster.New(cfg, place) }

// Request is a handle on a nonblocking collective.
type Request struct {
	inner *core.Request
	c     *Comm
}

// Wait blocks until the operation completes, folds its virtual time into
// the caller (modeling computation/communication overlap), and returns
// the result.
func (r *Request) Wait() *Vector { return r.inner.Wait(r.c.proc) }

// Test reports whether the operation has completed, without blocking.
func (r *Request) Test() bool { return r.inner.Test() }
