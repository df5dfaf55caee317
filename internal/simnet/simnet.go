// Package simnet provides the latency–bandwidth (α–β) cost model the paper
// analyzes its collectives in (§5.2: "the cost of sending a message of size
// L is T(L) = α + βL"), extended with a per-element compute term γ for
// local reductions and a per-message software overhead term for modeling
// Spark-like communication layers.
//
// Each rank owns a virtual Clock. A message stamped with the sender's local
// time t arrives at the receiver at t + α + β·bytes (+ software overhead);
// the receiver's clock advances to the maximum of its own time and the
// arrival time. This is a LogP-style model with full bisection bandwidth —
// the same assumptions as the paper's analysis ("bidirectional, direct
// point-to-point communication between the nodes") — so the analytic bounds
// of §5.3 hold exactly, and algorithm crossovers appear where the paper
// predicts them.
package simnet

import "fmt"

// Profile describes a network (and the software stack driving it) in the
// α–β model.
type Profile struct {
	// Name identifies the profile in reports.
	Name string
	// Alpha is the fixed latency per message transmission, in seconds.
	Alpha float64
	// BetaPerByte is the transfer time per byte, in seconds (1/bandwidth).
	BetaPerByte float64
	// GammaPerElem is the local compute time per element combined during a
	// reduction, in seconds. The paper notes δ should shrink in practice to
	// reflect that "summing sparse vectors is computationally more
	// expensive"; γ (with SparseFactor below) makes that cost explicit.
	GammaPerElem float64
	// SparseComputeFactor multiplies GammaPerElem for sparse merges
	// (index comparisons and branches per pair vs a vectorized dense add).
	SparseComputeFactor float64
	// SoftwareOverhead is an additional per-message CPU cost (serialization,
	// scheduling) charged to both sender and receiver. Near zero for MPI;
	// large for Spark-like layers.
	SoftwareOverhead float64
	// SoftwarePerByte is an additional per-byte serialization cost charged
	// like bandwidth. Near zero for MPI (zero-copy); significant for
	// object-serializing layers.
	SoftwarePerByte float64
}

// Built-in profiles. Alpha/bandwidth values follow published measurements
// of the paper's systems: Cray Aries (Piz Daint), InfiniBand FDR and GigE
// (Greina), plus a Spark-like software stack for the §8.2 comparison.
var (
	// Aries models Piz Daint's Cray Aries interconnect with a Dragonfly
	// topology: ~1.3µs latency, ~10 GB/s effective per-node bandwidth.
	Aries = Profile{
		Name: "aries", Alpha: 1.3e-6, BetaPerByte: 1e-10,
		GammaPerElem: 2.5e-10, SparseComputeFactor: 4,
	}
	// InfiniBandFDR models Greina's FDR fabric: ~1.7µs, ~6.8 GB/s.
	InfiniBandFDR = Profile{
		Name: "ib-fdr", Alpha: 1.7e-6, BetaPerByte: 1.47e-10,
		GammaPerElem: 2.5e-10, SparseComputeFactor: 4,
	}
	// GigE models Gigabit Ethernet: ~50µs kernel/TCP latency, ~117 MB/s.
	GigE = Profile{
		Name: "gige", Alpha: 5e-5, BetaPerByte: 8.5e-9,
		GammaPerElem: 2.5e-10, SparseComputeFactor: 4,
	}
	// SparkLike models a JVM dataflow communication layer on GigE: high
	// per-message scheduling cost and per-byte object serialization, no
	// sparsity support. Calibrated so dense MPI beats it by roughly the
	// 12× comm factor the paper measures on GigE (§8.2).
	SparkLike = Profile{
		Name: "spark", Alpha: 5e-5, BetaPerByte: 8.5e-9,
		GammaPerElem: 2.5e-10, SparseComputeFactor: 4,
		SoftwareOverhead: 2e-3, SoftwarePerByte: 9e-8,
	}
	// NVLinkLike models an intra-node GPU interconnect in the class of the
	// paper's multi-GPU Greina nodes: sub-microsecond launch latency and
	// ~25 GB/s effective per-link bandwidth — roughly 2× lower α and 4×
	// higher bandwidth than Aries. Compute constants match the other
	// profiles (the reduction runs on the same device either way).
	NVLinkLike = Profile{
		Name: "nvlink", Alpha: 6e-7, BetaPerByte: 4e-11,
		GammaPerElem: 2.5e-10, SparseComputeFactor: 4,
	}
)

// ProfileByName returns a built-in profile.
func ProfileByName(name string) (Profile, error) {
	for _, p := range []Profile{Aries, InfiniBandFDR, GigE, SparkLike, NVLinkLike, AriesGlobal} {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("simnet: unknown profile %q", name)
}

// TransferTime returns the modeled time in seconds to move one message of
// the given payload size in bytes: α + β·bytes plus software costs.
func (p Profile) TransferTime(bytes int) float64 {
	return p.ContendedTransferTime(bytes, 1)
}

// ContendedTransferTime is TransferTime with the bandwidth term (β and
// SoftwarePerByte) scaled by a contention factor (see
// Hierarchy.SerialFactor): α + overhead + (β+βsw)·bytes·factor, in seconds.
// The latency terms are unscaled — contention serializes bytes, it does
// not add message setups. factor must be >= 1.
func (p Profile) ContendedTransferTime(bytes int, factor float64) float64 {
	if factor < 1 {
		panic("simnet: contention factor must be >= 1")
	}
	return p.Alpha + p.SoftwareOverhead +
		(p.BetaPerByte+p.SoftwarePerByte)*float64(bytes)*factor
}

// DenseReduceTime returns the modeled compute time to combine n dense
// elements.
func (p Profile) DenseReduceTime(n int) float64 {
	return p.GammaPerElem * float64(n)
}

// SparseMergeTime returns the modeled compute time to merge sparse streams
// totalling n index–value pairs.
func (p Profile) SparseMergeTime(n int) float64 {
	return p.GammaPerElem * p.SparseComputeFactor * float64(n)
}

// Clock is a rank-local virtual clock. Clocks are confined to their rank's
// goroutine; cross-rank time only flows through message timestamps.
type Clock struct {
	now float64
}

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 { return c.now }

// Advance moves the clock forward by dt seconds. Negative dt panics.
func (c *Clock) Advance(dt float64) {
	if dt < 0 {
		panic("simnet: negative time advance")
	}
	c.now += dt
}

// Observe moves the clock forward to time t if t is later (message
// arrival).
func (c *Clock) Observe(t float64) {
	if t > c.now {
		c.now = t
	}
}

// Reset sets the clock back to zero (between experiment repetitions).
func (c *Clock) Reset() { c.now = 0 }

// Device models a compute device for the DNN experiments: step compute
// time = FLOPs / FlopsPerSec.
type Device struct {
	Name        string
	FlopsPerSec float64
}

// Published peak-ish effective training throughput for the devices in the
// paper's clusters (conservative effective rates, not datasheet peaks).
var (
	GPUP100 = Device{Name: "P100", FlopsPerSec: 8e12}
	GPUV100 = Device{Name: "V100", FlopsPerSec: 1.2e13}
	GPUK80  = Device{Name: "K80", FlopsPerSec: 3e12}
	CPUXeon = Device{Name: "Xeon", FlopsPerSec: 4e11}
)

// ComputeTime returns the modeled wall time to execute the given FLOPs.
func (d Device) ComputeTime(flops float64) float64 {
	if flops < 0 {
		panic("simnet: negative flops")
	}
	return flops / d.FlopsPerSec
}
