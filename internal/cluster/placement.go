package cluster

import (
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/simnet"
)

// PlaceRequest is the placement view of one job awaiting admission: the
// machine, the free slots, the job's size and cost shape, and the
// cluster's live flow counters. Policies return a strictly ascending
// subset of Free of size P, or ok=false when Free cannot host the job.
type PlaceRequest struct {
	// Machine is the shared machine hierarchy.
	Machine simnet.Hierarchy
	// Free lists the currently free machine slots, ascending.
	Free []int
	// P is the job's world size.
	P int
	// Cost is the job's placement-independent cost shape (N, P, K,
	// profile); Predict binds it to a candidate slot set.
	Cost core.CostScenario
	// Flows returns the in-flight flow count at the level group containing
	// a slot — the same counters the ActivitySource serves, so cost-aware
	// policies price candidates against live contention.
	Flows func(slot, level int) int
	// RNG is the job's isolated placement stream (used by Random; drawing
	// from it never perturbs any other stream).
	RNG *rand.Rand
}

// Predict prices the job on a candidate slot set (ascending): the cost
// scenario is bound to the candidate's induced hierarchy (flat when the
// placement is irregular) and to the external flows its groups observe
// now, then the cheapest Auto candidate's predicted step time is
// returned — exactly the decision the cluster will pin at admission.
func (r PlaceRequest) Predict(slots []int) float64 {
	sc := r.Cost
	if ih, ok := r.Machine.Induced(slots); ok {
		sc.Hier = &ih
	}
	if r.Flows != nil {
		ext := make([]int, r.Machine.Depth())
		for l := range ext {
			for _, s := range slots {
				if f := r.Flows(s, l); f > ext[l] {
					ext[l] = f
				}
			}
		}
		sc.External = ext
	}
	alg, levels, chunks := core.ChooseAutoLevels(sc)
	sc.Levels, sc.Chunks = levels, chunks
	return core.PredictSeconds(alg, sc)
}

// Placement gang-schedules a job's ranks onto machine slots.
type Placement interface {
	// Name identifies the policy in documents and error messages.
	Name() string
	// Place returns the strictly ascending slot set for the job, or
	// ok=false when the request's free slots cannot host it.
	Place(r PlaceRequest) (slots []int, ok bool)
}

// Packed places the job on the lowest free slots — the bin-packing
// default of real schedulers, maximizing locality (and intra-group
// contention) by filling machines front to back.
type Packed struct{}

// Name identifies the policy.
func (Packed) Name() string { return "packed" }

// Place implements Placement.
func (Packed) Place(r PlaceRequest) ([]int, bool) {
	if len(r.Free) < r.P {
		return nil, false
	}
	return append([]int(nil), r.Free[:r.P:r.P]...), true
}

// Spread places the job at a uniform stride across the free slots —
// load-balancing across the machine at the price of crossing outer
// (slower, capped) levels on every message.
type Spread struct{}

// Name identifies the policy.
func (Spread) Name() string { return "spread" }

// Place implements Placement.
func (Spread) Place(r PlaceRequest) ([]int, bool) {
	if len(r.Free) < r.P {
		return nil, false
	}
	stride := len(r.Free) / r.P
	out := make([]int, r.P)
	for i := range out {
		out[i] = r.Free[i*stride]
	}
	return out, true
}

// Random places the job on a uniform random subset of the free slots,
// drawn from the job's isolated placement stream — the contention-blind
// baseline (and, typically, an irregular placement that forces the job
// flat).
type Random struct{}

// Name identifies the policy.
func (Random) Name() string { return "random" }

// Place implements Placement.
func (Random) Place(r PlaceRequest) ([]int, bool) {
	if len(r.Free) < r.P {
		return nil, false
	}
	perm := r.RNG.Perm(len(r.Free))[:r.P]
	sort.Ints(perm)
	out := make([]int, r.P)
	for i, j := range perm {
		out[i] = r.Free[j]
	}
	return out, true
}

// CostAware prices a candidate set of placements with the same cost model
// the cluster pins decisions by — each candidate bound to its induced
// hierarchy and the external flows its groups observe — and takes the
// cheapest. The candidates always include Packed's and Spread's picks, so
// CostAware never predicts worse than the better of the two, plus every
// node-aligned packed window of the free slots (the knob that lets it
// dodge a loaded machine region a plain Packed would pile onto). Ties
// keep the earliest candidate, so the choice is deterministic.
type CostAware struct{}

// Name identifies the policy.
func (CostAware) Name() string { return "cost-aware" }

// Place implements Placement.
func (CostAware) Place(r PlaceRequest) ([]int, bool) {
	if len(r.Free) < r.P {
		return nil, false
	}
	var candidates [][]int
	if s, ok := (Packed{}).Place(r); ok {
		candidates = append(candidates, s)
	}
	if s, ok := (Spread{}).Place(r); ok {
		candidates = append(candidates, s)
	}
	// Node-aligned packed windows: slide the packed window across the free
	// list in steps of one machine node, skipping duplicates of the plain
	// packed pick.
	node := r.Machine.Span(0)
	if node < 1 {
		node = 1
	}
	for off := node; off <= len(r.Free)-r.P; off += node { // a flat machine's node is math.MaxInt wide
		candidates = append(candidates, r.Free[off:off+r.P:off+r.P])
	}
	best, bestT := candidates[0], r.Predict(candidates[0])
	for _, cand := range candidates[1:] {
		if t := r.Predict(cand); t < bestT {
			best, bestT = cand, t
		}
	}
	return append([]int(nil), best...), true
}
