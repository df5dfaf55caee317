// Package cluster is the multi-tenant cluster simulator: one shared
// machine hierarchy hosting N concurrent training jobs, each a
// scenario-library workload gang-scheduled onto machine slots by a
// pluggable Placement policy and advanced step by step on a shared
// virtual clock by a deterministic discrete-event loop.
//
// Contention across jobs is dynamic, not proxied: the cluster maintains
// per-level, per-group counters of the flows actually in flight at each
// event and serves them to every job's world through the comm
// ActivitySource seam, so a message's egress (and, on ingress-capped
// hierarchies, incast) factors reflect who else is really communicating —
// the multi-tenant replacement for the static communicator-size proxy.
// A step's pricing freezes the in-flight set at issue time: counters are
// mutated only between comm.Run calls on the single event-loop goroutine,
// so concurrent rank goroutines read a stable snapshot.
//
// Determinism follows the scenario package's stream-isolation contract:
// workloads, arrival jitter, straggler jitter and the Random policy's
// draws all come from streams derived from (SimulationKey, name), with
// every job's streams namespaced by its unique name. Equal configurations
// replay byte-identical schedules — per-job sim times included.
package cluster

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// Config configures a Cluster.
type Config struct {
	// Machine is the shared machine hierarchy jobs are placed onto.
	Machine simnet.Hierarchy
	// Slots is the number of machine slots (ranks the machine hosts).
	Slots int
	// Key is the determinism key every random stream derives from:
	// workloads, jitter, arrival noise, and the Random placement policy.
	Key scenario.SimulationKey
	// Jitter is the straggler knob: each job step's simulated time is
	// stretched by a factor uniform in [1, 1+Jitter], drawn from the job's
	// isolated jitter stream. Zero consumes no draws at all, so enabling
	// jitter on one cluster never perturbs another's streams.
	Jitter float64
	// ArrivalJitter delays each job's start by a uniform [0, ArrivalJitter)
	// seconds drawn from the job's arrival stream. Zero consumes no draws.
	ArrivalJitter float64
	// Obs, when non-nil, receives the cluster's job lifecycle on the
	// shared virtual clock: each job gets a named track carrying
	// job:arrive / job:queued / job:admit / job:step / job:finish events.
	// The event loop is single-threaded, so the recorded order is
	// deterministic. Nil disables observability at zero cost.
	Obs *obs.Obs
}

// Job declares one workload to admit: a scenario-library workload with
// its own world size (Scenario.P), collective schedule (Scenario.Calls
// steps) and start offset.
type Job struct {
	// Name uniquely identifies the job and namespaces its random streams:
	// two jobs running the same scenario draw unrelated workloads.
	Name string
	// Scenario is the workload declaration; Scenario.P is the job's world
	// size and Scenario.Calls its step count.
	Scenario scenario.Scenario
	// Start is the earliest admission time in virtual seconds.
	Start float64
}

// JobStats is one job's outcome.
type JobStats struct {
	// Name, P and Steps echo the job declaration.
	Name  string `json:"name"`
	P     int    `json:"p"`
	Steps int    `json:"steps"`
	// Arrived is when the job entered the admission queue (start offset
	// plus arrival jitter) and Admitted when it was granted slots; the
	// difference is its queueing delay. Finished is when its last step
	// completed. All in virtual seconds.
	Arrived  float64 `json:"arrived"`
	Admitted float64 `json:"admitted"`
	Finished float64 `json:"finished"`
	// SimSeconds is the job's total simulated collective time across its
	// steps, straggler jitter included — the per-job sim time the
	// determinism contract reproduces exactly.
	SimSeconds float64 `json:"sim_seconds"`
	// PredictedStep is the cost model's per-step estimate at admission,
	// under the external flows observed then; PredictedJob is
	// PredictedStep x Steps, the placement quality headline.
	PredictedStep float64 `json:"predicted_step_seconds"`
	PredictedJob  float64 `json:"predicted_job_seconds"`
	// Algorithm is the final pinned collective choice (with depth when
	// hierarchical) and Switches how often the per-step re-decision under
	// observed contention changed it mid-run.
	Algorithm string `json:"algorithm"`
	Switches  int    `json:"switches"`
	// Slots is the machine slot set the job ran on.
	Slots []int `json:"slots"`
}

// jobState tracks one admitted or queued job through the event loop.
type jobState struct {
	decl    Job
	arrived float64
	stats   JobStats
	sched   [][]*stream.Vector
	world   *comm.World
	slots   []int
	step    int
	alg     core.Algorithm
	levels  int
	chunks  int
	decided bool
	done    float64 // pending step-completion time
	running bool
}

// Cluster wraps one shared machine and admits jobs in declared (FIFO)
// order: the queue head waits for its start time and for enough free
// slots, and later jobs never backfill past it. Create with New, declare
// jobs with Add, then Run the event loop to completion.
type Cluster struct {
	cfg   Config
	place Placement
	prng  *scenario.PartitionedRNG
	jobs  []*jobState
	queue []*jobState // arrived, not yet admitted, FIFO
	free  []bool      // per-slot occupancy
	flows [][]int     // [level][group] in-flight flow counters
	now   float64
}

// New creates a cluster over cfg.Slots slots of cfg.Machine, placing jobs
// with the given policy. Panics on an invalid machine, a non-positive
// slot count, or a nil policy.
func New(cfg Config, place Placement) *Cluster {
	if err := cfg.Machine.Validate(); err != nil {
		panic(err.Error())
	}
	if cfg.Slots <= 0 {
		panic("cluster: need a positive slot count")
	}
	if place == nil {
		panic("cluster: need a placement policy")
	}
	c := &Cluster{cfg: cfg, place: place, prng: scenario.NewPartitionedRNG(cfg.Key)}
	c.free = make([]bool, cfg.Slots)
	for i := range c.free {
		c.free[i] = true
	}
	c.flows = make([][]int, cfg.Machine.Depth())
	for l := range c.flows {
		groups := 1
		if span := cfg.Machine.Span(l); span != math.MaxInt {
			groups = (cfg.Slots + span - 1) / span
		}
		c.flows[l] = make([]int, groups)
	}
	return c
}

// Add declares a job. Jobs are admitted in Add order (FIFO, no backfill).
// Panics on a duplicate or empty name, or a job larger than the machine.
func (c *Cluster) Add(j Job) {
	if j.Name == "" {
		panic("cluster: job needs a name")
	}
	for _, other := range c.jobs {
		if other.decl.Name == j.Name {
			panic(fmt.Sprintf("cluster: duplicate job name %q", j.Name))
		}
	}
	if j.Scenario.P > c.cfg.Slots {
		panic(fmt.Sprintf("cluster: job %s needs %d slots, machine has %d", j.Name, j.Scenario.P, c.cfg.Slots))
	}
	js := &jobState{decl: j, arrived: j.Start}
	if c.cfg.ArrivalJitter > 0 {
		rng := c.prng.Named(j.Name + "/" + scenario.SubsystemArrival)
		js.arrived += rng.Float64() * c.cfg.ArrivalJitter
	}
	js.stats = JobStats{Name: j.Name, P: j.Scenario.P, Steps: j.Scenario.Calls, Arrived: js.arrived}
	c.jobs = append(c.jobs, js)
	if tr := c.cfg.Obs.Named(j.Name); tr != nil {
		tr.Instant("job:arrive", js.arrived,
			obs.Attr{Key: "p", Value: strconv.Itoa(j.Scenario.P)},
			obs.Attr{Key: "steps", Value: strconv.Itoa(j.Scenario.Calls)})
	}
}

// Run executes the discrete-event loop until every declared job has
// finished and returns the per-job stats in Add order. The loop advances
// a shared virtual clock event by event — job arrivals, step completions —
// admitting queued jobs whenever slots free up and re-pricing nothing
// retroactively: a step's cost is frozen at issue time against the flows
// then in flight.
func (c *Cluster) Run() []JobStats {
	// Arrivals in time order (ties: Add order), as the initial event set.
	arrivals := append([]*jobState(nil), c.jobs...)
	sort.SliceStable(arrivals, func(a, b int) bool { return arrivals[a].arrived < arrivals[b].arrived })
	next := 0
	pending := len(c.jobs)
	for pending > 0 {
		// Earliest event: the next arrival or the earliest running step
		// completion, arrivals first on ties so a freed machine admits in
		// arrival order.
		var js *jobState
		t := math.Inf(1)
		arrival := false
		for _, r := range c.jobs {
			if r.running && r.done < t {
				js, t = r, r.done
			}
		}
		if next < len(arrivals) && arrivals[next].arrived <= t {
			js, t, arrival = arrivals[next], arrivals[next].arrived, true
		}
		if js == nil {
			panic("cluster: no runnable event (placement rejected an idle machine?)")
		}
		c.now = t
		if arrival {
			next++
			c.queue = append(c.queue, js)
			c.tryAdmit()
			continue
		}
		// Step completed: retire its flows, then advance or finish.
		c.adjustFlows(js.slots, -1)
		js.running = false
		js.step++
		if js.step < len(js.sched) {
			c.startStep(js)
			continue
		}
		js.stats.Finished = c.now
		if tr := c.cfg.Obs.Named(js.decl.Name); tr != nil {
			tr.Instant("job:finish", c.now)
		}
		for _, s := range js.slots {
			c.free[s] = true
		}
		pending--
		c.tryAdmit()
	}
	out := make([]JobStats, len(c.jobs))
	for i, r := range c.jobs {
		out[i] = r.stats
	}
	return out
}

// tryAdmit admits queued jobs FIFO until the head cannot be placed.
func (c *Cluster) tryAdmit() {
	for len(c.queue) > 0 {
		js := c.queue[0]
		slots, ok := c.place.Place(c.placeRequest(js))
		if !ok {
			if c.idle() {
				panic(fmt.Sprintf("cluster: policy %s cannot place job %s on an idle machine", c.place.Name(), js.decl.Name))
			}
			return
		}
		c.queue = c.queue[1:]
		c.admit(js, slots)
	}
}

// idle reports whether no job currently holds slots.
func (c *Cluster) idle() bool {
	for _, f := range c.free {
		if !f {
			return false
		}
	}
	return true
}

// freeSlots returns the ascending free slot list.
func (c *Cluster) freeSlots() []int {
	out := make([]int, 0, len(c.free))
	for s, f := range c.free {
		if f {
			out = append(out, s)
		}
	}
	return out
}

// placeRequest assembles the placement view of one queued job.
func (c *Cluster) placeRequest(js *jobState) PlaceRequest {
	return PlaceRequest{
		Machine: c.cfg.Machine,
		Free:    c.freeSlots(),
		P:       js.decl.Scenario.P,
		Cost:    c.jobCost(js),
		Flows:   c.flowsAt,
		RNG:     c.prng.Named(js.decl.Name + "/placement"),
	}
}

// jobCost builds the placement-independent part of a job's cost scenario:
// the problem shape with K estimated from the scenario's scheduled
// density at its first call (the same closed form the generator scales
// support draws by).
func (c *Cluster) jobCost(js *jobState) core.CostScenario {
	sc := js.decl.Scenario
	d := sc.Density.At(0, sc.Calls)
	k := int(math.Round(d * float64(sc.N)))
	if k < 1 {
		k = 1
	}
	if k > sc.N {
		k = sc.N
	}
	top := c.cfg.Machine.Levels[c.cfg.Machine.Depth()-1].Profile
	return core.CostScenario{N: sc.N, P: sc.P, K: k, Profile: top, Chunks: core.AutoChunks}
}

// flowsAt returns the in-flight flow count at the level-`level` group
// containing machine slot `slot` — the cluster's ActivitySource view.
func (c *Cluster) flowsAt(slot, level int) int {
	return c.flows[level][c.groupOf(slot, level)]
}

// groupOf maps a slot to its level-l group index on the machine.
func (c *Cluster) groupOf(slot, level int) int {
	return c.cfg.Machine.GroupOf(slot, level)
}

// EgressFlows implements comm.ActivitySource: how many in-flight flows
// drive the egress of the level group containing the slot, the sender's
// own included (its step's flows are registered before its world runs).
func (c *Cluster) EgressFlows(slot, level int) int { return c.flowsAt(slot, level) }

// IngressFlows implements comm.ActivitySource: the same counters read
// from the receiver's side — flows crossing a group boundary load its
// ingress as they load the egress of the groups they left.
func (c *Cluster) IngressFlows(slot, level int) int { return c.flowsAt(slot, level) }

// adjustFlows registers (delta +1) or retires (delta -1) one job step's
// flow contributions: at every level where the job's slots span more than
// one group — so its collective traffic actually crosses that boundary —
// each occupied group gains the job's resident slot count, mirroring the
// static proxy's "every communicator rank in the group drives one flow
// out" accounting, now summed over tenants actually in flight.
func (c *Cluster) adjustFlows(slots []int, delta int) {
	for l := range c.flows {
		lo := c.groupOf(slots[0], l)
		if c.groupOf(slots[len(slots)-1], l) == lo {
			continue // the whole job shares this group: nothing crosses
		}
		g, cnt := lo, 0
		for _, s := range slots {
			if sg := c.groupOf(s, l); sg != g {
				c.flows[l][g] += delta * cnt
				g, cnt = sg, 0
			}
			cnt++
		}
		c.flows[l][g] += delta * cnt
	}
}

// externalAt returns, per machine level, the worst external flow count
// any of the job's groups observes right now — the External vector its
// Auto decisions price. Must be called before the job's own step flows
// are registered.
func (c *Cluster) externalAt(slots []int) []int {
	ext := make([]int, len(c.flows))
	for l := range c.flows {
		for _, s := range slots {
			if f := c.flowsAt(s, l); f > ext[l] {
				ext[l] = f
			}
		}
	}
	return ext
}

// admit grants the job its slots, builds its placed world, generates its
// schedule from its namespaced streams, prices the admission-time
// prediction, and issues its first step.
func (c *Cluster) admit(js *jobState, slots []int) {
	js.slots = slots
	js.stats.Admitted = c.now
	js.stats.Slots = append([]int(nil), slots...)
	for _, s := range slots {
		if !c.free[s] {
			panic(fmt.Sprintf("cluster: policy %s placed job %s on busy slot %d", c.place.Name(), js.decl.Name, s))
		}
		c.free[s] = false
	}
	sc := js.decl.Scenario
	sc.Name = js.decl.Name + "/" + sc.Name // isolate this job's streams
	js.sched = sc.Generator(c.cfg.Key).All()
	js.world = comm.NewWorldPlaced(js.decl.Scenario.P, c.cfg.Machine, slots)
	js.world.SetActivitySource(c)

	cost := c.jobCost(js)
	c.bindPlacement(&cost, slots)
	cost.External = c.externalAt(slots)
	alg, levels, chunks := core.ChooseAutoLevels(cost)
	cost.Levels, cost.Chunks = levels, chunks
	js.stats.PredictedStep = core.PredictSeconds(alg, cost)
	js.stats.PredictedJob = js.stats.PredictedStep * float64(len(js.sched))
	if tr := c.cfg.Obs.Named(js.decl.Name); tr != nil {
		tr.Event("job:queued", js.arrived, c.now)
		tr.Instant("job:admit", c.now,
			obs.Attr{Key: "slots", Value: fmt.Sprint(slots)},
			obs.Attr{Key: "predicted_step_s",
				Value: strconv.FormatFloat(js.stats.PredictedStep, 'g', -1, 64)})
	}
	c.startStep(js)
}

// bindPlacement points the cost scenario at the hierarchy the placed
// world actually reports: the induced job-structure hierarchy when the
// placement is regular, flat otherwise.
func (c *Cluster) bindPlacement(cost *core.CostScenario, slots []int) {
	if ih, ok := c.cfg.Machine.Induced(slots); ok {
		cost.Hier = &ih
	}
}

// startStep issues the job's next step at the current virtual time: it
// re-decides the collective under the external flows observed now (the
// per-job Auto-under-contention decision), registers the step's flows,
// runs the step's collective on the job's placed world against the frozen
// in-flight snapshot, stretches the time by the straggler jitter draw,
// and schedules the completion event.
func (c *Cluster) startStep(js *jobState) {
	inputs := js.sched[js.step]
	kmax := 0
	for _, v := range inputs {
		if nnz := v.NNZ(); nnz > kmax {
			kmax = nnz
		}
	}
	cost := c.jobCost(js)
	cost.K = kmax
	c.bindPlacement(&cost, js.slots)
	cost.External = c.externalAt(js.slots)
	alg, levels, chunks := core.ChooseAutoLevels(cost)
	if js.decided && (alg != js.alg || levels != js.levels) {
		js.stats.Switches++
	}
	js.alg, js.levels, js.chunks, js.decided = alg, levels, chunks, true
	js.stats.Algorithm = core.ChoiceName(alg, levels)

	c.adjustFlows(js.slots, +1)
	opts := core.Options{Algorithm: alg, Levels: levels, Chunks: chunks}
	comm.Run(js.world, func(p *comm.Proc) any {
		return core.Allreduce(p, inputs[p.Rank()], opts)
	})
	dt := js.world.MaxTime()
	if c.cfg.Jitter > 0 {
		rng := c.prng.Named(js.decl.Name + "/" + scenario.SubsystemJitter)
		dt *= 1 + c.cfg.Jitter*rng.Float64()
	}
	js.stats.SimSeconds += dt
	js.done = c.now + dt
	js.running = true
	if tr := c.cfg.Obs.Named(js.decl.Name); tr != nil {
		tr.Event("job:step", c.now, js.done,
			obs.Attr{Key: "step", Value: strconv.Itoa(js.step)},
			obs.Attr{Key: "alg", Value: js.stats.Algorithm})
		c.cfg.Obs.Metrics().Counter("cluster.steps").Inc(0)
	}
}
