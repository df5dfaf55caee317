package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
)

// An end-to-end run constructs and warms a world at least minSetups times,
// and goes on until set-up has taken setupBudget in total or maxSetups
// worlds were built. Cheap set-ups are the noisiest, so they get the most
// repetitions. The world in the middle runs the timed phase; the others are
// closed once warm. Half come before it and half after, a run's length apart,
// so that one burst of load on the host cannot slow them all.
const (
	minSetups   = 7
	maxSetups   = 15
	setupBudget = 2 * time.Second
)

// quietShare places the timing metrics within a run's samples. The sandbox
// is a few cores of a shared host: neighbours slow it by 10–60 % for seconds
// at a time and never speed it up, so a run's median says how busy the host
// was and does not repeat. Each timing metric is instead the value the
// quietest tenth of its samples (windows, or set-ups) just reaches: the 90th
// percentile of the windows' throughput, the 10th of their median latency.
// That repeats as long as a tenth of the run was undisturbed.
const quietShare = 0.1

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the sorted samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// cv is the coefficient of variation: standard deviation over mean.
func cv(xs []float64) float64 {
	mean, ss := 0.0, 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss/float64(len(xs))) / mean
}

// windowed returns the per-window samples of the windowed metrics; p50ms is
// each window's median op latency.
func windowed(m measured, stepsPerCall int) (opsPerS, p50ms, allocs, allocKiB []float64) {
	done := 0
	for _, w := range m.windows {
		calls := w.ops / stepsPerCall
		opsPerS = append(opsPerS, float64(w.ops)/w.seconds)
		p50ms = append(p50ms, median(perOpMillis(m.lat[done:done+calls], stepsPerCall)))
		allocs = append(allocs, float64(w.mallocs)/float64(w.ops))
		allocKiB = append(allocKiB, w.allocKiB/float64(w.ops))
		done += calls
	}
	return opsPerS, p50ms, allocs, allocKiB
}

// perOpMillis converts per-call latencies in seconds to per-op milliseconds.
func perOpMillis(lat []float64, stepsPerCall int) []float64 {
	out := make([]float64, len(lat))
	for i, l := range lat {
		out[i] = l * 1e3 / float64(stepsPerCall)
	}
	return out
}

// measure builds the workload's inputs from the seed and runs it once,
// end to end or traced.
func measure(def workloadDef, o options) (workloadResult, error) {
	if def.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(def.procs))
	}
	res := workloadResult{Workload: def.name, Seed: o.seed, Traced: o.traced, GOMAXPROCS: runtime.GOMAXPROCS(0),
		Metrics: map[string]metricValue{}}
	inst, err := def.build(def.name, o.seed, o.quick)
	if err != nil {
		return res, err
	}
	res.Digest = inst.digest
	if o.traced {
		err = traced(inst, o, &res)
	} else {
		err = endToEnd(inst, o, &res)
	}
	res.Correct = err == nil && res.Failed == 0
	return res, err
}

// openChecked opens a session and returns, with it, a function that closes
// it and reports whether every goroutine and descriptor it started is gone.
func openChecked(inst *instance, observe bool) (*session, func() error, error) {
	runtime.GC() // finalizers of earlier worlds' sockets run before the count
	goroutines, fds := runtime.NumGoroutine(), openFDs()
	s, err := inst.open(observe)
	if err != nil {
		return nil, nil, err
	}
	return s, func() error {
		if err := s.close(); err != nil {
			return err
		}
		if !settled(goroutines, fds) {
			return fmt.Errorf("%s: %d goroutines and %d descriptors before the world, %d and %d after Close",
				inst.name, goroutines, fds, runtime.NumGoroutine(), openFDs())
		}
		return nil
	}, nil
}

// endToEnd is the untraced run: the timed phase, with half of the set-up
// repetitions before it and half after it.
func endToEnd(inst *instance, o options, res *workloadResult) error {
	var setup []float64
	// once sets up a world, runs the plan on it and closes it.
	once := func(pl plan) (measured, error) {
		t0 := time.Now()
		s, closeFn, err := openChecked(inst, false)
		if err != nil {
			return measured{}, err
		}
		m, err := loop(s, inst, pl)
		if err != nil {
			return m, err
		}
		setup = append(setup, m.started.Sub(t0).Seconds())
		res.Failed += m.failed * inst.stepsPerCall
		if err := closeFn(); err != nil {
			// A leak fails the workload's last op.
			res.Failed++
			fmt.Println("leak:", err)
		}
		return m, nil
	}
	warmOnly, timed := plan{warm: inst.warmCalls}, plan{warm: inst.warmCalls, seconds: o.seconds}
	least, most := minSetups/2, maxSetups/2
	if o.quick {
		timed = plan{warm: inst.warmCalls, calls: 3}
		least, most = 1, 1
	}
	before := 0
	for begun := time.Now(); before < most && (before < least || time.Since(begun) < setupBudget/2); before++ {
		if _, err := once(warmOnly); err != nil {
			return err
		}
	}
	m, err := once(timed)
	if err != nil {
		return err
	}
	for i := 0; i < before; i++ {
		if _, err := once(warmOnly); err != nil {
			return err
		}
	}
	res.Attempted = m.ops()
	res.Samples = len(m.lat)
	opsPerS, p50ms, allocs, allocKiB := windowed(m, inst.stepsPerCall)
	res.WindowCV = cv(opsPerS)
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	res.Metrics["setup_s"] = metricValue{Value: quantile(setup, quietShare), Samples: setup}
	res.Metrics["ops_per_s"] = metricValue{Value: quantile(opsPerS, 1-quietShare), Samples: opsPerS}
	res.Metrics["op_p50_ms"] = metricValue{Value: quantile(p50ms, quietShare), Samples: p50ms}
	res.Metrics["allocs_per_op"] = metricValue{Value: median(allocs), Samples: allocs}
	res.Metrics["alloc_kb_per_op"] = metricValue{Value: median(allocKiB), Samples: allocKiB}
	res.Metrics["peak_rss_mb"] = metricValue{Value: rss}
	return nil
}

// traced is the per-layer run: a fixed number of ops untraced, the same
// number with the program's obs and the benchmark's spans on, then every
// layer's probes on this workload's inputs.
func traced(inst *instance, o options, res *workloadResult) error {
	set := func(name string, v float64) { res.Metrics[name] = metricValue{Value: v} }
	// once opens a fresh session, runs the fixed number of ops, and returns
	// what the loop saw plus the program's own spans of the measured calls.
	once := func(hub *obs.Obs) (measured, []obs.Span, error) {
		s, closeFn, err := openChecked(inst, hub != nil)
		if err != nil {
			return measured{}, nil, err
		}
		m, err := loop(s, inst, plan{warm: inst.warmCalls, calls: inst.tracedCalls, hub: hub})
		if err != nil {
			return m, nil, err
		}
		var spans []obs.Span
		for _, sp := range s.hub.Spans() {
			if sp.Start >= m.progStart {
				spans = append(spans, sp)
			}
		}
		return m, spans, closeFn()
	}
	plain, _, err := once(nil)
	if err != nil {
		return err
	}
	hub := obs.New(inst.ranks, obs.ClockWall)
	spanned, programSpans, err := once(hub)
	if err != nil {
		return err
	}

	res.Attempted = plain.ops() + spanned.ops()
	res.Failed = (plain.failed + spanned.failed) * inst.stepsPerCall
	res.Samples = len(plain.lat)
	ops := float64(plain.ops())
	lat := perOpMillis(plain.lat, inst.stepsPerCall)
	opsPerS, _, _, _ := windowed(plain, inst.stepsPerCall)
	res.WindowCV = cv(opsPerS)

	set("scenario.gen_s", inst.genSeconds)
	set("bench.reference_s", inst.refSeconds)
	set("bench.window_cv", res.WindowCV)
	set("bench.failed_share", float64(res.Failed)/float64(res.Attempted))
	set("core.op_p95_ms", quantile(lat, 0.95))
	set("core.rank_skew_ms", median(perOpMillis(plain.skew, inst.stepsPerCall)))
	set("comm.wire_bytes_per_op", float64(plain.wire)/ops)
	set("comm.msgs_per_op", float64(plain.msgs)/ops)
	set("runtime.gc_cycles_per_op", float64(plain.gcCycles)/ops)
	set("runtime.gc_pause_ms_per_op", plain.gcPause*1e3/ops)
	set("runtime.gc_cpu_share", plain.gcCPU)
	set("obs.enabled_overhead_pct", 100*(median(spanned.lat)/median(plain.lat)-1))
	set("obs.spans_per_op", float64(len(programSpans))/float64(spanned.ops()))
	for name, share := range phaseShares(programSpans, spanned.rank0) {
		set(name, share)
	}

	pi, err := inst.probe()
	if err != nil {
		return err
	}
	if err := probeLayers(pi, o, hub, set); err != nil {
		return err
	}

	raw, err := obs.EncodeChromeTrace(hub.ChromeTrace())
	if err != nil {
		return err
	}
	return writeFile(filepath.Join(o.dir, "trace-"+inst.name+".json"), raw)
}
