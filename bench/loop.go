package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/obs"
)

// epoch anchors the benchmark's own span timestamps.
var epoch = time.Now()

func sinceEpoch() float64 { return time.Since(epoch).Seconds() }

// opDeadline is how long one op may take before the run is abandoned.
const opDeadline = 10 * time.Second

// windows is how many equal parts the timed phase is split into. They are
// short (a 25 s run has 0.625 s windows) so that a neighbour's burst of load on
// the shared host spoils some of them and leaves the others clean.
const windows = 40

// lockstep is a reusable barrier for the ranks of one session. The last
// rank to arrive runs a function while every other rank is parked, which is
// where all bookkeeping happens: outside every rank's timed call.
type lockstep struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	gen     uint64
	broken  bool
}

func newLockstep(n int) *lockstep {
	b := &lockstep{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks until all n ranks have arrived; the last one runs last before
// the others are released. It returns false if the barrier was aborted.
func (b *lockstep) await(last func()) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.broken {
		return false
	}
	b.waiting++
	if b.waiting == b.n {
		last()
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
		return true
	}
	for gen := b.gen; gen == b.gen && !b.broken; {
		b.cond.Wait()
	}
	return !b.broken
}

// abort releases every waiter; a rank that panics calls it so that ranks
// already parked do not wait for it forever.
func (b *lockstep) abort() {
	b.mu.Lock()
	b.broken = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// plan says what one loop measures.
type plan struct {
	warm    int      // unmeasured calls first; they belong to set-up
	calls   int      // measure exactly this many calls when > 0 ...
	seconds float64  // ... else measure until this much op time has passed
	hub     *obs.Obs // record benchmark-side spans here when non-nil
}

// window is one part of the measured phase.
type window struct {
	ops      int
	seconds  float64 // op time: the sum of the calls' latencies
	mallocs  uint64
	allocKiB float64
}

// measured is what one loop observed. Latencies are per call; a call's
// latency runs from its first rank entering to its last rank leaving, which
// on two cores also counts the time ranks wait for a processor.
type measured struct {
	started   time.Time // when the first measured call was released
	progStart float64   // the same moment on the program's own clock (Proc.Now)
	lat, skew []float64 // seconds per call: wall time, and slowest − fastest rank
	rank0     float64   // seconds rank 0 spent inside measured calls
	windows   []window
	failed    int // measured or warm-up calls with a wrong result on some rank
	msgs      int64
	wire      int64
	gcCycles  uint32
	gcPause   float64 // seconds
	gcCPU     float64 // GC share of the process's CPU time over the phase
}

func (m *measured) ops() int {
	n := 0
	for _, w := range m.windows {
		n += w.ops
	}
	return n
}

// gcCPUSeconds reads the runtime's cumulative GC and total CPU seconds.
func gcCPUSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// loop runs the session's calls in lockstep: every rank starts call i only
// after every rank has finished call i−1 and its result has been checked.
// Checking and bookkeeping happen between calls and are not timed.
func loop(s *session, inst *instance, pl plan) (m measured, err error) {
	defer func() {
		if e := recover(); e != nil {
			err = fmt.Errorf("%s: %v", inst.name, e)
		}
	}()
	var (
		bar      = newLockstep(s.ranks)
		base     = time.Now()
		starts   = make([]time.Duration, s.ranks) // since base, per rank
		ends     = make([]time.Duration, s.ranks)
		oks      = make([]bool, s.ranks)
		i        = 0 // index of the call about to run; advanced under the barrier
		ran      = false
		stop     = false
		cur      window
		total    float64 // op seconds measured so far
		ms       runtime.MemStats
		mallocs  uint64
		bytes    uint64
		msgs0    int64
		wire0    int64
		gc0      uint32
		pause0   uint64
		gcCPU0   float64
		cpu0     float64
		perWin   = pl.seconds / windows
		winCalls = max(1, pl.calls/windows)
	)
	deadline := opDeadline * time.Duration(inst.stepsPerCall)
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "%s: call %d exceeded its deadline\n", inst.name, i)
		os.Exit(3)
	})
	defer watchdog.Stop()

	closeWindow := func() {
		runtime.ReadMemStats(&ms)
		cur.mallocs, cur.allocKiB = ms.Mallocs-mallocs, float64(ms.TotalAlloc-bytes)/1024
		mallocs, bytes = ms.Mallocs, ms.TotalAlloc
		m.windows = append(m.windows, cur)
		cur = window{}
	}
	// between runs on the last rank to arrive, with the others parked.
	between := func() {
		watchdog.Reset(deadline)
		if ran {
			for _, ok := range oks {
				if !ok {
					m.failed++
					break
				}
			}
			if i >= pl.warm {
				first, last := starts[0], ends[0]
				fastest, slowest := ends[0]-starts[0], ends[0]-starts[0]
				for r := 1; r < s.ranks; r++ {
					first, last = min(first, starts[r]), max(last, ends[r])
					fastest, slowest = min(fastest, ends[r]-starts[r]), max(slowest, ends[r]-starts[r])
				}
				wall := (last - first).Seconds()
				m.lat = append(m.lat, wall)
				m.skew = append(m.skew, (slowest - fastest).Seconds())
				m.rank0 += (ends[0] - starts[0]).Seconds()
				cur.ops += inst.stepsPerCall
				cur.seconds += wall
				total += wall
				if pl.calls > 0 {
					if done := len(m.lat); done == pl.calls || (done%winCalls == 0 && len(m.windows) < windows-1) {
						closeWindow()
					}
				} else if total >= float64(len(m.windows)+1)*perWin {
					// An op longer than a window is a window of its own, so
					// a run of slow ops has fewer than windows of them.
					closeWindow()
				}
			}
			i++
		}
		ran = true
		if i == pl.warm {
			runtime.ReadMemStats(&ms)
			mallocs, bytes, gc0, pause0 = ms.Mallocs, ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs
			msgs0, wire0 = s.counters()
			gcCPU0, cpu0 = gcCPUSeconds()
			m.started = time.Now()
		}
		measuredCalls := i - pl.warm
		switch {
		case pl.calls > 0:
			stop = measuredCalls >= pl.calls
		case pl.seconds > 0:
			stop = total >= pl.seconds
		default:
			stop = measuredCalls >= 0
		}
		if stop {
			msgs, wire := s.counters()
			m.msgs, m.wire = msgs-msgs0, wire-wire0
			m.gcCycles, m.gcPause = ms.NumGC-gc0, float64(ms.PauseTotalNs-pause0)*1e-9
			if gc, cpu := gcCPUSeconds(); cpu > cpu0 {
				m.gcCPU = (gc - gcCPU0) / (cpu - cpu0)
			}
		}
	}

	s.run(func(rank int, p *comm.Proc) {
		defer func() {
			if e := recover(); e != nil {
				bar.abort()
				panic(e)
			}
		}()
		track := pl.hub.Rank(rank)
		for bar.await(between) && !stop {
			call := i
			if rank == 0 && call == pl.warm && p != nil {
				m.progStart = p.Now()
			}
			if track != nil {
				track.Begin("op", sinceEpoch())
				track.Begin(inst.layerCall, sinceEpoch())
			}
			starts[rank] = time.Since(base)
			res := s.call(rank, p, call)
			ends[rank] = time.Since(base)
			if track != nil {
				id := obs.Attr{Key: "op", Value: strconv.Itoa(call)}
				track.End(sinceEpoch(), id, obs.Attr{Key: "parent", Value: "op"})
				track.End(sinceEpoch(), id)
			}
			oks[rank] = s.check(rank, call, res)
		}
	})
	return m, nil
}

// peakRSSMiB is the process's VmHWM.
func peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// openFDs counts the process's open file descriptors.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// settled waits briefly for the goroutine and descriptor counts to return
// to what they were before a world was opened, and reports whether they did.
func settled(goroutines, fds int) bool {
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if runtime.NumGoroutine() <= goroutines && openFDs() <= fds {
			return true
		}
	}
	return false
}
