// Package obs is the unified observability layer for the repo: a
// low-overhead metrics registry (per-rank-sharded counters, gauges and
// fixed-bucket histograms), span-based tracing over both the simulator's
// virtual clock and the real transports' wall clock, and exporters —
// Chrome trace-event JSON loadable in Perfetto plus a plain-text metrics
// dump.
//
// The package deliberately imports nothing from the rest of the repo:
// comm, core, adapt, train and cluster all import obs and pass their own
// clock readings in. Every method is nil-safe, so a disabled world (one
// that never called EnableObservability) carries nil handles and each
// instrumentation site costs exactly one pointer comparison and zero
// allocations.
package obs

import "sync"

// Clock says which time base a hub's span timestamps are in. The
// simulator transport records virtual α–β model seconds; the goroutine
// and TCP transports record wall-clock seconds. Exporters label the
// trace with it so a Perfetto timeline is never misread.
type Clock int

const (
	// ClockVirtual marks timestamps from the simulator's virtual α–β
	// cost-model clock (deterministic, reproducible bit for bit).
	ClockVirtual Clock = iota
	// ClockWall marks timestamps from the host's monotonic wall clock
	// (goroutine and TCP transports; measured, not deterministic).
	ClockWall
)

// String names the clock for exporter metadata.
func (c Clock) String() string {
	if c == ClockWall {
		return "wall"
	}
	return "virtual"
}

// Per-rank tracks are drawn with three fixed lanes so that overlapping
// activities never produce malformed nested spans: the main lane holds
// the rank's phase stack, the net lane holds point-to-point sends (whose
// arrival can outlive the local phase), and the merge lane holds the
// pipelined merge stage that physically overlaps the send stage on wall
// transports.
const (
	// LaneMain is the default lane: the rank's own phase stack.
	LaneMain = ""
	// LaneNet is the message lane: one span per send, start→arrival.
	LaneNet = "net"
	// LaneMerge is the overlap lane: pipelined per-chunk merge work.
	LaneMerge = "merge"
)

// laneIndex maps a lane to its fixed slot inside a rank's thread-ID
// block (tid = rank*lanesPerRank + laneIndex in the Chrome export).
func laneIndex(lane string) int {
	switch lane {
	case LaneNet:
		return 1
	case LaneMerge:
		return 2
	default:
		return 0
	}
}

// lanesPerRank is the width of one rank's tid block in the export.
const lanesPerRank = 3

// Attr is one key/value annotation on a span (destination rank, tag,
// chosen algorithm, predicted cost, …). Values are pre-rendered strings
// so the hot path never reflects.
type Attr struct {
	// Key names the annotation.
	Key string
	// Value is the rendered annotation value.
	Value string
}

// Span is one recorded interval (or instant) on a track. Times are in
// seconds on the hub's Clock; End equals Start for instants.
type Span struct {
	// Name is the span's label, e.g. "split:merge" or "job:step".
	Name string
	// Track is the owning track's name ("rank 3" or a job name).
	Track string
	// Lane is the track lane the span belongs to (LaneMain, LaneNet,
	// LaneMerge).
	Lane string
	// Rank is the owning rank, or -1 for named (cluster-job) tracks.
	Rank int
	// Start is the span's begin time in seconds.
	Start float64
	// End is the span's end time in seconds (== Start for instants).
	End float64
	// Instant marks a point event (exported as a Perfetto instant).
	Instant bool
	// Attrs are the span's annotations, in the order they were given.
	Attrs []Attr
}

// Attr returns the value of the span's attr named key, or "" when it has
// none.
func (s Span) Attr(key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// openSpan is a stack entry for Begin/End bracket tracing.
type openSpan struct {
	name  string
	start float64
}

// Obs is an observability hub: one per world (or cluster). It owns one
// track per rank, any number of named tracks (cluster jobs), and the
// metrics registry. A nil *Obs is a valid disabled hub: every method is
// a no-op.
type Obs struct {
	clock Clock
	reg   *Registry

	mu    sync.Mutex
	ranks []*Track
	named []*Track
}

// New creates a hub with one track per rank and an empty registry
// sharded for that many ranks. clock declares the time base span
// timestamps will be in.
func New(ranks int, clock Clock) *Obs {
	o := &Obs{clock: clock, reg: NewRegistry(ranks)}
	o.ranks = make([]*Track, ranks)
	for r := range o.ranks {
		o.ranks[r] = &Track{hub: o, rank: r}
	}
	return o
}

// Clock reports the hub's time base. A nil hub reports ClockVirtual.
func (o *Obs) Clock() Clock {
	if o == nil {
		return ClockVirtual
	}
	return o.clock
}

// SetClock re-declares the hub's time base. Worlds call this when a
// transport with a different clock is attached after the hub was
// created (e.g. EnableObservability before UseGoroutineTransport).
func (o *Obs) SetClock(c Clock) {
	if o == nil {
		return
	}
	o.clock = c
}

// Metrics returns the hub's registry (nil for a nil hub — the registry
// is itself nil-safe, so callers may chain without checking).
func (o *Obs) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Rank returns rank r's track, or nil if the hub is nil or r is out of
// range.
func (o *Obs) Rank(r int) *Track {
	if o == nil || r < 0 || r >= len(o.ranks) {
		return nil
	}
	return o.ranks[r]
}

// Named returns (creating on first use) the named track for name —
// cluster jobs get one track each. Named tracks keep creation order in
// the export.
func (o *Obs) Named(name string) *Track {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, t := range o.named {
		if t.name == name {
			return t
		}
	}
	t := &Track{hub: o, name: name, rank: -1, index: len(o.named)}
	o.named = append(o.named, t)
	return t
}

// Spans returns every recorded span: rank tracks first (in rank order),
// then named tracks (in creation order), each in the order its spans
// were recorded. On the simulator this order is deterministic.
func (o *Obs) Spans() []Span {
	if o == nil {
		return nil
	}
	var out []Span
	for _, t := range o.ranks {
		out = append(out, t.snapshot()...)
	}
	o.mu.Lock()
	named := append([]*Track(nil), o.named...)
	o.mu.Unlock()
	for _, t := range named {
		out = append(out, t.snapshot()...)
	}
	return out
}

// Track is one timeline: either a rank's (three lanes) or a named
// cluster job's. A nil *Track is a valid disabled track. Tracks are
// mutex-guarded because on wall transports a rank's pipelined merge
// goroutine records concurrently with its send stage.
type Track struct {
	hub   *Obs
	name  string
	rank  int // -1 for named tracks
	index int // creation order among named tracks

	mu    sync.Mutex
	spans []Span
	stack []openSpan
}

// RankID reports which rank owns this track, or -1 for a named track.
// A nil track reports -1.
func (t *Track) RankID() int {
	if t == nil {
		return -1
	}
	return t.rank
}

// Name reports a named track's name ("" for rank tracks and nil).
func (t *Track) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Metrics returns the owning hub's registry, so an instrumented layer
// holding only a track can also bump counters. Nil-safe all the way
// down: a nil track returns a nil (still usable) registry.
func (t *Track) Metrics() *Registry {
	if t == nil {
		return nil
	}
	return t.hub.Metrics()
}

// Begin opens a span named name at time now on the main lane. Close it
// with End. Begin/End pairs nest like a call stack.
func (t *Track) Begin(name string, now float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.stack = append(t.stack, openSpan{name: name, start: now})
	t.mu.Unlock()
}

// End closes the innermost open span at time now, attaching attrs.
// Calling End with no open span is a no-op.
func (t *Track) End(now float64, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if n := len(t.stack); n > 0 {
		op := t.stack[n-1]
		t.stack = t.stack[:n-1]
		t.appendLocked(Span{Name: op.name, Lane: LaneMain,
			Start: op.start, End: now, Attrs: attrs})
	}
	t.mu.Unlock()
}

// Event records a complete span [start, end] on the main lane.
func (t *Track) Event(name string, start, end float64, attrs ...Attr) {
	t.EventLane(LaneMain, name, start, end, attrs...)
}

// EventLane records a complete span [start, end] on the given lane.
// Sends go on LaneNet, pipelined merge work on LaneMerge.
func (t *Track) EventLane(lane, name string, start, end float64, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.appendLocked(Span{Name: name, Lane: lane,
		Start: start, End: end, Attrs: attrs})
	t.mu.Unlock()
}

// Instant records a point event at time at on the main lane (adaptation
// decisions, job arrivals, …).
func (t *Track) Instant(name string, at float64, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.appendLocked(Span{Name: name, Lane: LaneMain,
		Start: at, End: at, Instant: true, Attrs: attrs})
	t.mu.Unlock()
}

func (t *Track) appendLocked(s Span) {
	s.Rank = t.rank
	s.Track = t.name
	t.spans = append(t.spans, s)
}

// Spans returns a copy of the track's recorded spans in record order.
func (t *Track) Spans() []Span {
	return t.snapshot()
}

func (t *Track) snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}
