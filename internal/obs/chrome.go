package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// ChromeEvent is one entry of a Chrome trace-event JSON document
// (the format Perfetto and chrome://tracing load). Complete spans use
// Phase "X" with a microsecond duration, instants use Phase "i" with
// thread scope, and metadata rows use Phase "M".
type ChromeEvent struct {
	// Name is the event label shown on the timeline.
	Name string `json:"name"`
	// Cat is the event category (the span's lane, when not the main
	// lane).
	Cat string `json:"cat,omitempty"`
	// Phase is the trace-event phase: "X", "i" or "M".
	Phase string `json:"ph"`
	// TS is the event timestamp in microseconds.
	TS float64 `json:"ts"`
	// Dur is a complete event's duration in microseconds.
	Dur float64 `json:"dur,omitempty"`
	// PID is the process track: 0 for ranks, 1 for cluster jobs.
	PID int `json:"pid"`
	// TID is the thread track: rank*3+lane for ranks, creation order
	// for named tracks.
	TID int `json:"tid"`
	// Scope is the instant-event scope ("t" for thread).
	Scope string `json:"s,omitempty"`
	// Args carries the span attributes (and metadata names).
	Args map[string]string `json:"args,omitempty"`
}

// ChromeTrace is a full Chrome trace-event JSON document.
type ChromeTrace struct {
	// DisplayTimeUnit is the unit hint for the trace viewer.
	DisplayTimeUnit string `json:"displayTimeUnit,omitempty"`
	// OtherData carries document-level metadata (the hub's clock).
	OtherData map[string]string `json:"otherData,omitempty"`
	// TraceEvents is the event list.
	TraceEvents []ChromeEvent `json:"traceEvents"`
}

// Process IDs of the two track groups in the export.
const (
	// PIDRanks groups the per-rank tracks.
	PIDRanks = 0
	// PIDJobs groups the named (cluster-job) tracks.
	PIDJobs = 1
)

// ChromeTrace renders the hub's recorded spans as a Chrome trace-event
// document: metadata rows first (process and thread names, only for
// lanes that carry events), then rank-track events in rank/record
// order, then named-track events in creation/record order. On the
// simulator clock the output is byte-deterministic.
func (o *Obs) ChromeTrace() ChromeTrace {
	tr := ChromeTrace{
		DisplayTimeUnit: "ms",
		OtherData:       map[string]string{"clock": o.Clock().String()},
	}
	if o == nil {
		return tr
	}

	type key struct{ pid, tid int }
	used := map[key]string{} // tid → thread name, for lanes with events
	var body []ChromeEvent

	emit := func(pid, tid int, s Span) {
		ev := ChromeEvent{
			Name: s.Name, Cat: s.Lane,
			TS:  s.Start * 1e6,
			PID: pid, TID: tid,
		}
		if s.Instant {
			ev.Phase = "i"
			ev.Scope = "t"
		} else {
			ev.Phase = "X"
			ev.Dur = (s.End - s.Start) * 1e6
		}
		if len(s.Attrs) > 0 {
			ev.Args = make(map[string]string, len(s.Attrs))
			for _, a := range s.Attrs {
				ev.Args[a.Key] = a.Value
			}
		}
		body = append(body, ev)
	}

	for _, t := range o.ranks {
		for _, s := range t.snapshot() {
			tid := t.rank*lanesPerRank + laneIndex(s.Lane)
			name := "rank " + strconv.Itoa(t.rank)
			if s.Lane != LaneMain {
				name += " " + s.Lane
			}
			used[key{PIDRanks, tid}] = name
			emit(PIDRanks, tid, s)
		}
	}
	o.mu.Lock()
	named := append([]*Track(nil), o.named...)
	o.mu.Unlock()
	for _, t := range named {
		for _, s := range t.snapshot() {
			used[key{PIDJobs, t.index}] = t.name
			emit(PIDJobs, t.index, s)
		}
	}

	var meta []ChromeEvent
	addMeta := func(name string, pid, tid int, label string) {
		meta = append(meta, ChromeEvent{
			Name: name, Phase: "M", PID: pid, TID: tid,
			Args: map[string]string{"name": label},
		})
	}
	havePID := map[int]bool{}
	for k := range used {
		havePID[k.pid] = true
	}
	if havePID[PIDRanks] {
		addMeta("process_name", PIDRanks, 0, "ranks")
	}
	if havePID[PIDJobs] {
		addMeta("process_name", PIDJobs, 0, "jobs")
	}
	for pid := PIDRanks; pid <= PIDJobs; pid++ {
		maxTID := -1
		for k := range used {
			if k.pid == pid && k.tid > maxTID {
				maxTID = k.tid
			}
		}
		for tid := 0; tid <= maxTID; tid++ {
			if label, ok := used[key{pid, tid}]; ok {
				addMeta("thread_name", pid, tid, label)
			}
		}
	}

	tr.TraceEvents = append(meta, body...)
	return tr
}

// EncodeChromeTrace renders the document as JSON with one event per
// line, so golden diffs stay readable. The encoding is a pure function
// of the value (struct field order, sorted map keys), which is what
// makes the decode∘encode identity hold.
func EncodeChromeTrace(t ChromeTrace) ([]byte, error) {
	var b bytes.Buffer
	b.WriteString("{\n")
	if t.DisplayTimeUnit != "" {
		unit, err := json.Marshal(t.DisplayTimeUnit) // not %q: Go escapes (\a, \x00) are not JSON
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "  \"displayTimeUnit\": %s,\n", unit)
	}
	if len(t.OtherData) > 0 {
		od, err := json.Marshal(t.OtherData)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "  \"otherData\": %s,\n", od)
	}
	b.WriteString("  \"traceEvents\": [\n")
	for i, ev := range t.TraceEvents {
		enc, err := json.Marshal(ev)
		if err != nil {
			return nil, err
		}
		b.WriteString("    ")
		b.Write(enc)
		if i != len(t.TraceEvents)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("  ]\n}\n")
	return b.Bytes(), nil
}

// DecodeChromeTrace parses a Chrome trace-event JSON document produced
// by EncodeChromeTrace (or any compatible encoder).
func DecodeChromeTrace(data []byte) (ChromeTrace, error) {
	var t ChromeTrace
	err := json.Unmarshal(data, &t)
	return t, err
}

// WriteChrome encodes the hub's ChromeTrace to w. A nil hub writes an
// empty (but valid) document.
func (o *Obs) WriteChrome(w io.Writer) error {
	buf, err := EncodeChromeTrace(o.ChromeTrace())
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// WriteMetrics dumps the hub's metrics registry as plain text to w.
func (o *Obs) WriteMetrics(w io.Writer) error {
	return o.Metrics().Write(w)
}
