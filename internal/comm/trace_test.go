package comm

import (
	"sort"
	"strconv"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// sendLog gathers every TraceEvent the send hook reports, per source rank.
type sendLog struct {
	mu    sync.Mutex
	bySrc map[int][]TraceEvent
}

// logSends installs a send hook on w that records into a fresh sendLog.
func logSends(w *World) *sendLog {
	l := &sendLog{bySrc: map[int][]TraceEvent{}}
	w.OnSend(func(e TraceEvent) {
		l.mu.Lock()
		l.bySrc[e.Src] = append(l.bySrc[e.Src], e)
		l.mu.Unlock()
	})
	return l
}

// of returns a copy of src's events in its send order.
func (l *sendLog) of(src int) []TraceEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]TraceEvent(nil), l.bySrc[src]...)
}

// all returns every event (sources in no particular order).
func (l *sendLog) all() []TraceEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []TraceEvent
	for _, events := range l.bySrc {
		out = append(out, events...)
	}
	return out
}

// sendSpans returns hub's send spans ordered by send time; the stable sort
// keeps each rank's own send order on ties.
func sendSpans(hub *obs.Obs) []obs.Span {
	var out []obs.Span
	for _, s := range hub.Spans() {
		if s.Lane == obs.LaneNet && s.Name == "send" {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// attrInt returns s's integer attr named key, failing t when it is absent
// or not an integer.
func attrInt(t *testing.T, s obs.Span, key string) int {
	t.Helper()
	v, err := strconv.Atoi(s.Attr(key))
	if err != nil {
		t.Fatalf("span %+v: attr %s: %v", s, key, err)
	}
	return v
}

// TestTracerRecordsAllSends: the send hook sees every send once, with its
// tag, size and causal times, and its byte total matches the world's.
func TestTracerRecordsAllSends(t *testing.T) {
	w := NewWorld(2, simnet.Profile{Alpha: 1e-6})
	l := logSends(w)
	Run(w, func(p *Proc) any {
		p.Send(1-p.Rank(), 3, nil, 64)
		p.Recv(1-p.Rank(), 3)
		return nil
	})
	events := l.all()
	if len(events) != 2 {
		t.Fatalf("hook saw %d events, want 2", len(events))
	}
	total := 0
	for _, e := range events {
		if e.Bytes != 64 || e.Tag != 3 || e.Dst != 1-e.Src {
			t.Fatalf("bad event %+v", e)
		}
		if e.Arrival <= e.SendTime {
			t.Fatal("arrival must follow send")
		}
		total += e.Bytes
	}
	if total != 128 || w.TotalBytes() != 128 {
		t.Fatalf("hook bytes %d, world TotalBytes %d, want 128", total, w.TotalBytes())
	}
}

// TestTracerDisable: OnSend(nil) removes the hook — nothing reaches it,
// while the world's own counters keep counting.
func TestTracerDisable(t *testing.T) {
	w := NewWorld(2, simnet.Profile{})
	l := logSends(w)
	w.OnSend(nil)
	Run(w, func(p *Proc) any {
		p.Send(1-p.Rank(), 0, nil, 8)
		p.Recv(1-p.Rank(), 0)
		return nil
	})
	if got := len(l.all()); got != 0 {
		t.Fatalf("removed hook saw %d events", got)
	}
	if w.TotalMessages() != 2 {
		t.Fatalf("TotalMessages = %d, want 2", w.TotalMessages())
	}
}

// TestTracerRoundsShowPayloadDoubling: recursive-doubling style traffic —
// every rank exchanges 100B, then 200B — leaves send spans that cluster
// into two rounds by virtual send time, the bytes doubling between them.
// This is the grouping sparbench -trace prints from the same spans.
func TestTracerRoundsShowPayloadDoubling(t *testing.T) {
	w := NewWorld(4, simnet.Profile{Alpha: 1e-6})
	hub := w.EnableObservability()
	Run(w, func(p *Proc) any {
		p.SendRecv(p.Rank()^1, 0, nil, 100)
		p.SendRecv(p.Rank()^2, 1, nil, 200)
		return nil
	})
	var counts, byteTotals []int
	sends := sendSpans(hub)
	for i, s := range sends {
		if i == 0 || s.Start != sends[i-1].Start {
			counts, byteTotals = append(counts, 0), append(byteTotals, 0)
		}
		counts[len(counts)-1]++
		byteTotals[len(byteTotals)-1] += attrInt(t, s, "bytes")
	}
	if len(counts) != 2 {
		t.Fatalf("got %d rounds, want 2: %v", len(counts), counts)
	}
	if counts[0] != 4 || counts[1] != 4 {
		t.Fatalf("round message counts %v, want [4 4]", counts)
	}
	if byteTotals[0] != 400 || byteTotals[1] != 800 {
		t.Fatalf("round bytes %v, want [400 800]", byteTotals)
	}
}

// TestTracerDumpAndReset: a one-way send leaves one send span carrying
// its edge, tag and size — what the timeline dump prints — and installing
// a fresh hook starts a fresh record: the old one sees nothing more.
func TestTracerDumpAndReset(t *testing.T) {
	w := NewWorld(2, simnet.Profile{Alpha: 1e-6})
	hub := w.EnableObservability()
	old := logSends(w)
	oneWay := func(p *Proc) any {
		if p.Rank() == 0 {
			p.Send(1, 7, nil, 32)
		} else {
			p.Recv(0, 7)
		}
		return nil
	}
	Run(w, oneWay)
	sends := sendSpans(hub)
	if len(sends) != 1 {
		t.Fatalf("%d send spans, want 1", len(sends))
	}
	s := sends[0]
	if s.Rank != 0 || attrInt(t, s, "dst") != 1 || attrInt(t, s, "tag") != 7 || attrInt(t, s, "bytes") != 32 {
		t.Fatalf("send span %+v, want 0 → 1 tag 7 32B", s)
	}
	fresh := logSends(w)
	Run(w, oneWay)
	if len(old.all()) != 1 || len(fresh.all()) != 1 {
		t.Fatalf("old hook %d events, fresh hook %d, want 1 and 1", len(old.all()), len(fresh.all()))
	}
}

// TestTracerEventsOf: each rank's sends reach the hook in its send order,
// complete regardless of the other ranks' concurrent activity.
func TestTracerEventsOf(t *testing.T) {
	w := NewWorld(3, simnet.Profile{Alpha: 1e-6})
	l := logSends(w)
	Run(w, func(p *Proc) any {
		peer, from := (p.Rank()+1)%3, (p.Rank()+2)%3
		for i := 0; i < 4; i++ {
			p.Send(peer, 100+i, nil, 8*(i+1))
		}
		for i := 0; i < 4; i++ {
			p.Recv(from, 100+i)
		}
		return nil
	})
	for src := 0; src < 3; src++ {
		own := l.of(src)
		if len(own) != 4 {
			t.Fatalf("src %d: %d events, want 4", src, len(own))
		}
		for i, e := range own {
			if e.Src != src {
				t.Fatalf("src %d: foreign event %+v", src, e)
			}
			if e.Dst != (src+1)%3 || e.Tag != 100+i || e.Bytes != 8*(i+1) {
				t.Fatalf("src %d: events out of send order: %+v", src, own)
			}
		}
	}
	if got := l.of(99); got != nil {
		t.Fatalf("unknown source should have no events, got %v", got)
	}
}

// TestTracerConcurrentAppendsAndReads: sixteen truly concurrent ranks on
// the goroutine transport call the hook and append send spans while a
// reader scans the spans and counters — obs, the only send history, must
// hold up under -race, and each rank's own record must stay a stable,
// complete prefix in send order.
func TestTracerConcurrentAppendsAndReads(t *testing.T) {
	const P, rounds = 16, 200
	w := NewWorld(P, simnet.Aries).UseGoroutineTransport()
	hub := w.EnableObservability()
	l := logSends(w)
	done := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			hub.Spans()
			w.TotalBytes()
			l.all()
		}
	}()
	Run(w, func(p *Proc) int {
		rank := p.Rank()
		for i := 0; i < rounds; i++ {
			p.Send((rank+1)%P, i, nil, i)
			if own := l.of(rank); len(own) != i+1 || own[i].Tag != i {
				panic("own prefix not stable")
			}
			p.Recv((rank-1+P)%P, i)
		}
		return 0
	})
	close(done)
	rg.Wait()
	if got := len(l.all()); got != P*rounds {
		t.Fatalf("hook saw %d events, want %d", got, P*rounds)
	}
	next := make([]int, P)
	for _, s := range hub.Spans() {
		if s.Lane != obs.LaneNet {
			continue
		}
		if tag := attrInt(t, s, "tag"); tag != next[s.Rank] {
			t.Fatalf("rank %d: send span tag %d, want %d (send order)", s.Rank, tag, next[s.Rank])
		}
		next[s.Rank]++
	}
	for r, n := range next {
		if n != rounds {
			t.Fatalf("rank %d: %d send spans, want %d", r, n, rounds)
		}
	}
}

// TestDumpPrintsAllFields: the timeline dump prints straight from the send
// spans, so every field it prints — send time, endpoints, tag, size,
// level, arrival — must be on each span and equal what the hook reported
// for that send. NICFactor is the hook's alone (see TraceEvent).
func TestDumpPrintsAllFields(t *testing.T) {
	w := NewWorldHier(8, testHier)
	hub := w.EnableObservability()
	l := logSends(w)
	Run(w, func(p *Proc) any {
		switch p.Rank() {
		case 0:
			p.Send(1, 1, nil, 256)
			p.Send(2, 2, nil, 1024)
			p.Send(4, 4, nil, 8)
		case 1, 2, 4:
			p.Recv(0, p.Rank())
			p.Send(0, 10+p.Rank(), nil, 16*p.Rank())
		}
		if p.Rank() == 0 {
			for _, src := range []int{1, 2, 4} {
				p.Recv(src, 10+src)
			}
		}
		return nil
	})
	byKey := map[[2]int]TraceEvent{}
	for _, e := range l.all() {
		byKey[[2]int{e.Src, e.Tag}] = e
	}
	sends := sendSpans(hub)
	if len(sends) != 6 || len(byKey) != 6 {
		t.Fatalf("%d send spans, %d hook events, want 6 and 6", len(sends), len(byKey))
	}
	levels := map[int]bool{}
	for _, s := range sends {
		e, ok := byKey[[2]int{s.Rank, attrInt(t, s, "tag")}]
		if !ok {
			t.Fatalf("span %+v matches no hook event", s)
		}
		if attrInt(t, s, "dst") != e.Dst || attrInt(t, s, "bytes") != e.Bytes ||
			attrInt(t, s, "level") != e.Level || s.Start != e.SendTime || s.End != e.Arrival {
			t.Fatalf("span %+v disagrees with hook event %+v", s, e)
		}
		levels[e.Level] = true
	}
	if len(levels) != 3 {
		t.Fatalf("levels seen %v, want all three of the hierarchy", levels)
	}
}
