package comm

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"os"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/quant"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// codecCases returns one payload per codec arm, plus the shapes the block
// allgather's lists take: ragged blocks, nil entries at either end, an
// empty block next to an absent one, an empty list.
func codecCases() []any {
	sv := stream.NewSparse(100, []int32{3, 17, 99}, []float64{1.5, -2.25, 0.125}, stream.OpSum)
	dv := stream.NewDense(make([]float64, 40), stream.OpMax)
	qc := quant.Config{Bits: 4, Bucket: 16, Norm: quant.NormMax}
	qv := quant.Encode([]float64{1, -2, 3, -4, 5, 6, 7, 8}, qc, rand.New(rand.NewSource(1)))
	qw := quant.Encode(make([]float64, 37), qc, rand.New(rand.NewSource(2)))
	return []any{
		nil,
		[]float64{1, 2, 3.5},
		[]float64{},
		[][]float64{{1, 2}, nil, {3}},
		[][]float64{nil, nil, {1, 2, 3, 4, 5}, {}, nil, {6}, nil},
		[][]float64{},
		sv,
		dv,
		(*stream.Vector)(nil),
		qv,
		(*quant.Quantized)(nil),
		[]*quant.Quantized{qv, nil, qv},
		[]*quant.Quantized{nil, qw, nil, nil, qv, nil},
		[]*quant.Quantized{},
	}
}

// TestPayloadCodecRoundTrip: every payload type a collective sends must
// survive the wire codec deeply equal, sharing no storage with the input.
func TestPayloadCodecRoundTrip(t *testing.T) {
	for i, in := range codecCases() {
		out, err := copyPayload(in)
		if err != nil {
			t.Fatalf("case %d (%T): %v", i, in, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("case %d (%T): round trip %#v != %#v", i, in, out, in)
		}
	}

	// The copy must not share storage: mutating it leaves the original.
	xs := []float64{1, 2, 3}
	cp, _ := copyPayload(xs)
	cp.([]float64)[0] = 99
	if xs[0] != 1 {
		t.Fatalf("copy aliases the original slice")
	}
}

// TestPayloadSizeMatchesAppend guards the switch payloadSize mirrors: for
// every codec arm, nil entries and empty lists included, it is exactly the
// number of bytes appendPayload writes.
func TestPayloadSizeMatchesAppend(t *testing.T) {
	for i, v := range codecCases() {
		frame, err := appendPayload(nil, v)
		if err != nil {
			t.Fatalf("case %d (%T): %v", i, v, err)
		}
		if got := payloadSize(v); got != len(frame) {
			t.Errorf("case %d (%T): payloadSize %d, appendPayload wrote %d bytes", i, v, got, len(frame))
		}
	}
}

// TestCopyPayloadAllocationBudget: the goroutine handover of a 1 MiB sparse
// vector allocates its exact-size frame and the decoded copy — two bytes
// per encoded byte in a handful of allocations — not a buffer regrown
// through dozens of appends (6 bytes per byte in 40 allocations).
func TestCopyPayloadAllocationBudget(t *testing.T) {
	nnz := (1 << 20) / 12
	idx := make([]int32, nnz)
	val := make([]float64, nnz)
	for i := range idx {
		idx[i], val[i] = int32(2*i), float64(i)
	}
	v := stream.NewSparse(2*nnz, idx, val, stream.OpSum)
	const runs = 20
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := copyPayload(v); err != nil {
			t.Fatal(err)
		}
	})
	// MemStats is process-wide, but a stray allocation elsewhere is bytes
	// against the 2 MiB each run allocates here.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		copyPayload(v)
	}
	runtime.ReadMemStats(&after)
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(payloadSize(v))
	if bytesPer > 2.1 || allocs > 6 {
		t.Fatalf("copyPayload allocated %.2f bytes per encoded byte in %v allocations, budget 2.1 in 6", bytesPer, allocs)
	}
}

// hostileCountFrame claims a 2^31−1 entry block list in five bytes: a
// decoder that allocates from the count before checking it against the
// frame dies with an unrecoverable out-of-memory error.
var hostileCountFrame = []byte{wireFloatss, 0xff, 0xff, 0xff, 0x7f}

// TestPayloadCodecRejectsGarbage: truncation, trailing bytes and counts
// the frame cannot hold error rather than decode wrong data or allocate.
func TestPayloadCodecRejectsGarbage(t *testing.T) {
	good, err := appendPayload(nil, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for name, frame := range map[string][]byte{
		"truncated":               good[:len(good)-3],
		"trailing garbage":        append(append([]byte(nil), good...), 0),
		"unknown type id":         {250},
		"hostile float list":      hostileCountFrame,
		"hostile quant list":      {wireQuantSlice, 0xff, 0xff, 0xff, 0x7f},
		"hostile float count":     {wireFloats, 0xff, 0xff, 0xff, 0x7f},
		"hostile quant size":      {wireQuantized, 0xff, 0xff, 0xff, 0x7f},
		"list one entry short":    {wireFloatss, 3, 0, 0, 0, 0, 0},
		"list ends in an element": {wireFloatss, 2, 0, 0, 0, 1, 1, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8},
	} {
		if _, err := decodePayload(frame); err == nil {
			t.Fatalf("%s decoded", name)
		}
	}
	if _, err := appendPayload(nil, struct{ X int }{1}); err == nil {
		t.Fatalf("unsupported type encoded")
	}
}

// FuzzDecodePayload: whatever bytes a socket delivers, the decoder returns
// a value or an error — it never panics and never allocates past the
// frame — and an accepted value re-encodes to a frame that decodes to the
// same bytes again (compared as frames, so NaN payloads compare equal).
func FuzzDecodePayload(f *testing.F) {
	for _, v := range codecCases() {
		frame, err := appendPayload(nil, v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add(hostileCountFrame)
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := decodePayload(data)
		if err != nil {
			return
		}
		frame, err := appendPayload(nil, v)
		if err != nil {
			t.Fatalf("decoded %T does not encode: %v", v, err)
		}
		if got := payloadSize(v); got != len(frame) {
			t.Fatalf("%T: payloadSize %d, appendPayload wrote %d bytes", v, got, len(frame))
		}
		again, err := decodePayload(frame)
		if err != nil {
			t.Fatalf("re-encoded %T does not decode: %v", v, err)
		}
		if frame2, _ := appendPayload(nil, again); !bytes.Equal(frame, frame2) {
			t.Fatalf("%T: decode∘append is not the identity", v)
		}
	})
}

// exchangeRing is the test program both real backends run: every rank
// sends a tagged vector to its successor and returns the one it received
// from its predecessor.
func exchangeRing(p *Proc) *stream.Vector {
	n, rank := p.Size(), p.Rank()
	v := stream.NewSparse(64, []int32{int32(rank)}, []float64{float64(rank + 1)}, stream.OpSum)
	p.Send((rank+1)%n, 7, v, v.WireBytes())
	return p.Recv((rank-1+n)%n, 7).Payload.(*stream.Vector)
}

// TestGoroutineTransportExchange: the goroutine backend delivers correct
// values, deep-copied (no storage shared with the sender), and reports
// measured wall times.
func TestGoroutineTransportExchange(t *testing.T) {
	const P = 8
	w := NewWorld(P, simnet.Aries).UseGoroutineTransport()
	if w.Transport() != "goroutine" || !w.WallClock() {
		t.Fatalf("transport=%q wall=%v", w.Transport(), w.WallClock())
	}
	sent := make([]*stream.Vector, P)
	got := Run(w, func(p *Proc) *stream.Vector {
		n, rank := p.Size(), p.Rank()
		v := stream.NewSparse(64, []int32{int32(rank)}, []float64{float64(rank + 1)}, stream.OpSum)
		sent[rank] = v
		p.Send((rank+1)%n, 7, v, v.WireBytes())
		return p.Recv((rank-1+n)%n, 7).Payload.(*stream.Vector)
	})
	for r, v := range got {
		prev := (r - 1 + P) % P
		idx, val := v.Pairs()
		if len(idx) != 1 || idx[0] != int32(prev) || val[0] != float64(prev+1) {
			t.Fatalf("rank %d received %v/%v", r, idx, val)
		}
		if v == sent[prev] {
			t.Fatalf("rank %d received the sender's own object (no deep copy)", r)
		}
	}
	times := w.Times()
	for r, d := range times {
		if d <= 0 {
			t.Fatalf("rank %d wall time %g, want > 0", r, d)
		}
	}
	if w.MaxTime() <= 0 {
		t.Fatalf("MaxTime %g, want > 0", w.MaxTime())
	}
}

// TestGoroutineTransportTrace: traced events on the real backend carry
// measured timestamps (arrival ≥ send ≥ 0) and factor-1 contention, and
// concurrent EventsOf reads during the run are safe (the -race CI pass
// drives this).
func TestGoroutineTransportTrace(t *testing.T) {
	const P = 8
	w := NewWorld(P, simnet.Aries).UseGoroutineTransport()
	tr := w.EnableTrace()
	Run(w, func(p *Proc) int {
		n, rank := p.Size(), p.Rank()
		for round := 0; round < 50; round++ {
			p.Send((rank+1)%n, round, []float64{float64(round)}, 8)
			p.Recv((rank-1+n)%n, round)
			if own := tr.EventsOf(rank); len(own) != round+1 {
				panic(fmt.Sprintf("rank %d round %d: %d own events", rank, round, len(own)))
			}
		}
		return 0
	})
	events := tr.Events()
	if len(events) != P*50 {
		t.Fatalf("%d events, want %d", len(events), P*50)
	}
	for _, e := range events {
		if e.SendTime < 0 || e.Arrival < e.SendTime {
			t.Fatalf("event %+v: non-causal timestamps", e)
		}
		if e.NICFactor != 1 {
			t.Fatalf("event %+v: modeled contention on a real transport", e)
		}
	}
}

// TestTracerConcurrentAppendsAndReads hammers one tracer from many
// goroutines appending as different source ranks while readers scan — the
// sharded design must hold up under -race.
func TestTracerConcurrentAppendsAndReads(t *testing.T) {
	w := NewWorld(16, simnet.Aries)
	tr := w.EnableTrace()
	var wg sync.WaitGroup
	for src := 0; src < 16; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.record(TraceEvent{Src: src, Dst: (src + 1) % 16, Bytes: i})
				if got := tr.EventsOf(src); len(got) != i+1 {
					panic("own prefix not stable")
				}
			}
		}(src)
	}
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for i := 0; i < 50; i++ {
			tr.Events()
			tr.TotalBytes()
		}
	}()
	wg.Wait()
	rg.Wait()
	if got := len(tr.Events()); got != 16*200 {
		t.Fatalf("%d events, want %d", got, 16*200)
	}
}

// TestTCPLoopbackExchange: the TCP backend in its single-process loopback
// form delivers correct values over real sockets and reports wall times.
func TestTCPLoopbackExchange(t *testing.T) {
	const P = 4
	w, err := NewWorldTCP(P, simnet.Aries, TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Transport() != "tcp" || !w.WallClock() {
		t.Fatalf("transport=%q wall=%v", w.Transport(), w.WallClock())
	}
	got := Run(w, exchangeRing)
	for r, v := range got {
		prev := (r - 1 + P) % P
		idx, val := v.Pairs()
		if len(idx) != 1 || idx[0] != int32(prev) || val[0] != float64(prev+1) {
			t.Fatalf("rank %d received %v/%v", r, idx, val)
		}
	}
	// A second Run on the same world must work (connections are reused).
	Run(w, exchangeRing)
	if w.MaxTime() <= 0 {
		t.Fatalf("MaxTime %g, want > 0", w.MaxTime())
	}
}

// TestTCPMultiProcessWorlds splits one 6-rank world across two World
// instances in this process — exactly the multi-process protocol, minus
// fork/exec — and runs a collective exchange across the socket boundary.
func TestTCPMultiProcessWorlds(t *testing.T) {
	// Reserve a rendezvous port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rend := ln.Addr().String()
	ln.Close()

	const P = 6
	type worldOrErr struct {
		w   *World
		err error
	}
	mk := func(ranks []int, out chan<- worldOrErr) {
		w, err := NewWorldTCP(P, simnet.Aries, TCPConfig{Rendezvous: rend, LocalRanks: ranks})
		out <- worldOrErr{w, err}
	}
	chA, chB := make(chan worldOrErr, 1), make(chan worldOrErr, 1)
	go mk([]int{0, 1, 2}, chA)
	go mk([]int{3, 4, 5}, chB)
	ra, rb := <-chA, <-chB
	if ra.err != nil || rb.err != nil {
		t.Fatalf("world construction: %v / %v", ra.err, rb.err)
	}
	defer ra.w.Close()
	defer rb.w.Close()
	if got := ra.w.LocalRanks(); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("world A local ranks %v", got)
	}

	var wg sync.WaitGroup
	results := make([][]*stream.Vector, 2)
	for i, w := range []*World{ra.w, rb.w} {
		wg.Add(1)
		go func(i int, w *World) {
			defer wg.Done()
			results[i] = Run(w, exchangeRing)
		}(i, w)
	}
	wg.Wait()
	for half, res := range results {
		for _, r := range [][]int{{0, 1, 2}, {3, 4, 5}}[half] {
			v := res[r]
			prev := (r - 1 + P) % P
			idx, val := v.Pairs()
			if len(idx) != 1 || idx[0] != int32(prev) || val[0] != float64(prev+1) {
				t.Fatalf("half %d rank %d received %v/%v", half, r, idx, val)
			}
		}
		// Non-local ranks' times stay zero; local ones are measured.
		times := [2]*World{ra.w, rb.w}[half].Times()
		for r, d := range times {
			local := (half == 0) == (r <= 2)
			if local && d <= 0 {
				t.Fatalf("half %d rank %d: wall time %g", half, r, d)
			}
			if !local && d != 0 {
				t.Fatalf("half %d rank %d: non-local time %g, want 0", half, r, d)
			}
		}
	}
}

// TestTCPConfigValidation: malformed configurations come back as errors —
// NewWorldTCP returns one, so it must not panic on any of them — before a
// listener or goroutine is left behind.
func TestTCPConfigValidation(t *testing.T) {
	openFDs := func() int {
		ents, _ := os.ReadDir("/proc/self/fd")
		return len(ents)
	}
	goroutines, fds := runtime.NumGoroutine(), openFDs()
	for _, tc := range []struct {
		name string
		p    int
		cfg  TCPConfig
	}{
		{"partial world without rendezvous", 4, TCPConfig{LocalRanks: []int{0, 2}}},
		{"unsorted LocalRanks", 4, TCPConfig{Rendezvous: "127.0.0.1:0", LocalRanks: []int{2, 1}}},
		{"out-of-range rank", 4, TCPConfig{Rendezvous: "127.0.0.1:0", LocalRanks: []int{0, 7}}},
		{"zero world size", 0, TCPConfig{}},
		{"negative world size", -3, TCPConfig{}},
		{"empty hierarchy", 4, TCPConfig{Hierarchy: &simnet.Hierarchy{}}},
		{"invalid hierarchy level", 4, TCPConfig{Hierarchy: &simnet.Hierarchy{
			Levels: []simnet.Level{{GroupSize: 0, Profile: simnet.NVLinkLike}, {Profile: simnet.Aries}}}}},
	} {
		func() {
			defer func() {
				if e := recover(); e != nil {
					t.Errorf("%s: panicked instead of returning an error: %v", tc.name, e)
				}
			}()
			if w, err := NewWorldTCP(tc.p, simnet.Aries, tc.cfg); err == nil {
				w.Close()
				t.Errorf("%s accepted", tc.name)
			}
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines || openFDs() > fds {
		if time.Now().After(deadline) {
			t.Fatalf("rejected configurations leaked: goroutines %d → %d, fds %d → %d",
				goroutines, runtime.NumGoroutine(), fds, openFDs())
		}
		time.Sleep(time.Millisecond)
	}
}
