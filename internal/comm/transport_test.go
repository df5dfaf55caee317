package comm

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
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
		[]*stream.Vector{sv, nil, dv},
		[]*stream.Vector{nil, nil, stream.NewSparse(7, nil, nil, stream.OpSum), sv, nil},
		[]*stream.Vector{},
	}
}

// decodePayload decodes into fresh storage: the nil pool, as the decoder
// ran before pools existed.
func decodePayload(data []byte) (any, error) {
	return (*decodePool)(nil).decode(data)
}

// copyPayload round-trips a payload through the codec the way a TCP message
// travels: one exact-size frame, then the decoded value, which shares no
// storage with the original.
func copyPayload(v any) (any, error) {
	buf, err := appendPayload(make([]byte, 0, payloadSize(v)), v)
	if err != nil {
		return nil, err
	}
	return decodePayload(buf)
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

// TestCopyPayloadAllocationBudget: encoding and decoding a 1 MiB sparse
// vector, as a TCP message is, allocates its exact-size frame and the
// decoded copy — two bytes per encoded byte in a handful of allocations —
// not a buffer regrown through dozens of appends (6 bytes per byte in 40
// allocations).
func TestCopyPayloadAllocationBudget(t *testing.T) {
	v := megabyteSparse()
	allocs, bytesPer := allocationsPer(20, func() {
		if _, err := copyPayload(v); err != nil {
			t.Fatal(err)
		}
	})
	bytesPer /= float64(payloadSize(v))
	if bytesPer > 2.1 || allocs > 6 {
		t.Fatalf("copyPayload allocated %.2f bytes per encoded byte in %v allocations, budget 2.1 in 6", bytesPer, allocs)
	}
}

// allocationsPer returns the allocations and the bytes allocated by one
// call of f. The count comes from testing.AllocsPerRun; the bytes from
// MemStats, which is process-wide — so f should allocate enough, or the
// budget leave room enough, that a stray allocation elsewhere is noise.
func allocationsPer(runs int, f func()) (allocs, allocated float64) {
	allocs = testing.AllocsPerRun(runs, f)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
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
		"hostile vector list":     {wireVectors, 0xff, 0xff, 0xff, 0x7f},
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
// Every input is decoded twice more, through pools of stale storage of the
// wrong sizes (stalePool): the pooled decode must give the same value bit
// for bit, or the same error; a rejected frame must leave every buffer it
// borrowed in the pool; and an accepted value must share no storage with
// what the pool still holds, so decoding the same bytes again through that
// pool leaves the first value as it was.
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
		for _, dp := range []*decodePool{stalePool(false), stalePool(true)} {
			checkPooledDecode(t, dp, data, v, err)
		}
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

// checkPooledDecode decodes data through dp and holds the result to the
// fresh decode's value v or error err (see FuzzDecodePayload).
func checkPooledDecode(t *testing.T, dp *decodePool, data []byte, v any, err error) {
	t.Helper()
	held := dp.held()
	pv, perr := dp.decode(data)
	if (err == nil) != (perr == nil) || err != nil && err.Error() != perr.Error() {
		t.Fatalf("fresh decode: %v; pooled decode: %v", err, perr)
	}
	if perr != nil {
		if now := dp.held(); now < held {
			t.Fatalf("a rejected frame took %d of the pool's %d buffers with it", held-now, held)
		}
		return
	}
	want, _ := appendPayload(nil, v)
	got, gerr := appendPayload(nil, pv)
	if fmt.Sprintf("%T", pv) != fmt.Sprintf("%T", v) || gerr != nil || !bytes.Equal(got, want) {
		t.Fatalf("pooled decode gave %T %x (%v), fresh %T %x", pv, got, gerr, v, want)
	}
	if _, err := dp.decode(data); err != nil {
		t.Fatalf("the same bytes decoded once through the pool and then failed: %v", err)
	}
	if again, _ := appendPayload(nil, pv); !bytes.Equal(again, want) {
		t.Fatalf("%T: a second decode through the pool overwrote the first value", pv)
	}
}

// stalePool returns a decode pool holding storage of the wrong sizes, full
// of values no decode should let through: vectors sparse and dense, small
// and large quantized blocks, and lists of every type at lengths from 0 to
// 6 (their entries cleared on the way in, as put does). varied selects a
// second, wider spread of sizes, so that fits and near misses both occur.
func stalePool(varied bool) *decodePool {
	rng := rand.New(rand.NewSource(5))
	junk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 1e300
		}
		return xs
	}
	sizes := []int{0, 1, 3, 40}
	if varied {
		sizes = []int{2, 5, 7, 50, 200}
	}
	dp := &decodePool{}
	for _, nnz := range sizes {
		idx := make([]int32, nnz)
		for i := range idx {
			idx[i] = int32(2*i + 1)
		}
		dp.put(stream.NewSparse(2*nnz+2, idx, junk(nnz), stream.OpProd))
		dp.put(stream.NewDense(junk(nnz+1), stream.OpMax))
		dp.put(quant.Encode(junk(7*nnz+1), quant.Config{Bits: 8, Bucket: 3, Norm: quant.NormL2}, rng))
	}
	for n := range 7 {
		dp.put(make([][]float64, n))
		dp.put(make([]*quant.Quantized, n))
		dp.put(make([]*stream.Vector, n))
	}
	return dp
}

// held counts the buffers, headers, quantized blocks and lists dp holds.
func (dp *decodePool) held() int {
	return dp.vecs.Buffers() + len(dp.quants) + len(dp.floatLists) + len(dp.quantLists) + len(dp.vectorLists)
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
// values by handover — the receiver holds the sender's own object, as on
// the simulator — and reports measured wall times.
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
		if v != sent[prev] {
			t.Fatalf("rank %d received a copy, want the sender's own object", r)
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

// megabyteSparse is a sparse vector whose wire form is 1 MiB.
func megabyteSparse() *stream.Vector {
	nnz := (1 << 20) / 12
	idx := make([]int32, nnz)
	val := make([]float64, nnz)
	for i := range idx {
		idx[i], val[i] = int32(2*i), float64(i)
	}
	return stream.NewSparse(2*nnz, idx, val, stream.OpSum)
}

// TestGoroutineSendAllocationBudget: a goroutine-world Send+Recv hands the
// payload over, so moving a 1 MiB sparse vector costs at most one
// allocation and under a hundredth of a byte allocated per payload byte.
func TestGoroutineSendAllocationBudget(t *testing.T) {
	v := megabyteSparse()
	w := NewWorld(2, simnet.Aries).UseGoroutineTransport()
	Run(w, func(p *Proc) int {
		if p.Rank() != 0 {
			return 0
		}
		allocs, bytesPer := allocationsPer(50, func() {
			p.Send(0, 3, v, v.WireBytes())
			if p.Recv(0, 3).Payload.(*stream.Vector) != v {
				panic("payload not handed over")
			}
		})
		bytesPer /= float64(payloadSize(v))
		if allocs > 1 || bytesPer >= 0.01 {
			t.Errorf("Send+Recv allocated %.4f bytes per payload byte in %v allocations, budget 0.01 in 1", bytesPer, allocs)
		}
		return 0
	})
}

// collectable reports whether the object whose finalizer closes done gets
// collected within a few GC cycles.
func collectable(done <-chan struct{}) bool {
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-done:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}

// finalized returns a payload and a channel closed once it is collected.
func finalized() (*stream.Vector, <-chan struct{}) {
	done := make(chan struct{})
	v := stream.NewSparse(64, []int32{1}, []float64{1}, stream.OpSum)
	runtime.SetFinalizer(v, func(*stream.Vector) { close(done) })
	return v, done
}

// TestMailboxReleasesPayloads: a handed-over payload is the sender's own
// buffer, so the mailbox must not pin it past its release — neither from
// the slot a matched message vacated (checked mid-Run, queue drained and
// refilled around it) nor from a straggler nobody received (checked after
// Run, with the world still alive).
func TestMailboxReleasesPayloads(t *testing.T) {
	w := NewWorld(2, simnet.Aries).UseGoroutineTransport()
	var straggler <-chan struct{}
	Run(w, func(p *Proc) int {
		if p.Rank() != 0 {
			return 0
		}
		v, received := finalized()
		p.Send(0, 1, nil, 0)
		p.Send(0, 2, v, v.WireBytes())
		v = nil
		p.Recv(0, 1) // the payload's message shifts down a slot
		p.Recv(0, 2) // received and dropped
		if !collectable(received) {
			t.Errorf("a received and dropped payload is still reachable from the mailbox")
		}
		v, straggler = finalized()
		p.Send(0, 9, v, v.WireBytes()) // never received
		return 0
	})
	if !collectable(straggler) {
		t.Errorf("a straggler's payload outlived the Run that drained it")
	}
	runtime.KeepAlive(w)
}

// TestGoroutineTransportTrace: the send hook on the real backend reports
// measured timestamps (arrival ≥ send ≥ 0) and factor-1 contention, and is
// called synchronously on the sending rank — its own sends are all
// reported by the time Send returns, while the other ranks' hook calls run
// concurrently (the -race CI pass drives this).
func TestGoroutineTransportTrace(t *testing.T) {
	const P = 8
	w := NewWorld(P, simnet.Aries).UseGoroutineTransport()
	l := logSends(w)
	Run(w, func(p *Proc) int {
		n, rank := p.Size(), p.Rank()
		for round := 0; round < 50; round++ {
			p.Send((rank+1)%n, round, []float64{float64(round)}, 8)
			if own := l.of(rank); len(own) != round+1 {
				panic(fmt.Sprintf("rank %d round %d: %d own events", rank, round, len(own)))
			}
			p.Recv((rank-1+n)%n, round)
		}
		return 0
	})
	events := l.all()
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
	wait := LeakCheck()
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
	if err := wait(2 * time.Second); err != nil {
		t.Fatalf("rejected configurations leaked: %v", err)
	}
}
