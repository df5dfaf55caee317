package comm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/quant"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// msgFrame builds one message frame as sendMsg does: length prefix, message
// header, payload codec bytes.
func msgFrame(src, tag, modeled int, codec []byte) []byte {
	return append(appendMsgHeader(nil, msgHeaderBytes+len(codec), src, tag, modeled), codec...)
}

// framesOf is a frame reader over an in-memory byte stream.
func framesOf(stream []byte) *frameReader {
	return &frameReader{br: bufio.NewReader(bytes.NewReader(stream))}
}

// TestReadFrameHostilePrefix: four bytes claiming the largest legal frame,
// then EOF, must cost the reader its first chunk and an error — not the
// gigabyte the prefix names, and not a buffer it would then keep.
func TestReadFrameHostilePrefix(t *testing.T) {
	prefix := binary.LittleEndian.AppendUint32(nil, maxFrameBytes)
	for name, stream := range map[string][]byte{
		"prefix then EOF":        prefix,
		"prefix then a few body": append(append([]byte(nil), prefix...), make([]byte, 1000)...),
		"over the limit":         binary.LittleEndian.AppendUint32(nil, maxFrameBytes+1),
		"half a prefix":          prefix[:2],
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		body, err := framesOf(stream).next()
		runtime.ReadMemStats(&after)
		if err == nil || err == io.EOF {
			t.Errorf("%s: got a %d-byte body and error %v, want a real error", name, len(body), err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: reader allocated %d bytes, want under 1 MiB", name, got)
		}
	}
	if _, err := framesOf(nil).next(); err != io.EOF {
		t.Errorf("empty stream: error %v, want the bare io.EOF of a clean close", err)
	}
}

// TestFrameReaderReusesAndBoundsItsBuffer: frames that fit the held buffer
// are read into it; a larger one grows it; one past the retention ceiling is
// returned in storage of its own while the reader keeps what it held within
// the ceiling, and the next frame that large costs one allocation of its
// size, not a fresh climb from the first chunk.
func TestFrameReaderReusesAndBoundsItsBuffer(t *testing.T) {
	sizes := []int{100, 40, frameFirstChunk + 1, 5 * frameFirstChunk, 10, 2 * maxRetainedFrameBytes, 7, 2 * maxRetainedFrameBytes}
	var wire []byte
	for i, n := range sizes {
		wire = append(wire, msgFrame(1, i, n, bytes.Repeat([]byte{byte(i + 1)}, n))...)
	}
	fr := framesOf(wire)
	for i, n := range sizes {
		held := fr.buf
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		body, err := fr.next()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		tag, modeled, codec, ok := parseMsg(body)
		if !ok || tag != i || modeled != n || !bytes.Equal(codec, bytes.Repeat([]byte{byte(i + 1)}, n)) {
			t.Fatalf("frame %d: parsed tag=%d modeled=%d ok=%v, %d payload bytes", i, tag, modeled, ok, len(codec))
		}
		if len(body) <= cap(held) && &body[0] != &held[:1][0] {
			t.Fatalf("frame %d: %d bytes fit the %d-byte buffer but were read elsewhere", i, len(body), cap(held))
		}
		if cap(fr.buf) > maxRetainedFrameBytes {
			t.Fatalf("frame %d: retained %d bytes, ceiling %d", i, cap(fr.buf), maxRetainedFrameBytes)
		}
		if cap(fr.buf) < cap(held) {
			t.Fatalf("frame %d: the held buffer shrank from %d to %d bytes", i, cap(held), cap(fr.buf))
		}
		if i == len(sizes)-1 {
			if got := after.TotalAlloc - before.TotalAlloc; got > uint64(len(body))+frameFirstChunk {
				t.Fatalf("frame %d: a second %d-byte frame allocated %d bytes", i, len(body), got)
			}
		}
	}
}

// FuzzReadFrame drives the frame reader below decodePayload — length
// prefix, growth of the reused body buffer, message header — with
// arbitrary byte streams. It must never panic; the buffer it holds never
// exceeds twice the bytes supplied plus the first chunk (growth doubles
// from what has arrived); and the well-formed stream built from the same
// bytes reads back frame for frame through one reused buffer.
func FuzzReadFrame(f *testing.F) {
	f.Add(msgFrame(3, 7, 99, []byte{wireNil}), uint8(3))
	f.Add(binary.LittleEndian.AppendUint32(nil, maxFrameBytes), uint8(1))
	f.Add(append(msgFrame(0, -1, 0, nil), 0xff, 0xff, 0xff, 0xff), uint8(200))
	f.Add(bytes.Repeat([]byte{0x15, 0, 0, 0, frameMsg}, 40), uint8(17))
	f.Fuzz(func(t *testing.T, data []byte, cut uint8) {
		fr := framesOf(data)
		for {
			body, err := fr.next()
			if err != nil {
				break
			}
			if cap(body) > 2*len(data)+frameFirstChunk {
				t.Fatalf("a %d-byte stream grew the body buffer to %d", len(data), cap(body))
			}
			parseMsg(body)
		}

		// Cut the same bytes into payloads and frame them properly.
		step := 1 + int(cut)
		var wire []byte
		var payloads [][]byte
		for off := 0; off < len(data); off += step {
			payloads = append(payloads, data[off:min(off+step, len(data))])
			wire = append(wire, msgFrame(len(payloads), -len(payloads), off, payloads[len(payloads)-1])...)
		}
		fr = framesOf(wire)
		for i, want := range payloads {
			body, err := fr.next()
			if err != nil {
				t.Fatalf("well-formed frame %d of %d: %v", i, len(payloads), err)
			}
			tag, modeled, codec, ok := parseMsg(body)
			if !ok || tag != -(i+1) || modeled != i*step || !bytes.Equal(codec, want) {
				t.Fatalf("well-formed frame %d: tag=%d modeled=%d ok=%v payload %x, want %x", i, tag, modeled, ok, codec, want)
			}
		}
		if _, err := fr.next(); err != io.EOF {
			t.Fatalf("after the last frame: %v, want io.EOF", err)
		}
	})
}

// aliasCases returns, for every codec arm that carries storage, two
// payloads of identical wire size and different contents: the second one
// lands in the frame buffers exactly where the first one was.
func aliasCases() [][2]any {
	floats := func(seed float64, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = seed + float64(i)
		}
		return xs
	}
	sparse := func(seed float64) *stream.Vector {
		idx := make([]int32, 300)
		for i := range idx {
			idx[i] = int32(3*i + int(seed))
		}
		return stream.NewSparse(1000, idx, floats(seed, 300), stream.OpSum)
	}
	dense := func(seed float64) *stream.Vector { return stream.NewDense(floats(seed, 500), stream.OpSum) }
	qc := quant.Config{Bits: 4, Bucket: 64, Norm: quant.NormMax}
	quantized := func(seed float64) *quant.Quantized {
		return quant.Encode(floats(seed, 700), qc, rand.New(rand.NewSource(int64(seed))))
	}
	return [][2]any{
		{floats(1, 400), floats(2, 400)},
		{[][]float64{floats(1, 90), nil, floats(5, 70)}, [][]float64{floats(2, 90), nil, floats(9, 70)}},
		{sparse(1), sparse(2)},
		{dense(1), dense(2)},
		{quantized(1), quantized(2)},
		{[]*quant.Quantized{quantized(1), nil, quantized(3)}, []*quant.Quantized{quantized(2), nil, quantized(4)}},
		{[]*stream.Vector{sparse(1), nil, dense(1)}, []*stream.Vector{sparse(2), nil, dense(2)}},
	}
}

// TestTCPPayloadsDoNotAliasFrames: the sender's write buffer and the
// connection's body buffer are both reused by the next message, so a
// delivered payload must own all its storage. For every codec arm, two
// back-to-back messages of equal size and different contents cross one
// connection; once the second has been received, the first must still
// encode to the bytes it was sent as.
func TestTCPPayloadsDoNotAliasFrames(t *testing.T) {
	w, err := NewWorldTCP(2, simnet.Aries, TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i, c := range aliasCases() {
		first, _ := appendPayload(nil, c[0])
		second, _ := appendPayload(nil, c[1])
		if len(first) != len(second) || bytes.Equal(first, second) {
			t.Fatalf("case %d (%T): the pair must differ in content only (%d vs %d bytes)", i, c[0], len(first), len(second))
		}
		Run(w, func(p *Proc) int {
			if p.Rank() == 0 {
				p.Send(1, 1, c[0], len(first))
				p.Send(1, 2, c[1], len(second))
				return 0
			}
			got1 := p.Recv(0, 1).Payload
			got2 := p.Recv(0, 2).Payload
			for j, got := range []any{got1, got2} {
				frame, err := appendPayload(nil, got)
				if err != nil || !bytes.Equal(frame, [][]byte{first, second}[j]) {
					t.Errorf("case %d (%T): message %d changed after the next one arrived (err %v)", i, c[0], j+1, err)
				}
			}
			return 0
		})
	}
}

// TestTCPFramesAreReused: in steady state a loopback TCP message whose
// receiver recycles it allocates nothing — the frame it was written from
// and the body it was read into are the connection's own, and the decoded
// copy is built in storage an earlier arrival was recycled into. Budget:
// 0.01 bytes allocated per wire byte and half an allocation per message
// (1.01 and 3 before decoding reused storage: the copy's header, indices
// and values; 3.02 and 6.1 before frames were reused), both counted
// process-wide over a ping-pong of 1 MiB sparse vectors in which each
// side recycles what it received once it has sent it back or read it, so
// sender, reader goroutine and receiver are all in the count. The ponging
// side recycles only after its Send returns, which can lose the race with
// its reader decoding the next ping; two priming messages put a second
// buffer into its circulation so that the race costs nothing.
func TestTCPFramesAreReused(t *testing.T) {
	const runs = 30
	v := megabyteSparse()
	w, err := NewWorldTCP(2, simnet.Aries, TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	Run(w, func(p *Proc) int {
		if p.Rank() == 1 {
			a, b := p.Recv(0, 5).Payload, p.Recv(0, 5).Payload
			p.Recycle(a)
			p.Recycle(b)
			for i := 0; i < 2*runs+1; i++ { // allocationsPer calls its function 2·runs+1 times
				in := p.Recv(0, 3).Payload
				p.Send(0, 4, in, v.WireBytes())
				p.Recycle(in)
			}
			return 0
		}
		pingPong := func() {
			p.Send(1, 3, v, v.WireBytes())
			p.Recycle(p.Recv(1, 4).Payload)
		}
		p.Send(1, 5, v, v.WireBytes())
		p.Send(1, 5, v, v.WireBytes())
		allocs, bytesPer := allocationsPer(runs, pingPong)
		allocs /= 2 // two messages per ping-pong
		bytesPer /= 2 * float64(frameLenBytes+msgHeaderBytes+payloadSize(v))
		t.Logf("%.3f bytes allocated per wire byte, %.2f allocations per message", bytesPer, allocs)
		if bytesPer > 0.01 || allocs > 0.5 {
			t.Errorf("a TCP message allocated %.3f bytes per wire byte in %.1f allocations, budget 0.01 in 0.5", bytesPer, allocs)
		}
		return 0
	})
}
