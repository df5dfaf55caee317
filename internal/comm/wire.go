package comm

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/quant"
	"repro/internal/stream"
)

// Payload codec: the serialization layer of the TCP transport, which frames
// exactly these bytes onto sockets. The in-process backends (simulator,
// goroutine) hand payloads over by reference and never come here.
//
// Every payload type a collective sends is supported: nil (barriers),
// dense slices, sparse stream vectors (reconstructed field-exact via
// stream.AppendWire/DecodeWire, which is what keeps results bit-identical
// across transports), quantized vectors (quant.AppendMarshal/Unmarshal), and the
// block allgather's rank-indexed lists of dense, quantized or sparse-stream
// blocks, whose absent entries stay nil.
//
// Wire form (little endian): one type-id byte followed by a type-specific
// body. A message frame carries exactly one payload, so decoders consume
// the whole buffer. Frames arrive from sockets, so the decoder trusts no
// count in them: every element count is checked against the bytes that
// remain before anything is allocated from it.

// Payload type ids.
const (
	wireNil        byte = 0
	wireFloats     byte = 1 // []float64
	wireFloatss    byte = 2 // [][]float64 (nil inner slices preserved)
	wireVector     byte = 3 // *stream.Vector
	wireVectorNil  byte = 4 // typed nil *stream.Vector
	wireQuantized  byte = 5 // *quant.Quantized
	wireQuantNil   byte = 6 // typed nil *quant.Quantized
	wireQuantSlice byte = 7 // []*quant.Quantized (nil entries preserved)
	wireVectors    byte = 8 // []*stream.Vector (nil entries preserved)
)

// appendPayload serializes one payload (type id + body) onto buf.
func appendPayload(buf []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(buf, wireNil), nil
	case []float64:
		return appendFloats(append(buf, wireFloats), x), nil
	case [][]float64:
		return appendList(append(buf, wireFloatss), x, hasFloats, appendFloats), nil
	case *stream.Vector:
		if x == nil {
			return append(buf, wireVectorNil), nil
		}
		return x.AppendWire(append(buf, wireVector)), nil
	case *quant.Quantized:
		if x == nil {
			return append(buf, wireQuantNil), nil
		}
		return appendQuantized(append(buf, wireQuantized), x), nil
	case []*quant.Quantized:
		return appendList(append(buf, wireQuantSlice), x, hasQuantized, appendQuantized), nil
	case []*stream.Vector:
		return appendList(append(buf, wireVectors), x, hasVector, appendVector), nil
	default:
		return nil, fmt.Errorf("comm: no payload codec for %T", v)
	}
}

// payloadSize returns the exact number of bytes appendPayload appends for
// v, arm for arm, so a frame is allocated once at its final size instead
// of growing through append. A type without a codec counts as its id byte;
// appendPayload is what reports it.
func payloadSize(v any) int {
	switch x := v.(type) {
	case []float64:
		return 1 + floatsSize(x)
	case [][]float64:
		return 1 + listSize(x, hasFloats, floatsSize)
	case *stream.Vector:
		if x == nil {
			return 1
		}
		return 1 + x.WireSize()
	case *quant.Quantized:
		if x == nil {
			return 1
		}
		return 1 + quantizedSize(x)
	case []*quant.Quantized:
		return 1 + listSize(x, hasQuantized, quantizedSize)
	case []*stream.Vector:
		return 1 + listSize(x, hasVector, (*stream.Vector).WireSize)
	default:
		return 1
	}
}

// hasFloats, hasQuantized and hasVector say whether a block-list entry is
// present.
func hasFloats(xs []float64) bool          { return xs != nil }
func hasQuantized(q *quant.Quantized) bool { return q != nil }
func hasVector(v *stream.Vector) bool      { return v != nil }

// decodePayload reverses appendPayload, consuming the whole buffer.
func decodePayload(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("comm: empty payload frame")
	}
	id, body := data[0], data[1:]
	switch id {
	case wireNil:
		return nil, checkDrained(body, 0)
	case wireVectorNil:
		return (*stream.Vector)(nil), checkDrained(body, 0)
	case wireQuantNil:
		return (*quant.Quantized)(nil), checkDrained(body, 0)
	case wireFloats:
		xs, n, err := decodeFloats(body)
		if err != nil {
			return nil, err
		}
		return xs, checkDrained(body, n)
	case wireFloatss:
		return decodeList(body, decodeFloats)
	case wireVector:
		v, n, err := stream.DecodeWire(body)
		if err != nil {
			return nil, err
		}
		return v, checkDrained(body, n)
	case wireQuantized:
		q, n, err := decodeQuantized(body)
		if err != nil {
			return nil, err
		}
		return q, checkDrained(body, n)
	case wireQuantSlice:
		return decodeList(body, decodeQuantized)
	case wireVectors:
		return decodeList(body, stream.DecodeWire)
	default:
		return nil, fmt.Errorf("comm: unknown payload type id %d", id)
	}
}

// appendList writes a rank-indexed list: a uint32 length, then per entry a
// presence byte followed, when present, by the element.
func appendList[T any](buf []byte, list []T, present func(T) bool, elem func([]byte, T) []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(list)))
	for _, x := range list {
		if !present(x) {
			buf = append(buf, 0)
			continue
		}
		buf = elem(append(buf, 1), x)
	}
	return buf
}

// listSize is the length appendList writes.
func listSize[T any](list []T, present func(T) bool, elem func(T) int) int {
	size := 4 + len(list)
	for _, x := range list {
		if present(x) {
			size += elem(x)
		}
	}
	return size
}

// decodeList reads a whole appendList body; elem decodes one element from
// the front of its argument and returns the bytes it consumed. Absent
// entries stay the zero T.
func decodeList[T any](body []byte, elem func([]byte) (T, int, error)) ([]T, error) {
	if len(body) < 4 {
		return nil, errTruncated
	}
	count := int(binary.LittleEndian.Uint32(body))
	off := 4
	if count > len(body)-off { // every entry takes at least its presence byte
		return nil, errTruncated
	}
	out := make([]T, count)
	for i := range out {
		if off >= len(body) {
			return nil, errTruncated
		}
		present := body[off]
		off++
		if present == 0 {
			continue
		}
		x, n, err := elem(body[off:])
		if err != nil {
			return nil, err
		}
		out[i] = x
		off += n
	}
	return out, checkDrained(body, off)
}

var errTruncated = fmt.Errorf("comm: truncated payload frame")

// checkDrained rejects trailing garbage after a decoded payload.
func checkDrained(body []byte, consumed int) error {
	if consumed != len(body) {
		return fmt.Errorf("comm: payload frame has %d trailing bytes", len(body)-consumed)
	}
	return nil
}

// appendFloats writes a length-prefixed float64 slice.
func appendFloats(buf []byte, xs []float64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(xs)))
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	return buf
}

// floatsSize is the length appendFloats writes.
func floatsSize(xs []float64) int { return 4 + 8*len(xs) }

// decodeFloats reads a length-prefixed float64 slice, returning it and the
// bytes consumed.
func decodeFloats(data []byte) ([]float64, int, error) {
	if len(data) < 4 {
		return nil, 0, errTruncated
	}
	count := int(binary.LittleEndian.Uint32(data))
	size := 4 + 8*count
	if count < 0 || len(data) < size {
		return nil, 0, errTruncated
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[4+8*i:]))
	}
	return out, size, nil
}

// appendVector writes a stream vector in its self-describing wire form.
func appendVector(buf []byte, v *stream.Vector) []byte { return v.AppendWire(buf) }

// appendQuantized writes a quantized vector as a length-prefixed
// quant.AppendMarshal block, marshalled straight into the frame.
func appendQuantized(buf []byte, q *quant.Quantized) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(q.MarshalSize()))
	return q.AppendMarshal(buf)
}

// quantizedSize is the length appendQuantized writes.
func quantizedSize(q *quant.Quantized) int { return 4 + q.MarshalSize() }

// decodeQuantized reads one appendQuantized block, returning the vector
// and the bytes consumed.
func decodeQuantized(data []byte) (*quant.Quantized, int, error) {
	if len(data) < 4 {
		return nil, 0, errTruncated
	}
	n := int(binary.LittleEndian.Uint32(data))
	if len(data)-4 < n {
		return nil, 0, errTruncated
	}
	q, err := quant.Unmarshal(data[4 : 4+n])
	return q, 4 + n, err
}
