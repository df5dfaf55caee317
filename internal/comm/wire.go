package comm

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

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

// decodePool is the storage one local rank's TCP readers decode into:
// sparse and dense vectors through a stream.Scratch, quantized blocks, and
// block lists kept in the interface value they were sent or received in,
// so a list is reused without being boxed again. The rank refills it with
// Proc.Recycle — every payload it has sent (once framed) or consumed and no
// longer references — and the readers draw from it, so under symmetric
// collectives it settles: sends put back what decodes take. A mutex guards
// it (the rank and its readers share it), every free list is bounded by
// decodePoolCap, and a nil pool decodes into fresh storage.
type decodePool struct {
	mu     sync.Mutex
	vecs   stream.Scratch
	quants []*quant.Quantized
	// One free list per block-list type, so that a surplus of one cannot
	// crowd out another; each holds lists with their entries cleared.
	floatLists, quantLists, vectorLists []any
}

// decodePoolCap bounds each of the pool's quantized-block and list free
// lists, as stream.Scratch bounds its own.
const decodePoolCap = 64

// put takes back a payload its rank no longer references. Types the pool
// does not decode into are dropped, and nothing is allocated: a list is
// kept in the interface value it arrived in, with its entries cleared so
// that the blocks they named are not pinned.
func (dp *decodePool) put(payload any) {
	dp.mu.Lock()
	dp.release(payload)
	dp.mu.Unlock()
}

// release is put under the held lock; a nil pool drops the payload.
func (dp *decodePool) release(payload any) {
	if dp == nil {
		return
	}
	switch x := payload.(type) {
	case *stream.Vector:
		dp.vecs.Release(x)
	case *quant.Quantized:
		if x != nil && len(dp.quants) < decodePoolCap {
			dp.quants = append(dp.quants, x)
		}
	case [][]float64:
		keepList(&dp.floatLists, payload, x)
	case []*quant.Quantized:
		keepList(&dp.quantLists, payload, x)
	case []*stream.Vector:
		keepList(&dp.vectorLists, payload, x)
	}
}

// keepList adds the boxed list payload, whose slice is list, to free.
func keepList[T any](free *[]any, payload any, list []T) {
	if list != nil && len(*free) < decodePoolCap {
		clear(list)
		*free = append(*free, payload)
	}
}

// freeLists returns the pool's free list for the list payload type id; nil
// for a nil pool.
func (dp *decodePool) freeLists(id byte) *[]any {
	if dp == nil {
		return nil
	}
	switch id {
	case wireFloatss:
		return &dp.floatLists
	case wireQuantSlice:
		return &dp.quantLists
	default:
		return &dp.vectorLists
	}
}

// takeList returns a zeroed list of count entries as its interface value
// and its slice: one of that length from free (nil: none), or a new one.
func takeList[T any](free *[]any, count int) (any, []T) {
	if free != nil {
		l := *free
		for i, box := range l {
			if list := box.([]T); len(list) == count {
				last := len(l) - 1
				l[i] = l[last]
				l[last] = nil
				*free = l[:last]
				return box, list
			}
		}
	}
	list := make([]T, count)
	return list, list
}

// decode reverses appendPayload, consuming the whole buffer, into storage
// drawn from the pool. A rejected buffer returns an error and puts back
// whatever its decode had drawn.
func (dp *decodePool) decode(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("comm: empty payload frame")
	}
	if dp != nil {
		dp.mu.Lock()
		defer dp.mu.Unlock()
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
		xs, n, err := decodeFloats(dp, body)
		if err != nil {
			return nil, err
		}
		return xs, checkDrained(body, n)
	case wireFloatss:
		return decodeList(dp, id, body, decodeFloats)
	case wireVector:
		return decodeWhole(dp, body, decodeVector)
	case wireQuantized:
		return decodeWhole(dp, body, decodeQuantized)
	case wireQuantSlice:
		return decodeList(dp, id, body, decodeQuantized)
	case wireVectors:
		return decodeList(dp, id, body, decodeVector)
	default:
		return nil, fmt.Errorf("comm: unknown payload type id %d", id)
	}
}

// decodeWhole decodes one element that must fill body; an element
// followed by trailing bytes is put back.
func decodeWhole[T any](dp *decodePool, body []byte, elem func(*decodePool, []byte) (T, int, error)) (any, error) {
	x, n, err := elem(dp, body)
	if err != nil {
		return nil, err
	}
	if err := checkDrained(body, n); err != nil {
		dp.release(any(x))
		return nil, err
	}
	return x, nil
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
// entries stay the zero T. The list (of payload type id) and its elements
// are drawn from dp, and a rejected body puts back every one decoded so far.
func decodeList[T any](dp *decodePool, id byte, body []byte, elem func(*decodePool, []byte) (T, int, error)) (any, error) {
	if len(body) < 4 {
		return nil, errTruncated
	}
	count := int(binary.LittleEndian.Uint32(body))
	off := 4
	if count > len(body)-off { // every entry takes at least its presence byte
		return nil, errTruncated
	}
	box, out := takeList[T](dp.freeLists(id), count)
	err := func() error {
		for i := range out {
			if off >= len(body) {
				return errTruncated
			}
			present := body[off]
			off++
			if present == 0 {
				continue
			}
			x, n, err := elem(dp, body[off:])
			if err != nil {
				return err
			}
			out[i] = x
			off += n
		}
		return checkDrained(body, off)
	}()
	if err != nil {
		for _, x := range out {
			dp.release(any(x))
		}
		dp.release(box)
		return nil, err
	}
	return box, nil
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
// bytes consumed. Float slices are not pooled: the storage is fresh.
func decodeFloats(_ *decodePool, data []byte) ([]float64, int, error) {
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

// decodeQuantized reads one appendQuantized block into a pooled vector,
// returning it and the bytes consumed; a rejected block leaves the pool as
// it was.
func decodeQuantized(dp *decodePool, data []byte) (*quant.Quantized, int, error) {
	if len(data) < 4 {
		return nil, 0, errTruncated
	}
	n := int(binary.LittleEndian.Uint32(data))
	if len(data)-4 < n {
		return nil, 0, errTruncated
	}
	var dst *quant.Quantized
	if dp != nil && len(dp.quants) > 0 {
		last := len(dp.quants) - 1
		dst = dp.quants[last]
		dp.quants[last] = nil
		dp.quants = dp.quants[:last]
	}
	q, err := quant.UnmarshalInto(dst, data[4:4+n])
	if err != nil {
		dp.release(dst) // UnmarshalInto leaves a rejected dst untouched
		return nil, 0, err
	}
	return q, 4 + n, nil
}

// decodeVector reads one stream vector's wire form into pooled storage.
func decodeVector(dp *decodePool, data []byte) (*stream.Vector, int, error) {
	var sc *stream.Scratch
	if dp != nil {
		sc = &dp.vecs
	}
	return stream.DecodeWireInto(data, sc)
}
