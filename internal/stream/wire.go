package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Self-describing wire form (little endian), the one serialization of a
// Vector — the comm transports' payload codec frames it:
//
//	byte 0        format flag: 0 = sparse, 1 = dense
//	bytes 1..4    uint32 dimension N
//	byte 5        operation (Op)
//	byte 6        value-byte accounting (4 or 8)
//	bytes 7..10   uint32 δ threshold
//	bytes 11..14  uint32 nnz (sparse) or unused (dense)
//	sparse:       nnz × (uint32 index, float64 bits)
//	dense:        N × float64 bits
//
// The paper's modeled wire format (HeaderBytes, IndexBytes, WireBytes) is
// what the collectives charge for a message; it carries neither the
// dimension, the operation, nor the δ/value-byte settings, because the
// collectives know all of them. This form carries them so that a vector is
// reconstructed field-exact on another process, which is what keeps results
// bit-identical across transports: a decoded vector must densify at
// exactly the same δ, charge exactly the same wire bytes, and carry
// exactly the same representation as the original.

const (
	flagSparse byte = 0
	flagDense  byte = 1
)

var errShortBuffer = errors.New("stream: short buffer")

// selfWireHeaderBytes is the fixed prefix size of the self-describing form.
const selfWireHeaderBytes = 15

// AppendWire appends the self-describing encoding of v to buf and returns
// the extended slice. DecodeWire reverses it exactly.
func (v *Vector) AppendWire(buf []byte) []byte {
	var hdr [selfWireHeaderBytes]byte
	if v.dns != nil {
		hdr[0] = flagDense
	} else {
		hdr[0] = flagSparse
	}
	binary.LittleEndian.PutUint32(hdr[1:], uint32(v.n))
	hdr[5] = byte(v.op)
	hdr[6] = byte(v.valueBytes)
	binary.LittleEndian.PutUint32(hdr[7:], uint32(v.delta))
	binary.LittleEndian.PutUint32(hdr[11:], uint32(len(v.idx)))
	buf = append(buf, hdr[:]...)
	if v.dns != nil {
		for _, x := range v.dns {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		}
		return buf
	}
	for i, ix := range v.idx {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(ix))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.val[i]))
	}
	return buf
}

// WireSize returns the exact length AppendWire will append for v.
func (v *Vector) WireSize() int {
	if v.dns != nil {
		return selfWireHeaderBytes + 8*v.n
	}
	return selfWireHeaderBytes + 12*len(v.idx)
}

// DecodeWire decodes one AppendWire encoding from the front of buf and
// returns the reconstructed vector and the number of bytes consumed. The
// vector is rebuilt field-exact — representation, operation, δ, value-byte
// accounting — with freshly allocated storage, so the decoded copy behaves
// bit-identically to the original in every later reduction.
func DecodeWire(buf []byte) (*Vector, int, error) {
	return DecodeWireInto(buf, nil)
}

// DecodeWireInto is DecodeWire with the vector's header and buffers drawn
// from s (nil degrades to plain allocation), so a receiver whose pool is
// refilled by what it releases decodes without allocating. Every check of
// DecodeWire is made: the header's before anything is drawn from the pool
// (a count the buffer cannot hold draws nothing), and a corrupt index,
// found mid-decode, puts back everything the vector had drawn before the
// error is returned.
func DecodeWireInto(buf []byte, s *Scratch) (*Vector, int, error) {
	if len(buf) < selfWireHeaderBytes {
		return nil, 0, errShortBuffer
	}
	n := int(binary.LittleEndian.Uint32(buf[1:]))
	if n <= 0 {
		return nil, 0, fmt.Errorf("stream: wire dimension %d", n)
	}
	op := Op(buf[5])
	if op < OpSum || op > OpProd {
		return nil, 0, fmt.Errorf("stream: wire operation %d", buf[5])
	}
	vb := int(buf[6])
	if vb != 4 && vb != 8 {
		return nil, 0, fmt.Errorf("stream: wire value bytes %d", vb)
	}
	delta := int(binary.LittleEndian.Uint32(buf[7:]))
	switch buf[0] {
	case flagDense:
		size := selfWireHeaderBytes + 8*n
		if len(buf) < size {
			return nil, 0, errShortBuffer
		}
		v := s.grabVector(n, op, vb, delta)
		v.dns = s.grabDenseRaw(n)
		for i := range v.dns {
			v.dns[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[selfWireHeaderBytes+8*i:]))
		}
		return v, size, nil
	case flagSparse:
		nnz := int(binary.LittleEndian.Uint32(buf[11:]))
		size := selfWireHeaderBytes + 12*nnz
		if nnz < 0 || len(buf) < size {
			return nil, 0, errShortBuffer
		}
		v := s.grabVector(n, op, vb, delta)
		v.idx = s.grabIdx(nnz)[:nnz]
		v.val = s.grabVal(nnz)[:nnz]
		off := selfWireHeaderBytes
		var prev int32 = -1
		for i := 0; i < nnz; i++ {
			ix := int32(binary.LittleEndian.Uint32(buf[off:]))
			if ix <= prev || int(ix) >= n {
				s.Release(v)
				return nil, 0, fmt.Errorf("stream: corrupt wire index %d at position %d", ix, i)
			}
			prev = ix
			v.idx[i] = ix
			v.val[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off+4:]))
			off += 12
		}
		return v, size, nil
	default:
		return nil, 0, fmt.Errorf("stream: unknown wire flag %d", buf[0])
	}
}
