// Package quant implements the QSGD stochastic quantization scheme used by
// SparCML for low-precision communication (paper §6): a dense vector is
// split into buckets of B consecutive entries, each bucket is quantized
// independently and stochastically to a small number of levels (2, 4, or 8
// bits per entry), and each bucket carries one full-precision scaling
// factor. Quantization is unbiased (E[decode] = input), which is what
// preserves SGD convergence (Alistarh et al., QSGD).
package quant

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
)

// Norm selects the per-bucket scaling factor.
type Norm int

const (
	// NormMax scales by the bucket's max |value|; every input is then within
	// [-scale, +scale], so stochastic rounding is exactly unbiased.
	NormMax Norm = iota
	// NormL2 scales by the bucket's Euclidean norm, as in the original QSGD
	// paper; yields more aggressive variance bounds for dense gradients.
	NormL2
)

func (n Norm) String() string {
	switch n {
	case NormMax:
		return "max"
	case NormL2:
		return "L2"
	default:
		return fmt.Sprintf("Norm(%d)", int(n))
	}
}

// Config describes a quantizer.
type Config struct {
	// Bits per entry: 2, 4, or 8 (§6).
	Bits int
	// Bucket is the number of consecutive entries sharing one scaling
	// factor; the paper uses "in the order of 1024" (1024 for collectives,
	// 512 for the DNN experiments).
	Bucket int
	// Norm selects the scaling factor; default NormMax.
	Norm Norm
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch c.Bits {
	case 2, 4, 8:
	default:
		return fmt.Errorf("quant: bits must be 2, 4, or 8 (got %d)", c.Bits)
	}
	if c.Bucket <= 0 {
		return fmt.Errorf("quant: bucket must be positive (got %d)", c.Bucket)
	}
	if c.Norm != NormMax && c.Norm != NormL2 {
		return fmt.Errorf("quant: unknown norm %d", int(c.Norm))
	}
	return nil
}

// Levels returns the number of positive quantization levels L: codes lie in
// [-L, +L]. One bit encodes the sign, the rest the magnitude.
func (c Config) Levels() int { return 1<<(c.Bits-1) - 1 }

// Quantized is a quantized vector: packed signed level codes plus one
// float32 scale per bucket. (The paper sends a "full-precision scaling
// factor"; we use float32 on the wire, which is full precision relative to
// 2–8 bit payloads and matches common QSGD implementations.)
type Quantized struct {
	cfg    Config
	n      int
	scales []float32
	packed []byte // n codes, cfg.Bits each, little-endian within bytes
	// readers counts the holders still reading a lent block (Lend).
	readers atomic.Int32
}

// Encode stochastically quantizes v. The rng drives the stochastic
// rounding; passing the same seed reproduces the encoding bit-for-bit.
func Encode(v []float64, cfg Config, rng *rand.Rand) *Quantized {
	return EncodeInto(nil, v, cfg, rng)
}

// EncodeInto is Encode into dst's storage: dst's header, scales and packed
// codes are reused where their capacity suffices and replaced where it does
// not, and dst itself is returned, bit-identical to what Encode returns for
// the same rng state whatever dst held before. A nil dst allocates, as
// Encode does. No holder may still read dst (Lend).
func EncodeInto(dst *Quantized, v []float64, cfg Config, rng *rand.Rand) *Quantized {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	L := float64(cfg.Levels())
	nb := (len(v) + cfg.Bucket - 1) / cfg.Bucket
	q := dst
	if q == nil {
		q = &Quantized{}
	}
	q.cfg, q.n = cfg, len(v)
	q.scales = reuse(q.scales, nb) // every scale is written below
	q.packed = reuse(q.packed, (len(v)*cfg.Bits+7)/8)
	clear(q.packed) // put ORs the codes in
	for b := 0; b < nb; b++ {
		lo := b * cfg.Bucket
		hi := lo + cfg.Bucket
		if hi > len(v) {
			hi = len(v)
		}
		scale := bucketScale(v[lo:hi], cfg.Norm)
		// A scale past float32 range would be stored as +Inf and decode its
		// zero codes to NaN; saturate what is stored, round with the true one.
		q.scales[b] = float32(math.Min(scale, math.MaxFloat32))
		if scale == 0 {
			continue // all codes stay 0
		}
		for i := lo; i < hi; i++ {
			x := v[i] / scale * L // in [-L, L] for NormMax
			f := math.Floor(x)
			code := int(f)
			if rng.Float64() < x-f {
				code++
			}
			// NormL2 can put |x| above L for outlier coordinates; clamp.
			if code > int(L) {
				code = int(L)
			} else if code < -int(L) {
				code = -int(L)
			}
			q.put(i, code)
		}
	}
	return q
}

func bucketScale(v []float64, norm Norm) float64 {
	switch norm {
	case NormL2:
		s := 0.0
		for _, x := range v {
			s += x * x
		}
		return math.Sqrt(s)
	default:
		s := 0.0
		for _, x := range v {
			if a := math.Abs(x); a > s {
				s = a
			}
		}
		return s
	}
}

// put stores the signed code for entry i. Bits divides 8, so a code never
// straddles a byte.
func (q *Quantized) put(i, code int) {
	u := uint(code + q.cfg.Levels()) // bias to unsigned
	bitPos := i * q.cfg.Bits
	q.packed[bitPos/8] |= byte(u << uint(bitPos%8))
}

// Lend records that readers holders read q, the owner among them; each
// calls ReadDone once it is done. The owner reuses q (EncodeInto) only once
// Readers reports zero. These three methods make q a stream.Lendable,
// which a rank's pool lends and hands back (stream.Scratch.Lend,
// stream.GrabLent).
func (q *Quantized) Lend(readers int) { q.readers.Store(int32(readers)) }

// ReadDone records that one holder of a lent block has stopped reading it;
// the holder must not touch q afterwards. On a block that was never lent
// it does nothing that matters.
func (q *Quantized) ReadDone() { q.readers.Add(-1) }

// Readers reports how many holders of a lent block have not yet called
// ReadDone.
func (q *Quantized) Readers() int { return int(q.readers.Load()) }

// Dim returns the vector dimension.
func (q *Quantized) Dim() int { return q.n }

// Config returns the quantizer configuration.
func (q *Quantized) Config() Config { return q.cfg }

// Decode reconstructs the (lossy) vector.
func (q *Quantized) Decode() []float64 {
	out := make([]float64, q.n)
	q.DecodeInto(out)
	return out
}

// DecodeInto reconstructs the (lossy) vector into dst[:Dim()] without
// allocating; it panics when dst is shorter than Dim(). Entry i decodes to
// float64(scale)·float64(code)/L: per bucket that expression is tabulated
// once over the 2^Bits code words, then the packed codes are unpacked a
// whole byte at a time.
func (q *Quantized) DecodeInto(dst []float64) {
	dst = dst[:q.n]
	bits, levels := q.cfg.Bits, q.cfg.Levels()
	L := float64(levels)
	perByte := 8 / bits
	mask := byte(1<<bits - 1)
	word := func(i int) int { return int(q.packed[i/perByte] >> (i % perByte * bits) & mask) }
	var table [256]float64
	for b, scale := range q.scales {
		s := float64(scale)
		lo := b * q.cfg.Bucket
		hi := min(lo+q.cfg.Bucket, q.n)
		for u := 0; u < 1<<bits; u++ {
			table[u] = s * float64(u-levels) / L
		}
		// A bucket may begin or end inside a byte: one code at a time up to
		// the first byte boundary and after the last.
		alignedLo := min((lo+perByte-1)/perByte*perByte, hi)
		alignedHi := max(hi/perByte*perByte, alignedLo)
		for i := lo; i < alignedLo; i++ {
			dst[i] = table[word(i)]
		}
		src := q.packed[alignedLo/perByte : alignedHi/perByte]
		out := dst[alignedLo:alignedHi]
		switch bits {
		case 2:
			for j, c := range src {
				o := out[4*j : 4*j+4 : 4*j+4]
				o[0], o[1], o[2], o[3] = table[c&3], table[c>>2&3], table[c>>4&3], table[c>>6]
			}
		case 4:
			for j, c := range src {
				o := out[2*j : 2*j+2 : 2*j+2]
				o[0], o[1] = table[c&15], table[c>>4]
			}
		default:
			for j, c := range src {
				out[j] = table[c]
			}
		}
		for i := alignedHi; i < hi; i++ {
			dst[i] = table[word(i)]
		}
	}
}

// WireBytes returns the transmitted size: packed codes plus one float32
// scale per bucket, plus a 5-byte header (format flag + count), matching
// the stream header convention.
func (q *Quantized) WireBytes() int {
	return 5 + len(q.packed) + 4*len(q.scales)
}

// CompressionRatio returns dense float64 bytes divided by quantized bytes.
func (q *Quantized) CompressionRatio() float64 {
	return float64(8*q.n) / float64(q.WireBytes())
}

// marshalHeaderBytes is the fixed prefix of the serialized form: bits,
// norm, uint32 bucket, uint32 dimension.
const marshalHeaderBytes = 10

// MarshalSize returns the exact length of the serialized form.
func (q *Quantized) MarshalSize() int {
	return marshalHeaderBytes + 4*len(q.scales) + len(q.packed)
}

// AppendMarshal appends the serialized form — header, one float32 per
// bucket, the packed codes — to buf and returns the extended slice.
func (q *Quantized) AppendMarshal(buf []byte) []byte {
	buf = append(buf, byte(q.cfg.Bits), byte(q.cfg.Norm))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(q.cfg.Bucket))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(q.n))
	for _, s := range q.scales {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(s))
	}
	return append(buf, q.packed...)
}

// Unmarshal reverses AppendMarshal. The buffer may come off a socket: its
// counts are checked against its length before anything is allocated from
// them.
func Unmarshal(buf []byte) (*Quantized, error) {
	return UnmarshalInto(nil, buf)
}

// UnmarshalInto is Unmarshal into dst's storage: dst's header, scales and
// packed codes are reused where their capacity suffices and replaced where
// it does not, and dst itself is returned. A nil dst allocates, as
// Unmarshal does. Every check is made before dst is touched, so a rejected
// buffer returns an error and leaves dst exactly as it was.
func UnmarshalInto(dst *Quantized, buf []byte) (*Quantized, error) {
	if len(buf) < marshalHeaderBytes {
		return nil, fmt.Errorf("quant: short buffer")
	}
	cfg := Config{
		Bits:   int(buf[0]),
		Norm:   Norm(buf[1]),
		Bucket: int(binary.LittleEndian.Uint32(buf[2:])),
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(buf[6:]))
	nb := (n + cfg.Bucket - 1) / cfg.Bucket
	packedLen := (n*cfg.Bits + 7) / 8
	if want := marshalHeaderBytes + 4*nb + packedLen; len(buf) != want {
		return nil, fmt.Errorf("quant: buffer is %d bytes, want %d", len(buf), want)
	}
	q := dst
	if q == nil {
		q = &Quantized{}
	}
	q.cfg, q.n = cfg, n
	q.scales = reuse(q.scales, nb)
	q.packed = reuse(q.packed, packedLen)
	scales := buf[marshalHeaderBytes : marshalHeaderBytes+4*nb]
	for i := range q.scales {
		q.scales[i] = math.Float32frombits(binary.LittleEndian.Uint32(scales[4*i:]))
	}
	copy(q.packed, buf[marshalHeaderBytes+4*nb:])
	return q, nil
}

// reuse returns b resliced to length n when it has the capacity, and a
// fresh length-n slice otherwise (so never nil). The caller overwrites
// every element.
func reuse[T any](b []T, n int) []T {
	if b != nil && cap(b) >= n {
		return b[:n]
	}
	return make([]T, n)
}
