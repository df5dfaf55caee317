package quant

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/pin"
)

// referenceDecode is the per-coordinate decoder DecodeInto replaced, kept
// as the arithmetic's definition: one bucket division, one code extraction
// and one float division per entry.
func referenceDecode(q *Quantized) []float64 {
	out := make([]float64, q.n)
	L := float64(q.cfg.Levels())
	for i := range out {
		bitPos := i * q.cfg.Bits
		u := uint(q.packed[bitPos/8]>>uint(bitPos%8)) & (1<<q.cfg.Bits - 1)
		code := int(u) - q.cfg.Levels()
		out[i] = float64(q.scales[i/q.cfg.Bucket]) * float64(code) / L
	}
	return out
}

// sameBits reports the first coordinate at which two vectors differ as
// float bit patterns (so −0 ≠ +0 and NaN payloads count), or -1.
func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestDecodeIntoMatchesReference: the table-driven decoder is bit-equal to
// the per-coordinate one for every width, for buckets that start and end
// inside a byte and buckets shorter than the table, with all-zero buckets
// (which decode to −0) and a ragged last bucket in the mix.
func TestDecodeIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, bits := range []int{2, 4, 8} {
		for _, bucket := range []int{1, 3, 7, 64, 1000, 1024} {
			for _, norm := range []Norm{NormMax, NormL2} {
				for _, n := range []int{0, 1, 5, 1023, 1024, 1025, 131072} {
					v := make([]float64, n)
					for i := range v {
						if i/bucket%3 != 1 { // every third bucket stays all-zero
							v[i] = rng.NormFloat64()
						}
					}
					q := Encode(v, Config{Bits: bits, Bucket: bucket, Norm: norm}, rng)
					// Poison dst: every entry must be overwritten, none past n.
					dst := make([]float64, n+3)
					for i := range dst {
						dst[i] = math.Inf(1)
					}
					q.DecodeInto(dst)
					if i := sameBits(dst[:n], referenceDecode(q)); i >= 0 {
						t.Fatalf("bits=%d bucket=%d norm=%v n=%d: coordinate %d differs from the reference decoder", bits, bucket, norm, n, i)
					}
					for _, x := range dst[n:] {
						if !math.IsInf(x, 1) {
							t.Fatalf("bits=%d bucket=%d norm=%v n=%d: wrote past Dim()", bits, bucket, norm, n)
						}
					}
				}
			}
		}
	}
}

func TestDecodeIntoAllocatesNothing(t *testing.T) {
	q := Encode(pinInput(), Config{Bits: 4, Bucket: 512, Norm: NormMax}, rand.New(rand.NewSource(1)))
	dst := make([]float64, q.Dim())
	if allocs := testing.AllocsPerRun(10, func() { q.DecodeInto(dst) }); allocs != 0 {
		t.Fatalf("DecodeInto allocates %v times per call, want 0", allocs)
	}
}

func TestDecodeIntoShortDstPanics(t *testing.T) {
	q := Encode(make([]float64, 100), Config{Bits: 4, Bucket: 32, Norm: NormMax}, rand.New(rand.NewSource(1)))
	defer func() {
		if recover() == nil {
			t.Fatal("DecodeInto into a 99-entry dst did not panic")
		}
	}()
	q.DecodeInto(make([]float64, 99))
}

// TestEncodeIntoMatchesEncode: encoding into a stale block — empty, too
// small or too large, under another configuration, its codes and scales
// junk — returns that block holding exactly what Encode returns from the
// same rng state, for every width, buckets smaller than the table, ragged
// last buckets and n = 0. Its packed codes must be cleared first: put ORs
// each code into place.
func TestEncodeIntoMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, bits := range []int{2, 4, 8} {
		for _, bucket := range []int{1, 3, 7, 512} {
			for _, n := range []int{0, 1, 5, 9, 1025} {
				v := make([]float64, n)
				for i := range v {
					if i/bucket%3 != 1 { // every third bucket stays all-zero
						v[i] = rng.NormFloat64()
					}
				}
				cfg := Config{Bits: bits, Bucket: bucket, Norm: NormMax}
				want := Encode(v, cfg, rand.New(rand.NewSource(int64(n)))).AppendMarshal(nil)
				for _, stale := range staleBlocks() {
					got := EncodeInto(stale, v, cfg, rand.New(rand.NewSource(int64(n))))
					if got != stale || !bytes.Equal(got.AppendMarshal(nil), want) {
						t.Fatalf("bits=%d bucket=%d n=%d: EncodeInto a stale block differs from Encode", bits, bucket, n)
					}
				}
			}
		}
	}
}

// TestLentBlockCountdown: a block lent to concurrent readers, each of which
// decodes it and counts it down, is encoded into again by its owner once
// Readers reads zero — the DSAR own-block lifetime, which the ci.sh -race
// pass checks for a reuse that is not ordered after every read.
func TestLentBlockCountdown(t *testing.T) {
	const readers, rounds = 4, 8
	cfg := Config{Bits: 4, Bucket: 64, Norm: NormMax}
	v := pinInput()
	var q *Quantized
	var wg sync.WaitGroup
	bad := make([]bool, readers*rounds)
	for round := range rounds {
		for q != nil && q.Readers() != 0 {
			runtime.Gosched() // the owner never waits in DSAR; it allocates instead
		}
		q = EncodeInto(q, v, cfg, rand.New(rand.NewSource(int64(round))))
		want := q.Decode()
		q.Lend(readers)
		for r := range readers {
			wg.Add(1)
			go func(block *Quantized) {
				defer wg.Done()
				got := make([]float64, block.Dim())
				block.DecodeInto(got)
				bad[round*readers+r] = sameBits(got, want) >= 0
				block.ReadDone()
			}(q)
		}
	}
	wg.Wait()
	if i := slices.Index(bad, true); i >= 0 {
		t.Fatalf("round %d: a reader decoded another round's block", i/readers)
	}
}

// TestHugeBucketScaleSaturates: a bucket whose max |x| is past float32
// range used to store scale +Inf, and +Inf·0 decoded its zero entries to
// NaN. The stored scale saturates instead.
func TestHugeBucketScaleSaturates(t *testing.T) {
	v := []float64{1e300, 0, -1e300, 0.5}
	for _, norm := range []Norm{NormMax, NormL2} {
		q := Encode(v, Config{Bits: 4, Bucket: 4, Norm: norm}, rand.New(rand.NewSource(1)))
		dec := q.Decode()
		for i, x := range dec {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("norm=%v: coordinate %d decodes to %g", norm, i, x)
			}
		}
		if dec[1] != 0 {
			t.Fatalf("norm=%v: the zero entry decodes to %g", norm, dec[1])
		}
	}
}

// TestAppendMarshal: AppendMarshal extends the buffer it is given by
// exactly MarshalSize bytes, the same bytes whatever precedes them.
func TestAppendMarshal(t *testing.T) {
	q := Encode(pinInput(), Config{Bits: 2, Bucket: 100, Norm: NormL2}, rand.New(rand.NewSource(1)))
	prefix := []byte("frame")
	got := q.AppendMarshal(append([]byte(nil), prefix...))
	alone := q.AppendMarshal(nil)
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], alone) || len(alone) != q.MarshalSize() {
		t.Fatalf("AppendMarshal wrote %d bytes after the prefix, %d onto nil, MarshalSize %d", len(got)-len(prefix), len(alone), q.MarshalSize())
	}
}

// FuzzUnmarshal: whatever bytes arrive, Unmarshal returns a vector or an
// error — it never panics and holds no more than the buffer's worth of
// storage — and an accepted buffer re-marshals to itself and decodes as
// the reference decoder says. Every input is also unmarshalled into stale
// blocks whose storage is too small, too large or absent and whose
// contents are junk (staleBlocks): UnmarshalInto must return the same
// error, leaving the block exactly as it was, or that block holding the
// same value bit for bit.
func FuzzUnmarshal(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range []Config{{2, 3, NormMax}, {4, 16, NormL2}, {8, 1000, NormMax}} {
		for _, n := range []int{0, 1, 37} {
			v := make([]float64, n)
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			f.Add(Encode(v, cfg, rng).AppendMarshal(nil))
		}
	}
	// Bare headers that claim 2^32−1 entries.
	f.Add([]byte{4, 0, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{8, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := Unmarshal(data)
		for _, stale := range staleBlocks() {
			was := struct {
				cfg    Config
				n      int
				scales []float32
				packed []byte
			}{stale.cfg, stale.n, stale.scales, stale.packed}
			wasScales, wasPacked := append([]float32(nil), stale.scales...), append([]byte(nil), stale.packed...)
			got, perr := UnmarshalInto(stale, data)
			if (err == nil) != (perr == nil) || err != nil && err.Error() != perr.Error() {
				t.Fatalf("Unmarshal: %v; UnmarshalInto a stale block: %v", err, perr)
			}
			if perr != nil {
				if stale.cfg != was.cfg || stale.n != was.n || !sameSlice(stale.scales, was.scales) || !sameSlice(stale.packed, was.packed) ||
					!slices.EqualFunc(stale.scales, wasScales, sameFloat32) || !bytes.Equal(stale.packed, wasPacked) {
					t.Fatalf("a rejected buffer changed the block it was unmarshalled into")
				}
				continue
			}
			if got != stale || !bytes.Equal(got.AppendMarshal(nil), data) || sameBits(got.Decode(), q.Decode()) >= 0 {
				t.Fatalf("cfg=%+v n=%d: UnmarshalInto a stale block differs from Unmarshal", q.cfg, q.n)
			}
		}
		if err != nil {
			return
		}
		if held := 4*len(q.scales) + len(q.packed); held > len(data) {
			t.Fatalf("a %d-byte buffer unmarshalled into %d bytes of storage", len(data), held)
		}
		if !bytes.Equal(q.AppendMarshal(nil), data) {
			t.Fatalf("AppendMarshal∘Unmarshal is not the identity on an accepted %d-byte buffer", len(data))
		}
		if i := sameBits(q.Decode(), referenceDecode(q)); i >= 0 {
			t.Fatalf("cfg=%+v n=%d: coordinate %d differs from the reference decoder", q.cfg, q.n, i)
		}
	})
}

// staleBlocks returns blocks as a decode pool may hold them: empty, with
// storage too small for most inputs, and with storage larger than most,
// under a configuration and contents no input shares.
func staleBlocks() []*Quantized {
	junk := func(n int) ([]float32, []byte) {
		scales, packed := make([]float32, n), make([]byte, 3*n)
		for i := range scales {
			scales[i] = float32(math.NaN())
		}
		for i := range packed {
			packed[i] = 0xa5
		}
		return scales, packed
	}
	small, big := &Quantized{cfg: Config{2, 7, NormL2}, n: 9}, &Quantized{cfg: Config{8, 1, NormMax}, n: 999}
	small.scales, small.packed = junk(1)
	big.scales, big.packed = junk(400)
	return []*Quantized{{}, small, big}
}

// sameFloat32 compares bit patterns, so that NaN equals itself.
func sameFloat32(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

// sameSlice reports whether a and b are the same slice: one backing array,
// one length, one capacity.
func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && cap(a) == cap(b) && (cap(a) == 0 || &a[:1][0] == &b[:1][0])
}

// pinInput is a fixed vector of exact dyadic values with a ragged last
// bucket and one all-zero bucket (which must draw nothing from the rng).
func pinInput() []float64 {
	v := make([]float64, 5000)
	for i := range v {
		if i/512 == 3 {
			continue
		}
		h := uint32(i) * 2654435761
		v[i] = float64(int32(h>>8)%4001-2000) / 128
	}
	return v
}

// TestEncodeMarshalDigests pins the encoder's bytes across commits as the
// ledger entries quant/encode/<bits>-bit/<norm>: one rng.Float64() per
// coordinate of a non-zero bucket, in coordinate order, is part of the
// bit-identity contract, and nothing else would notice a reordering that
// every transport applies alike. Recorded before the decoder and the
// framing were rewritten.
func TestEncodeMarshalDigests(t *testing.T) {
	pin.Prefix(t, "quant/encode")
	for _, cfg := range []Config{
		{Bits: 2, Bucket: 512, Norm: NormMax},
		{Bits: 4, Bucket: 512, Norm: NormMax},
		{Bits: 8, Bucket: 512, Norm: NormMax},
		{Bits: 4, Bucket: 512, Norm: NormL2},
	} {
		h := pin.New()
		h.Write(Encode(pinInput(), cfg, rand.New(rand.NewSource(20261002))).AppendMarshal(nil))
		pin.Check(t, fmt.Sprintf("quant/encode/%d-bit/%v", cfg.Bits, cfg.Norm), h)
	}
}
