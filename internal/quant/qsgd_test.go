package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	good := []Config{{2, 512, NormMax}, {4, 1024, NormL2}, {8, 1, NormMax}}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v: unexpected error %v", c, err)
		}
	}
	bad := []Config{{3, 512, NormMax}, {4, 0, NormMax}, {0, 512, NormMax}, {16, 512, NormMax}, {4, 512, Norm(7)}}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v: expected error", c)
		}
	}
	if got := Norm(7).String(); got == NormMax.String() {
		t.Errorf("Norm(7) prints as %q", got)
	}
}

func TestLevels(t *testing.T) {
	cases := map[int]int{2: 1, 4: 7, 8: 127}
	for bits, want := range cases {
		if got := (Config{Bits: bits, Bucket: 1}).Levels(); got != want {
			t.Errorf("Levels(%d bits) = %d, want %d", bits, got, want)
		}
	}
}

func TestEncodeDecodeBoundedError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bits := range []int{2, 4, 8} {
		v := make([]float64, 2048)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		q := Encode(v, Config{Bits: bits, Bucket: 512, Norm: NormMax}, rng)
		got := q.Decode()
		L := float64(q.cfg.Levels())
		for b := 0; b < 4; b++ {
			scale := float64(q.scales[b])
			for i := b * 512; i < (b+1)*512; i++ {
				// Stochastic rounding moves a value by at most one level.
				if math.Abs(got[i]-v[i]) > scale/L+1e-6 {
					t.Fatalf("bits=%d coord=%d: |%g - %g| > %g", bits, i, got[i], v[i], scale/L)
				}
			}
		}
	}
}

func TestUnbiasednessMaxNorm(t *testing.T) {
	// Average many independent encodings of the same vector; the mean must
	// approach the input (E[Q(v)] = v for max-norm scaling).
	rng := rand.New(rand.NewSource(2))
	v := []float64{0.3, -0.7, 0.01, 1.0, -0.999, 0.5, 0, -0.25}
	n := len(v)
	sum := make([]float64, n)
	const trials = 20000
	for trial := 0; trial < trials; trial++ {
		q := Encode(v, Config{Bits: 2, Bucket: n, Norm: NormMax}, rng)
		for i, x := range q.Decode() {
			sum[i] += x
		}
	}
	for i := range v {
		mean := sum[i] / trials
		if math.Abs(mean-v[i]) > 0.02 {
			t.Errorf("coord %d: empirical mean %g, want %g", i, mean, v[i])
		}
	}
}

func TestZeroVectorStaysZero(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := make([]float64, 100)
	q := Encode(v, Config{Bits: 4, Bucket: 32, Norm: NormMax}, rng)
	for i, x := range q.Decode() {
		if x != 0 {
			t.Fatalf("coord %d = %g, want 0", i, x)
		}
	}
}

func TestCompressionRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	v := make([]float64, 1<<16)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	q := Encode(v, Config{Bits: 4, Bucket: 1024, Norm: NormMax}, rng)
	// 4-bit codes: 8x fewer payload bits than float64 → ratio close to 16
	// minus scale overhead.
	if r := q.CompressionRatio(); r < 14 || r > 16 {
		t.Fatalf("compression ratio = %g, want ~15.9", r)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, bits := range []int{2, 4, 8} {
		v := make([]float64, 777) // non-multiple of bucket
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		q := Encode(v, Config{Bits: bits, Bucket: 128, Norm: NormL2}, rng)
		q2, err := Unmarshal(q.AppendMarshal(nil))
		if err != nil {
			t.Fatal(err)
		}
		a, b := q.Decode(), q2.Decode()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("bits=%d coord=%d: %g != %g", bits, i, a[i], b[i])
			}
		}
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	if _, err := Unmarshal([]byte{1, 2}); err == nil {
		t.Fatal("expected error on short buffer")
	}
	rng := rand.New(rand.NewSource(6))
	q := Encode(make([]float64, 64), Config{Bits: 4, Bucket: 16, Norm: NormMax}, rng)
	buf := q.AppendMarshal(nil)
	if _, err := Unmarshal(buf[:len(buf)-1]); err == nil {
		t.Fatal("expected error on truncated buffer")
	}
	buf[1] = 7 // a norm byte no encoder writes
	if _, err := Unmarshal(buf); err == nil {
		t.Fatal("expected error on invalid norm")
	}
	buf[0], buf[1] = 5, 0 // invalid bits
	if _, err := Unmarshal(buf); err == nil {
		t.Fatal("expected error on invalid bits")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	v := make([]float64, 300)
	for i := range v {
		v[i] = math.Sin(float64(i))
	}
	q1 := Encode(v, Config{Bits: 4, Bucket: 64, Norm: NormMax}, rand.New(rand.NewSource(42)))
	q2 := Encode(v, Config{Bits: 4, Bucket: 64, Norm: NormMax}, rand.New(rand.NewSource(42)))
	a, b := q1.Decode(), q2.Decode()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce the encoding")
		}
	}
}

// Property: decode error is bounded by one level step for max-norm scaling,
// for arbitrary finite inputs.
func TestQuickBoundedError(t *testing.T) {
	f := func(seed int64, pickBits uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		bits := []int{2, 4, 8}[int(pickBits)%3]
		n := 1 + rng.Intn(300)
		bucket := 1 + rng.Intn(128)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(6)-3))
		}
		cfg := Config{Bits: bits, Bucket: bucket, Norm: NormMax}
		q := Encode(v, cfg, rng)
		dec := q.Decode()
		L := float64(cfg.Levels())
		for i := range v {
			b := i / bucket
			scale := float64(q.scales[b])
			// float32 scale storage adds relative error ~1e-7.
			if math.Abs(dec[i]-v[i]) > scale/L+1e-6*scale+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// benchVector is the benchmarks' input: 2^20 standard normals.
func benchVector(rng *rand.Rand) []float64 {
	v := make([]float64, 1<<20)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

var bench4Bit = Config{Bits: 4, Bucket: 1024, Norm: NormMax}

func BenchmarkEncode4Bit1M(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	v := benchVector(rng)
	b.SetBytes(8 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(v, bench4Bit, rng)
	}
}

func BenchmarkDecode4Bit1M(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	q := Encode(benchVector(rng), bench4Bit, rng)
	b.SetBytes(8 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Decode()
	}
}

func BenchmarkDecodeInto4Bit1M(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	q := Encode(benchVector(rng), bench4Bit, rng)
	dst := make([]float64, q.Dim())
	b.SetBytes(8 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.DecodeInto(dst)
	}
}

// BenchmarkDecodeInto8BitBucket16 decodes 8-bit codes in 16-entry buckets,
// far fewer codes per bucket than the 256-word table DecodeInto builds for
// each: the small-bucket cost of the table, which no caller's
// configuration reaches today.
func BenchmarkDecodeInto8BitBucket16(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	q := Encode(benchVector(rng), Config{Bits: 8, Bucket: 16, Norm: NormMax}, rng)
	dst := make([]float64, q.Dim())
	b.SetBytes(8 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.DecodeInto(dst)
	}
}
