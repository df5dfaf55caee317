package report

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestQuantiles(t *testing.T) {
	var s Sample
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Add(v)
	}
	if got := s.Median(); got != 3 {
		t.Fatalf("median = %g, want 3", got)
	}
	q25, q75 := s.IQR()
	if q25 != 2 || q75 != 4 {
		t.Fatalf("IQR = (%g, %g), want (2, 4)", q25, q75)
	}
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("min = %g", got)
	}
	if got := s.Quantile(1); got != 5 {
		t.Fatalf("max = %g", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	var s Sample
	s.Add(0)
	s.Add(10)
	if got := s.Quantile(0.25); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("q25 = %g, want 2.5", got)
	}
}

func TestQuantilePanics(t *testing.T) {
	var s Sample
	for _, f := range []func(){
		func() { s.Quantile(0.5) },
		func() { s.Add(1); s.Quantile(-0.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(values []float64, qa, qb float64) bool {
		if len(values) == 0 {
			return true
		}
		var s Sample
		for _, v := range values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Add(v)
		}
		qa = math.Abs(math.Mod(qa, 1))
		qb = math.Abs(math.Mod(qb, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		return s.Quantile(qa) <= s.Quantile(qb)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRowRaw("alpha", FormatSeconds(1.5e-6))
	tb.AddRowRaw("a-much-longer-name", "42")
	var buf bytes.Buffer
	tb.Fprint(&buf)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4", len(lines))
	}
	if !strings.Contains(lines[2], "1.5µs") {
		t.Fatalf("first row lost its cell: %q", lines[2])
	}
	// Header columns must align with the widest row.
	if !strings.HasPrefix(lines[0], "name ") {
		t.Fatalf("header misaligned: %q", lines[0])
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRowRaw("1", "2")
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "a,b\n1,2\n" {
		t.Fatalf("CSV = %q", buf.String())
	}
}

func TestFormatSeconds(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		5e-9:   "5.0ns",
		1.5e-6: "1.5µs",
		2e-3:   "2.00ms",
		1.25:   "1.25s",
		600:    "10.0min",
		86400:  "24.0h",
	}
	for in, want := range cases {
		if got := FormatSeconds(in); got != want {
			t.Errorf("FormatSeconds(%g) = %q, want %q", in, got, want)
		}
	}
}

func TestPow2Range(t *testing.T) {
	got := Pow2Range(2, 64)
	want := []int{2, 4, 8, 16, 32, 64}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
