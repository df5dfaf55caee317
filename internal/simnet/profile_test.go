package simnet

import "testing"

func TestNVLinkLikeProfile(t *testing.T) {
	p, err := ProfileByName("nvlink")
	if err != nil {
		t.Fatal(err)
	}
	if p.Alpha >= Aries.Alpha || p.BetaPerByte >= Aries.BetaPerByte {
		t.Fatal("nvlink must be strictly cheaper than aries in both α and β")
	}
}

func TestNICFactor(t *testing.T) {
	uncapped := TwoLevel(4, NVLinkLike, Aries, 0)
	for _, active := range []int{1, 2, 8} {
		if got := uncapped.SerialFactor(0, active); got != 1 {
			t.Fatalf("NICSerial=0 active=%d: factor %g, want 1", active, got)
		}
	}
	capped := TwoLevel(4, NVLinkLike, Aries, 2)
	cases := []struct {
		active int
		want   float64
	}{{1, 1}, {2, 1}, {3, 1.5}, {4, 2}, {8, 4}}
	for _, tc := range cases {
		if got := capped.SerialFactor(0, tc.active); got != tc.want {
			t.Fatalf("NICSerial=2 active=%d: factor %g, want %g", tc.active, got, tc.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SerialFactor(0, 0) should panic")
		}
	}()
	capped.SerialFactor(0, 0)
}

func TestValidateRejectsNegativeNICSerial(t *testing.T) {
	if err := TwoLevel(2, NVLinkLike, Aries, -1).Validate(); err == nil {
		t.Fatal("negative NICSerial must fail validation")
	}
}

func TestContendedTransferTime(t *testing.T) {
	p := Profile{Name: "x", Alpha: 1e-6, BetaPerByte: 1e-9, SoftwareOverhead: 1e-7, SoftwarePerByte: 1e-10}
	bytes := 1000
	want := p.Alpha + p.SoftwareOverhead + (p.BetaPerByte+p.SoftwarePerByte)*float64(bytes)*3
	if got := p.ContendedTransferTime(bytes, 3); got != want {
		t.Fatalf("ContendedTransferTime = %g, want %g", got, want)
	}
	if got, want := p.ContendedTransferTime(bytes, 1), p.TransferTime(bytes); got != want {
		t.Fatalf("factor-1 contended time %g != TransferTime %g", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("factor < 1 should panic")
		}
	}()
	p.ContendedTransferTime(bytes, 0.5)
}
