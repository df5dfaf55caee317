package stream

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// windowStreams builds k sparse streams of dimension n whose supports are
// nnz distinct coordinates drawn from [lo, lo+width), with quarter-integer
// values (so sums are exact and streams cancel each other now and then).
// For OpProd the values are powers of two, whose products hit the neutral 1.
func windowStreams(rng *rand.Rand, n, lo, width, k, nnz int, op Op) []*Vector {
	vs := make([]*Vector, k)
	for r := range vs {
		idx := make([]int32, 0, nnz)
		val := make([]float64, 0, nnz)
		for _, off := range rng.Perm(width)[:nnz] {
			x := float64(1+rng.Intn(8)) / 4
			if op == OpProd {
				x = []float64{0.25, 0.5, 2, 4}[rng.Intn(4)]
			} else if rng.Intn(2) == 0 {
				x = -x
			}
			idx = append(idx, int32(lo+off))
			val = append(val, x)
		}
		vs[r] = NewSparse(n, idx, val, op)
	}
	return vs
}

// mergeDigestCases is the pinned table: shapes on both sides of the
// windowed-scatter rule of AddAll (see merge.go), window edges on 64-bit
// word boundaries, the δ edge, every operation, and cancellation followed
// by a later stream re-setting the coordinate.
func mergeDigestCases() map[string][]*Vector {
	rng := rand.New(rand.NewSource(2222)) // one stream: the tables below are slices, so draw order is fixed
	cases := map[string][]*Vector{
		// The split phase of gor-bandwidth and tcp-dense-q4: P = 8, one
		// partition of N = 2^20.
		"8x8k/131072@2^20":  windowStreams(rand.New(rand.NewSource(1)), 1<<20, 3<<17, 1<<17, 8, 8<<10, OpSum),
		"8x16k/131072@2^20": windowStreams(rand.New(rand.NewSource(2)), 1<<20, 3<<17, 1<<17, 8, 16<<10, OpSum),
		// BENCH_3's fan-ins: full-width streams of 2000 pairs.
		"64x2000@2^18": windowStreams(rand.New(rand.NewSource(3)), 1<<18, 0, 1<<18, 64, 2000, OpSum),
		"16x2000@2^18": windowStreams(rand.New(rand.NewSource(4)), 1<<18, 0, 1<<18, 16, 2000, OpSum),
		"4x2000@2^18":  windowStreams(rand.New(rand.NewSource(5)), 1<<18, 0, 1<<18, 4, 2000, OpSum),
		// Very sparse and wide: three streams of 40 over 2^16.
		"3x40@2^16": windowStreams(rand.New(rand.NewSource(6)), 1<<16, 0, 1<<16, 3, 40, OpSum),
		// x + (−x) + y at one coordinate, and a cancellation nobody refills.
		"cancel-refill": {
			NewSparse(100, []int32{7, 9, 11}, []float64{2, 1, 3}, OpSum),
			NewSparse(100, []int32{7, 11}, []float64{-2, -3}, OpSum),
			NewSparse(100, []int32{7}, []float64{5}, OpSum),
		},
	}
	// Windows that start and end on, just before and just after a word
	// boundary of the presence bitmap.
	for _, w := range []struct {
		name      string
		lo, width int
	}{
		{"word/64..127", 64, 64}, {"word/63..64", 63, 2}, {"word/0..63", 0, 64},
		{"word/128..192", 128, 65}, {"word/1..128", 1, 128}, {"word/127..255", 127, 129},
	} {
		for _, op := range []Op{OpSum, OpMax, OpMin, OpProd} {
			vs := windowStreams(rng, 1024, w.lo, w.width, 5, (w.width+1)/2, op)
			// Pin both window edges whatever the permutation drew.
			vs[0] = NewSparse(1024, []int32{int32(w.lo), int32(w.lo + w.width - 1)}, []float64{0.5, 4}, op)
			cases[w.name+"/"+op.String()] = vs
		}
	}
	// The δ edge: Σ nnz == δ can never spill, Σ nnz == δ+1 may (disjoint
	// supports: it does; overlapping supports: it stays sparse).
	for _, c := range []struct {
		name     string
		delta    int
		disjoint bool
	}{
		{"total==delta", 120, false}, {"total==delta+1", 119, false},
		{"total==delta/disjoint", 120, true}, {"total==delta+1/disjoint", 119, true},
	} {
		vs := windowStreams(rng, 4096, 512, 200, 4, 30, OpSum)
		if c.disjoint {
			for r := range vs {
				idx := make([]int32, 30)
				val := make([]float64, 30)
				for i := range idx {
					idx[i], val[i] = int32(512+4*i+r), float64(r+1)
				}
				vs[r] = NewSparse(4096, idx, val, OpSum)
			}
		}
		for _, v := range vs {
			v.SetDelta(c.delta)
		}
		cases[c.name] = vs
	}
	return cases
}

// TestAddAllDigests pins the bytes of AddAll and MergeK results across
// commits: SHA-256 over the AppendWire form (representation, δ, indices,
// value bits) of MergeK(vs) — AddAll into an empty v — followed by
// vs[0].Clone().AddAll(vs[1:]) with a nil and with a warm Scratch. Recorded
// at the commit before the windowed-scatter kernel; a kernel change that
// moves one bit of one result fails here.
func TestAddAllDigests(t *testing.T) {
	want := map[string]string{
		"16x2000@2^18":            "43dc3e434594d873469896d338c10f97e67ad11c88cd2d87eb0b2ab40891af04",
		"3x40@2^16":               "9a126b65f97d9db8c8bcacef3c9cb80730ef3d607125dfde69e304b5f391934e",
		"4x2000@2^18":             "1955e791a49e4f6ebd924e0afe59014050549671bf2f14d0b9449695a6aced8e",
		"64x2000@2^18":            "a623154ae050a4447683b2b79657e22c3dd03d8de43bd77c104515a8296cde19",
		"8x16k/131072@2^20":       "27c9df242908fad69998bd3de6415734bd72b4718c9a31af0fc3717c146f6c37",
		"8x8k/131072@2^20":        "930c39ed0dedfe800e0d09530a45c5410c642a68344dd1e05e74a024a0ed2244",
		"cancel-refill":           "7d1c1424b71167aca08b03aea7a5633ce6e79777bfcee31554ab927306a401b2",
		"total==delta":            "7abfc49565049d233dbe42e62e4f8a4cb5570f9ed2206a8c70969081cc4da319",
		"total==delta+1":          "aa0c2c4c62effae455f25098a6aea4e66454a0cb9de3151e7da5d7921ff12976",
		"total==delta+1/disjoint": "2dc1379d207a865fa12c67abffb58061fe889396ed55e63b2fa7e3fe7fda73e8",
		"total==delta/disjoint":   "3f5d9c47a4bd57df859b1ede0a24315ca1b3f5b3d6da4b8ded8f20a4b29845bc",
		"word/0..63/MAX":          "95cdeb2f11af8dbece1083e5d552bc382400f1c4de6a00bc84cf110b64ae59d1",
		"word/0..63/MIN":          "b63c9d0933f4ba6a087f0fa03d2c2230d1e4858e3771c68b47c48d20f97a2633",
		"word/0..63/PROD":         "04b29424e7c632dd96c6b637554cee33dc49d734e2f8db022d2007a5630ee70a",
		"word/0..63/SUM":          "b1cd9cc8c33dec600c09bb5bf4366559d7781d5f4480f7340e30be3865abd5a1",
		"word/1..128/MAX":         "83f5abfe42a4565e1392f0680ce907731ee6a5427c4f9459312455eea0869fb8",
		"word/1..128/MIN":         "178c366cb2b067fc4bb56262223f9d4a61ebcb55e086ab0f824a9408bcca10be",
		"word/1..128/PROD":        "03963cdfd3a4e55e4391df436785d2d73bd40b7a21a58f433c52241b70bd3a4b",
		"word/1..128/SUM":         "49b42c5367b40c9bb154e769f420ba980767aa529c0b622d31e2b5005c80a9ab",
		"word/127..255/MAX":       "384fa442e8e248667e15560e388e4b869a84649d8dacacf42908aec6785a9aff",
		"word/127..255/MIN":       "6393bce24ad408b5344a744131adba6b745acc5a850f20cbde572a7599eb89fd",
		"word/127..255/PROD":      "a4e503b528630277d77faa75a5ee6f0a8993ad1f69594d3f1fbf2497fab8efcb",
		"word/127..255/SUM":       "9f6de0b874ee060801244585498fdb2add9e1ca6e86f73cc089e5572d5bdb6c7",
		"word/128..192/MAX":       "1356494f1c234e433ce42d1eb54beee9b01512d15d2c421ad5dbd8d7616608ab",
		"word/128..192/MIN":       "ff8bf0451790b8e81d83cbf0b173ce9ea5ad92a103ff7eb890682b174f501fad",
		"word/128..192/PROD":      "d06630a08f1258f49edc987f47188c849f8b6f27ca8e3a826cbfbb94f5bb1571",
		"word/128..192/SUM":       "78a09d66aa839b4b318c8362c610f4fbb4dfc0a9013c2d94fe01e69ceb750327",
		"word/63..64/MAX":         "3b0dae6e5a466f6915cf4634c367cf67273ef5b7665b9c6f997e9b5d6b1ed90c",
		"word/63..64/MIN":         "77d201ae2fbfff8e2b61c56e3a00b9fabe52685c128be50c62288af9c1c70cc1",
		"word/63..64/PROD":        "f1d0e70d42533bdd87930aa221a00063adf6bf7b674bfed46c1a64fa481e3d0c",
		"word/63..64/SUM":         "9cf173205cb7eff37417432a8f51c48d23c1923d5fbf4520d4265f89ec7913ba",
		"word/64..127/MAX":        "b48c4a5e2e73306a4209975a4a008f256b7e58b7ef928c56f8adad980a2e4079",
		"word/64..127/MIN":        "af66f48fe8d9504caad9e4d8c3ddc854ee64adb04f210752c4b9b999725f1a8f",
		"word/64..127/PROD":       "3822048fb455113f0b550988f445128b7b8a2b52b0117ef03b6b3e05ce49447f",
		"word/64..127/SUM":        "4925de276854c4e2858079e0943e74bef8746a72b09e0db9959cb09fcce24886",
	}
	sc := NewScratch()
	for name, vs := range mergeDigestCases() {
		h := sha256.New()
		h.Write(MergeK(vs, nil).AppendWire(nil))
		for _, s := range []*Scratch{nil, sc, sc} {
			acc := vs[0].Clone()
			acc.AddAll(vs[1:], s)
			h.Write(acc.AppendWire(nil))
			s.Release(acc)
		}
		got := hex.EncodeToString(h.Sum(nil))
		if got != want[name] {
			t.Errorf("%s: digest %s, pinned %s", name, got, want[name])
		}
	}
}
