package stream

import "testing"

// TestObserveRepresentations: Support hands out the live backing storage
// of whichever representation the vector is in, with no copying and no
// mutation.
func TestObserveRepresentations(t *testing.T) {
	v := NewSparse(100, []int32{3, 7, 50}, []float64{1, 2, 3}, OpSum)
	idx, dns, _ := v.Support()
	if len(idx) != 3 || idx[2] != 50 {
		t.Fatalf("sparse support wrong: idx=%v", idx)
	}
	if dns != nil {
		t.Fatal("a sparse vector must not hand out a dense array")
	}
	pairs, _ := v.Pairs()
	if &idx[0] != &pairs[0] {
		t.Fatal("the sparse support must alias the backing storage, not copy it")
	}

	v.Densify()
	idx, dns, neutral := v.Support()
	if idx != nil || len(dns) != 100 || dns[50] != 3 || neutral != 0 {
		t.Fatalf("dense support wrong: idx=%v len=%d neutral=%g", idx, len(dns), neutral)
	}

	prod := NewSparse(10, []int32{1}, []float64{4}, OpProd)
	prod.Densify()
	if _, _, neutral := prod.Support(); neutral != 1 {
		t.Fatalf("OpProd neutral = %g, want 1", neutral)
	}
}

// TestObserveEmpty: an empty vector's support is an empty index slice.
func TestObserveEmpty(t *testing.T) {
	idx, dns, _ := Zero(5, OpSum).Support()
	if len(idx) != 0 || dns != nil {
		t.Fatalf("empty support wrong: idx=%v dns=%v", idx, dns)
	}
}
