package stream

// Support returns a read-only view of the vector's support in its current
// representation, without copying: the sorted index slice of a sparse
// vector (dns nil; values are irrelevant to support shape), or the dense
// array and the operation's neutral element, whose non-neutral entries
// are the support. It is the hook the runtime adaptation layer
// (internal/adapt) sketches input shapes through, inline with the
// reduction hot path, so a sampling sketch costs a few hundred
// nanoseconds per call.
//
// Strictly observe-only: the vector is not modified and nothing is
// allocated or copied. Callers must treat the slices as immutable and must
// not retain them past the call — they alias the vector's live storage,
// which scratch pools may recycle. Reading the support any number of
// times, at any point, never changes the result of subsequent merges — the
// invariant the adapt-layer fuzz tests enforce.
func (v *Vector) Support() (idx []int32, dns []float64, neutral float64) {
	if v.dns != nil {
		return nil, v.dns, v.op.Neutral()
	}
	return v.idx, nil, 0
}
