package features

import (
	"math"

	"tigris/internal/par"
)

// descSlabs recycles descriptor data slabs (Descriptors.Data). A
// streaming session computes one descriptor matrix per frame and frees it
// a frame later (PreparedFrame.Release), so a warmed session draws the
// same slabs frame after frame.
var descSlabs = par.NewSlicePool(math.NaN())

// newDescriptorData returns a zeroed slab of length n. Zeroing is
// required: the descriptor kernels accumulate into their rows with +=.
func newDescriptorData(n int) []float64 {
	s := descSlabs.Get(n)
	clear(s)
	return s
}

// RecycleDescriptors hands a descriptor matrix's slab back to the pool.
// The caller must not use d (or any Row view of it) afterwards. Nil or
// empty descriptors are ignored.
func RecycleDescriptors(d *Descriptors) {
	if d == nil {
		return
	}
	descSlabs.Put(d.Data)
	d.Data = nil
}

// matchSlabs recycles FeatureTree.NearestBatch results: KPCE issues one
// (reciprocal: two) batch per pair, forever, in a streaming session, and
// hands each back once it has read it.
var matchSlabs = par.NewSlicePool(FeatureMatch{Row: -1, Dist2: math.NaN()})

// RecycleMatches hands a fully consumed NearestBatch result back to the
// pool. The caller must not use the slice afterwards.
func RecycleMatches(ms []FeatureMatch) { matchSlabs.Put(ms) }
