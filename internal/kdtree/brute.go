package kdtree

import (
	"tigris/internal/cloud"
	"tigris/internal/geom"
)

// The brute-force searches are the ground truth the tree is tested
// against, the degenerate two-stage configuration (top-tree height 0,
// paper §4.1), and the kernel the accelerator back-end runs over leaf
// node-sets.
//
// They scan an SoA slab directly with the same float64-on-dequantized
// kernel the trees use.

// BruteNearestSlab scans the slab linearly for the nearest neighbor of q.
func BruteNearestSlab(s *cloud.Slab, q geom.Vec3) (Neighbor, bool) {
	best := Neighbor{Index: -1, Dist2: 1e308}
	for i := 0; i < s.Len(); i++ {
		if d2 := s.Dist2(q, i); d2 < best.Dist2 {
			best = Neighbor{Index: i, Dist2: d2}
		}
	}
	return best, best.Index >= 0
}

// BruteKNearestIntoSlab scans the slab linearly for the k nearest
// neighbors of q, returned in ascending distance order. It answers into
// buf (reset to length 0), so callers that recycle result slabs avoid a
// fresh allocation per query; the returned slice may be a regrown
// replacement for buf.
func BruteKNearestIntoSlab(s *cloud.Slab, q geom.Vec3, k int, buf []Neighbor) []Neighbor {
	if k <= 0 {
		return nil
	}
	h := maxHeap(buf[:0])
	if cap(h) < k && k <= s.Len() {
		h = make(maxHeap, 0, k)
	}
	for i := 0; i < s.Len(); i++ {
		d2 := s.Dist2(q, i)
		if len(h) < k {
			h.push(Neighbor{Index: i, Dist2: d2})
		} else if d2 < h[0].Dist2 {
			h.replaceTop(Neighbor{Index: i, Dist2: d2})
		}
	}
	return drainHeapAscending(h)
}

// BruteRadiusIntoSlab scans the slab linearly for all points within r of
// q, returned in ascending distance order, appending into buf (reset to
// length 0); see RadiusInto for the slab-recycling contract.
func BruteRadiusIntoSlab(s *cloud.Slab, q geom.Vec3, r float64, buf []Neighbor) []Neighbor {
	if r < 0 {
		return nil
	}
	r2 := r * r
	res := buf[:0]
	for i := 0; i < s.Len(); i++ {
		if d2 := s.Dist2(q, i); d2 <= r2 {
			res = append(res, Neighbor{Index: i, Dist2: d2})
		}
	}
	SortNeighbors(res)
	return res
}

// drainHeapAscending empties a max-heap into ascending order in place:
// each pop shrinks the heap to length i, freeing slot i of the shared
// backing array for the popped (i-th largest) element.
func drainHeapAscending(h maxHeap) []Neighbor {
	res := []Neighbor(h)
	for i := len(h) - 1; i >= 0; i-- {
		nb := h.pop()
		res[i] = nb
	}
	return res
}
