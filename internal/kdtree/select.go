package kdtree

// This file holds the allocation-free index sort of the descriptor-space
// tree in internal/features, which sorts every level fully because the
// order a level leaves its halves in decides its children's axes (the 3D
// trees split presorted lists instead; presort.go). It orders point
// indices by the strict total order every tree builder in the repo splits
// in — ascending (coordinate, index) — so a median split is a function of
// the point *set* alone, without sort.Slice's per-call closure and
// swapper.

// Key is a coordinate type SortIndex orders by: float64 descriptor
// columns for the feature tree, float32 slab axes in tests.
type Key interface{ ~float32 | ~float64 }

// sortCutoff is the range size below which the sort finishes with an
// insertion sort.
const sortCutoff = 12

// SortIndex sorts idx ascending by (col[i*stride], i). col[i*stride] is
// point i's coordinate: stride 1 over an axis slab, the row width over
// one column of a row-major matrix.
func SortIndex[K Key](idx []int32, col []K, stride int) {
	// Recurse into the smaller side and loop on the larger so stack
	// depth stays O(log n).
	for len(idx) > sortCutoff {
		p := partitionIndex(idx, col, stride)
		if p < len(idx)-p-1 {
			SortIndex(idx[:p], col, stride)
			idx = idx[p+1:]
		} else {
			SortIndex(idx[p+1:], col, stride)
			idx = idx[:p]
		}
	}
	insertionSortIndex(idx, col, stride)
}

// indexLess is the builders' total order: coordinate first, index on
// ties, so duplicate coordinates never make a split ambiguous.
func indexLess[K Key](col []K, stride int, a, b int32) bool {
	ka, kb := col[int(a)*stride], col[int(b)*stride]
	if ka != kb {
		return ka < kb
	}
	return a < b
}

func insertionSortIndex[K Key](idx []int32, col []K, stride int) {
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && indexLess(col, stride, idx[j], idx[j-1]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

// partitionIndex partitions idx (len >= 3) around a median-of-three
// pivot and returns the pivot's final position. The scans carry explicit
// bounds, so an inconsistent order (NaN coordinates) can misplace
// elements but never index out of range.
func partitionIndex[K Key](idx []int32, col []K, stride int) int {
	hi := len(idx) - 1
	mid := hi / 2
	if indexLess(col, stride, idx[mid], idx[0]) {
		idx[mid], idx[0] = idx[0], idx[mid]
	}
	if indexLess(col, stride, idx[hi], idx[0]) {
		idx[hi], idx[0] = idx[0], idx[hi]
	}
	if indexLess(col, stride, idx[hi], idx[mid]) {
		idx[hi], idx[mid] = idx[mid], idx[hi]
	}
	// idx[0] <= idx[mid] <= idx[hi]: the ends are already on their
	// sides; park the pivot at hi-1 and partition what lies between.
	idx[mid], idx[hi-1] = idx[hi-1], idx[mid]
	pivot := idx[hi-1]
	pk := col[int(pivot)*stride]
	i, j := 0, hi-1
	for {
		for i++; i < hi-1; i++ {
			if k := col[int(idx[i])*stride]; !(k < pk || (k == pk && idx[i] < pivot)) {
				break
			}
		}
		for j--; j > 0; j-- {
			if k := col[int(idx[j])*stride]; !(k > pk || (k == pk && idx[j] > pivot)) {
				break
			}
		}
		if i >= j {
			break
		}
		idx[i], idx[j] = idx[j], idx[i]
	}
	idx[i], idx[hi-1] = idx[hi-1], idx[i]
	return i
}
