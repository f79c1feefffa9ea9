package kdtree

// This file holds the allocation-free selection and sort every tree
// builder in the repo splits with (this package, internal/twostage, and
// the descriptor-space tree in internal/features). All three order point
// indices by one strict total order — ascending (coordinate, index) — so
// a median split is a function of the point *set* alone: selecting the
// median leaves each half unordered, and because every child re-selects
// on its own axis the finished tree is node-for-node the one the
// historical per-level sort.Slice produced, at O(n) per level instead of
// O(n log n) and without sort.Slice's per-call closure and swapper.

// Key is a coordinate type the builders split on: float32 slab axes for
// the 3D trees, float64 descriptor columns for the feature tree.
type Key interface{ ~float32 | ~float64 }

// selectCutoff is the range size below which selection and sort finish
// with an insertion sort.
const selectCutoff = 12

// SelectIndex rearranges idx so that idx[k] holds the element of rank k
// under ascending (col[i*stride], i), every element before it orders
// lower and every element after it higher. col[i*stride] is point i's
// coordinate: stride 1 over an axis slab, the row width over one column
// of a row-major matrix. The halves are left in no particular order.
func SelectIndex[K Key](idx []int32, k int, col []K, stride int) {
	lo, hi := 0, len(idx)
	for hi-lo > selectCutoff {
		p := lo + partitionIndex(idx[lo:hi], col, stride)
		switch {
		case p == k:
			return
		case p < k:
			lo = p + 1
		default:
			hi = p
		}
	}
	insertionSortIndex(idx[lo:hi], col, stride)
}

// SortIndex sorts idx ascending by (col[i*stride], i) — the order
// SelectIndex selects in. Builders use it only where the order *within*
// a half is part of their output (two-stage leaf sets, the feature
// tree's positional axis sampling).
func SortIndex[K Key](idx []int32, col []K, stride int) {
	// Recurse into the smaller side and loop on the larger so stack
	// depth stays O(log n).
	for len(idx) > selectCutoff {
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
