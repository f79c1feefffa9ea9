package kdtree

import "math"

// This file holds the one sort behind every radius answer in the repo:
// the canonical tree, the two-stage tree (exact walk and approximate
// session) and both brute-force oracles end in SortNeighbors.

// insertionMax is the longest result sorted by insertion alone. Longer
// ones are dealt when there is room, and partitioned when there is not:
// BenchmarkSortNeighbors has the deal ahead of the comparison sort from
// the first size past it (on a 2.1 GHz Xeon 15 against 21 ns an entry at
// 16, 13 against 27 at 32, 12 against 40 at 165, 11 against 55 at 1,000).
const insertionMax = 12

// dealRunMax is the fullest bucket a deal may close with one insertion
// pass over the whole result: an entry then moves fewer than dealRunMax
// places, so the pass stays linear. A fuller bucket means the distances
// were nowhere near uniform, and every bucket is sorted on its own.
const dealRunMax = 16

// SortNeighbors orders neighbors by ascending (Dist2, Index) — the result
// order every radius search promises. Each point appears at most once in
// a result, so the key is a strict total order and the outcome is one
// permutation, whatever algorithm produces it; distances are squared
// lengths: never negative, never NaN.
//
// It is a distribution sort, because after the walk itself this is where
// a radius query's time goes (a comparison sort was 58 % of replaying a
// dense frame's query stream). Points on surfaces lie near-uniformly in
// d², so a result of n entries is dealt into n equal-width buckets over
// [0, max d²] — one pass to count, one to place — which leaves about one
// entry a bucket and the result sorted but for neighbours within a
// bucket; a single insertion pass finishes it in linear time.
//
// The deal's scratch is the spare capacity of res itself, 2·len(res)
// entries past its length, whose contents are overwritten: the batch
// arenas (internal/search) answer every query into their unfilled tail,
// so the hot paths have it and nothing is allocated. A result without
// that room is sorted in place by comparison, as is one whose largest
// distance is zero or has overflowed to +Inf. A cloud that defeats the
// buckets (everything at one distance, two tight clusters) costs what
// the comparison sort costs, not more: a bucket holding more than
// dealRunMax entries sends each bucket's run to the comparison sort.
func SortNeighbors(res []Neighbor) {
	n := len(res)
	if n <= insertionMax || cap(res) < 3*n {
		sortNeighborsInPlace(res)
		return
	}
	hi := res[0].Dist2
	for i := 1; i < n; i++ {
		if d := res[i].Dist2; d > hi {
			hi = d
		}
	}
	if !(hi > 0 && hi <= math.MaxFloat64) {
		sortNeighborsInPlace(res)
		return
	}
	// dealt receives the entries bucket by bucket; slots[b].Index counts
	// bucket b, then is where its next entry goes.
	dealt, slots := res[n:2*n], res[2*n:3*n]
	clear(slots)
	scale := float64(n) / hi
	bucket := func(d2 float64) int {
		// max d² itself lands on n, rounding may too; a NaN's conversion
		// lands anywhere, and is put in range like the rest.
		if b := int(d2 * scale); uint(b) < uint(n) {
			return b
		}
		return n - 1
	}
	for i := range res {
		slots[bucket(res[i].Dist2)].Index++
	}
	at, fullest := 0, 0
	for b := range slots {
		c := slots[b].Index
		slots[b].Index = at
		at += c
		fullest = max(fullest, c)
	}
	for i := range res {
		s := &slots[bucket(res[i].Dist2)]
		dealt[s.Index] = res[i]
		s.Index++
	}
	if fullest > dealRunMax {
		// slots[b].Index has moved to where bucket b ends.
		lo := 0
		for b := range slots {
			end := slots[b].Index
			sortNeighborsInPlace(dealt[lo:end])
			lo = end
		}
		copy(res, dealt)
		return
	}
	// Insertion from dealt back into res: buckets are in order, so an
	// entry moves past members of its own bucket only.
	res[0] = dealt[0]
	for i := 1; i < n; i++ {
		x := dealt[i]
		j := i
		for ; j > 0 && neighborLess(x, res[j-1]); j-- {
			res[j] = res[j-1]
		}
		res[j] = x
	}
}

// sortNeighborsInPlace is the comparison sort under the same order,
// needing no scratch: quicksort with median-of-three pivoting, recursing
// into the smaller partition and looping on the larger so stack depth
// stays O(log n), finished by insertion.
func sortNeighborsInPlace(res []Neighbor) {
	for len(res) > insertionMax {
		p := partitionNeighbors(res)
		if p < len(res)-p-1 {
			sortNeighborsInPlace(res[:p])
			res = res[p+1:]
		} else {
			sortNeighborsInPlace(res[p+1:])
			res = res[:p]
		}
	}
	for i := 1; i < len(res); i++ {
		for j := i; j > 0 && neighborLess(res[j], res[j-1]); j-- {
			res[j], res[j-1] = res[j-1], res[j]
		}
	}
}

func neighborLess(a, b Neighbor) bool {
	if a.Dist2 != b.Dist2 {
		return a.Dist2 < b.Dist2
	}
	return a.Index < b.Index
}

// partitionNeighbors Hoare-style partitions res around a median-of-three
// pivot moved to the end, returning the pivot's final position.
func partitionNeighbors(res []Neighbor) int {
	hi := len(res) - 1
	mid := hi / 2
	if neighborLess(res[mid], res[0]) {
		res[mid], res[0] = res[0], res[mid]
	}
	if neighborLess(res[hi], res[0]) {
		res[hi], res[0] = res[0], res[hi]
	}
	if neighborLess(res[hi], res[mid]) {
		res[hi], res[mid] = res[mid], res[hi]
	}
	res[mid], res[hi] = res[hi], res[mid]
	pivot := res[hi]
	at := 0
	for i := 0; i < hi; i++ {
		if neighborLess(res[i], pivot) {
			res[i], res[at] = res[at], res[i]
			at++
		}
	}
	res[at], res[hi] = res[hi], res[at]
	return at
}
