package kdtree

import (
	"math"

	"tigris/internal/par"
)

// This file holds the construction kernel both 3D trees build on (this
// package's Tree and internal/twostage's): each axis is sorted once, and
// every level then partitions the sorted lists instead of selecting its
// median again (Wald & Havran 2006; Brown, JCGT 2015). The three lists
// keep one invariant: over a subtree's window [lo, hi) every list holds
// the subtree's points, list d in ascending (coordinate d, index) order —
// the order the builders have always split in. A window's spread on an
// axis is then the difference of its list's ends, its median on that axis
// the list's middle entry, and splitting is a stable partition of the two
// other lists, so a build is O(n log n) with no comparison after the
// sort, and the tree is node for node the one per-level median selection
// built.

// Presort is one build's scratch: the sorted axis lists and what
// partitioning them needs. AcquirePresort fills it and Release recycles
// it. Sibling subtrees may use it concurrently: their windows of the
// lists and the buffer are disjoint, and so are their side marks, which
// are indexed by point.
type Presort struct {
	cols  [3][]float32
	lists [3][]int32
	// buf holds a window's right side while one list is partitioned.
	buf []int32
	// side marks every point of the window being split: left of the
	// median, right of it, or the median itself.
	side []uint8
	// radix and count are the sort's ping-pong buffers of (key, index)
	// pairs and its per-digit histograms.
	radix [2][]uint64
	count [3][1 << radixBits]int32
}

// Side marks: one bit per cursor a partition advances, none for the
// median, which is written to both and kept by neither.
const (
	sideMedian uint8 = 0
	sideLeft   uint8 = 1
	sideRight  uint8 = 2
)

// radixBits is the digit width of the axis sort: three passes cover a
// 32-bit key, and a pass's histogram (8 KiB) stays in L1.
const radixBits = 11

// idlePresorts recycles the scratch across builds: a streaming session
// builds two trees per frame forever, and the lists are dead the moment
// the node array is filled.
var idlePresorts par.FreeList[*Presort]

// AcquirePresort sorts the indices of the points (xs[i], ys[i], zs[i])
// along each axis, in the recycled scratch of an earlier build when one
// is idle. The caller must Release it once the build is done.
func AcquirePresort(xs, ys, zs []float32) *Presort {
	p, ok := idlePresorts.Get()
	if !ok {
		p = new(Presort)
	}
	n := len(xs)
	p.cols = [3][]float32{xs, ys, zs}
	for d := range p.lists {
		p.lists[d] = resize(p.lists[d], n)
	}
	p.buf = resize(p.buf, n)
	p.side = resize(p.side, n)
	p.radix[0] = resize(p.radix[0], n)
	p.radix[1] = resize(p.radix[1], n)
	for d := range p.lists {
		p.sortAxis(d)
	}
	return p
}

// Release hands the scratch back for a later build; p must not be used
// afterwards.
func (p *Presort) Release() {
	p.cols = [3][]float32{}
	idlePresorts.Put(p)
}

// resize returns s with length n. A list that must grow grows an eighth
// past n: a session's frames differ by a few points, and growing to the
// exact size would reallocate on every frame larger than all before it.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/8)
	}
	return s[:n]
}

// orderedKey maps a float32 to a uint32 whose unsigned order is the
// float order, −0 folded onto +0 so that the two zeros tie (and the tie
// goes to the index) as they do under the builders' float comparison.
func orderedKey(v float32) uint32 {
	b := math.Float32bits(v)
	if b == 1<<31 {
		b = 0
	}
	return b ^ (uint32(int32(b)>>31) | 1<<31)
}

// sortAxis fills lists[d] with the point indices in ascending
// (coordinate d, index) order: a stable LSD radix sort of the ordered
// keys that starts from index order, so equal keys stay in index order.
// A pass whose digit is the same for every key is skipped.
func (p *Presort) sortAxis(d int) {
	col := p.cols[d]
	n := len(col)
	if n == 0 {
		return
	}
	src, dst := p.radix[0][:n], p.radix[1][:n]
	c := &p.count
	*c = [3][1 << radixBits]int32{}
	const mask = 1<<radixBits - 1
	for i, v := range col {
		k := orderedKey(v)
		src[i] = uint64(k)<<32 | uint64(i)
		c[0][k&mask]++
		c[1][k>>radixBits&mask]++
		c[2][k>>(2*radixBits)]++
	}
	for pass := range c {
		shift := 32 + radixBits*pass
		cnt := &c[pass]
		if cnt[src[0]>>shift&mask] == int32(n) {
			continue
		}
		var sum int32
		for b, k := range cnt {
			cnt[b], sum = sum, sum+k
		}
		for _, v := range src {
			b := v >> shift & mask
			dst[cnt[b]] = v
			cnt[b]++
		}
		src, dst = dst, src
	}
	list := p.lists[d][:n]
	for i, v := range src {
		list[i] = int32(uint32(v))
	}
}

// widest is the split-axis policy of both trees: the axis of largest
// spread, the lowest on a tie.
func widest(sx, sy, sz float32) int {
	switch {
	case sx >= sy && sx >= sz:
		return 0
	case sy >= sz:
		return 1
	default:
		return 2
	}
}

// Median returns how the window [lo, hi) (non-empty) splits: along the
// axis of widest spread, at the point of rank (hi-lo)/2 on that axis,
// whose coordinate there is split.
func (p *Presort) Median(lo, hi int) (axis int, point int32, split float32) {
	var s [3]float32
	for d, list := range p.lists {
		s[d] = p.cols[d][list[hi-1]] - p.cols[d][list[lo]]
	}
	axis = widest(s[0], s[1], s[2])
	point = p.lists[axis][lo+(hi-lo)/2]
	return axis, point, p.cols[axis][point]
}

// Sorted returns the window [lo, hi) of the list sorted along axis.
func (p *Presort) Sorted(axis, lo, hi int) []int32 { return p.lists[axis][lo:hi:hi] }

// Split partitions the window [lo, hi) at its median on axis (as Median
// chose it): afterwards every list holds the points below the median in
// [lo, mid) and those above it in [mid+1, hi), with mid = lo+(hi-lo)/2,
// each still in its own axis order. The list of axis is already so
// arranged; the other two are partitioned stably.
func (p *Presort) Split(lo, hi, axis int) {
	mid := lo + (hi-lo)/2
	sorted, side := p.lists[axis], p.side
	for _, i := range sorted[lo:mid] {
		side[i] = sideLeft
	}
	side[sorted[mid]] = sideMedian
	for _, i := range sorted[mid+1 : hi] {
		side[i] = sideRight
	}
	for d, list := range p.lists {
		if d != axis {
			partition(list[lo:hi], p.buf[lo:hi], side, mid-lo)
		}
	}
}

// partition moves the entries of list marked left to its front and those
// marked right behind position mid, each side in its original order.
// Without a branch: every entry is written at both cursors — the left one
// in place (it never passes the read position), the right one into buf —
// and its mark advances exactly the cursor of its side, so an entry at
// the wrong cursor is overwritten by the next. The median, marked for
// neither, is dropped; slot mid keeps whatever it held.
func partition(list, buf []int32, side []uint8, mid int) {
	l, r := 0, 0
	for _, i := range list {
		s := side[i]
		list[l] = i
		buf[r] = i
		l += int(s & sideLeft)
		r += int(s >> 1)
	}
	copy(list[mid+1:], buf[:r])
}
