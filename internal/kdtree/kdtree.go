// Package kdtree implements the canonical KD-tree of the paper (§4.1): a
// binary search tree over k-dimensional points (k=3 here) in which every
// node stores one point and implicitly defines a splitting hyperplane.
// Search prunes any sub-tree whose bounding half-space cannot contain a
// better answer than the current one.
//
// Point cloud registration uses two search kinds (paper §4.1): radius
// search (all points within r of the query) and nearest-neighbor search.
// Both are provided, plus k-nearest-neighbors, which the feature stages
// (normal estimation with a fixed neighbor count, descriptor support
// regions) use.
//
// Every search can report how many tree nodes it visited via Stats; those
// counts drive the redundancy analysis of Fig. 6 and the baseline cost
// models in internal/baseline.
//
// This is the reference structure — Base-KD in the paper's evaluation, the
// tree captured query streams are replayed on, the oracle the two-stage
// tree is tested against — and not what the pipeline searches by default:
// that is internal/twostage, which a pipeline reaches this tree from only
// by naming the "canonical" backend.
//
// Radius answers come ordered by ascending (Dist2, Index), a strict total
// order, so an answer is one fixed sequence whichever backend produced it.
// SortNeighbors (sort.go) puts them in that order for every backend in
// the repo. It deals by distance instead of comparing — a result's d² are
// near-uniform, so n buckets hold about one entry each and the sort is
// linear — using the spare capacity of the result buffer as scratch (the
// *Into methods answer into a caller's buffer; the batch arenas of
// internal/search hand them their whole unfilled tail), and falls back to
// an in-place comparison sort when that room is missing or the distances
// pile up, so the worst case is the comparison sort's.
package kdtree

import (
	"sync"

	"tigris/internal/cloud"
	"tigris/internal/geom"
	"tigris/internal/par"
)

// Neighbor is one search result: the index of a point in the tree's
// backing slice and its squared distance to the query.
type Neighbor struct {
	Index int
	Dist2 float64
}

// Stats accumulates instrumentation across searches. Not safe for
// concurrent use; give each goroutine its own and merge.
type Stats struct {
	// NodesVisited counts tree nodes whose point-to-query distance was
	// computed.
	NodesVisited int64
	// NodesPruned counts sub-trees skipped by the bounding-plane test.
	NodesPruned int64
	// Queries counts search calls.
	Queries int64
}

// Merge adds other's counts into s.
func (s *Stats) Merge(other Stats) {
	s.NodesVisited += other.NodesVisited
	s.NodesPruned += other.NodesPruned
	s.Queries += other.Queries
}

// Totals returns the two counts every index reports alike: search calls,
// and points whose distance to a query was computed.
func (s *Stats) Totals() (queries, visited int64) { return s.Queries, s.NodesVisited }

// node is one tree node. Children are indices into the flat node slice,
// -1 when absent.
type node struct {
	point       int32 // index into the point slice
	left, right int32
	axis        int8
	split       float64 // coordinate of the point along axis
}

// Tree is an immutable KD-tree over an SoA float32 point slab
// (internal/cloud.Slab). The tree keeps a reference to the slab; callers
// must not mutate it afterwards. Coordinates are quantized to float32 on
// ingest and all distance arithmetic runs in float64 on the dequantized
// values, so search results are a deterministic function of the slab and
// the query alone (see the Slab precision contract).
type Tree struct {
	slab       *cloud.Slab
	xs, ys, zs []float32 // the slab's axis slices, cached for traversal
	nodes      []node
	root       int32
}

// dist2 is the traversal kernel: squared float64 distance from q to
// point i, streamed from the per-axis slabs.
func (t *Tree) dist2(q geom.Vec3, i int32) float64 {
	dx := q.X - float64(t.xs[i])
	dy := q.Y - float64(t.ys[i])
	dz := q.Z - float64(t.zs[i])
	return dx*dx + dy*dy + dz*dz
}

// component returns point i's coordinate along axis as float64.
func (t *Tree) component(i int32, axis int) float64 {
	switch axis {
	case 0:
		return float64(t.xs[i])
	case 1:
		return float64(t.ys[i])
	default:
		return float64(t.zs[i])
	}
}

// buildSpawnMin is the smallest subtree worth a fresh goroutine during
// construction: below it splitting the lists is cheaper than scheduling.
const buildSpawnMin = 4096

// BuildSpawnDepth bounds how many recursion levels of a tree build may
// fork for a cap of workers goroutines (<= 0 selects par.Slots): none for
// a single worker, otherwise enough that 2^depth concurrent subtree
// builds reach the cap without goroutine explosion on deep trees. Each
// fork also needs a free slot of the process's budget (internal/par).
// The two-stage builder shares it.
func BuildSpawnDepth(workers int) int {
	w := par.Workers(workers)
	if w <= 1 {
		return 0
	}
	d := 0
	for 1<<d < w {
		d++
	}
	return d + 1
}

// Build constructs a balanced KD-tree by recursive median split along the
// widest-spread axis, the strategy FLANN and PCL use for point clouds,
// with ties broken by point index so the tree is a function of the point
// set. It sorts each axis once and splits the sorted lists level by level
// (Presort), so Build is O(n log n), compares no coordinates after the
// sort, and allocates only the tree and its node array once its scratch
// has been recycled.
//
// Construction parallelizes: sibling subtrees own disjoint windows of the
// sorted lists and are built concurrently to a bounded spawn depth.
// Because a KD subtree over n points holds exactly n nodes, every
// recursion's slot range in the preorder node array is known up front, so
// workers write disjoint, deterministic slots — the resulting tree is
// bit-identical to a sequential build (the Fig. 4b "construction" bar
// shrinks with cores, nothing else changes).
// Build quantizes pts into a fresh slab and
// builds over it; BuildSlab builds zero-copy over an existing slab.
func Build(pts []geom.Vec3) *Tree {
	return BuildSlab(cloud.SlabFromPoints(pts))
}

// BuildSlab constructs the tree directly over an SoA slab without
// copying the coordinates, forking up to one build goroutine per CPU.
// The slab must not be mutated afterwards.
func BuildSlab(s *cloud.Slab) *Tree { return BuildSlabPar(s, 0) }

// BuildSlabPar is BuildSlab on at most workers goroutines (<= 0 selects
// par.Slots; 1 builds on the calling goroutine alone): the caller, and one
// per slot it can borrow as it forks. The tree is identical at every
// setting.
func BuildSlabPar(s *cloud.Slab, workers int) *Tree {
	t := &Tree{slab: s, xs: s.Xs, ys: s.Ys, zs: s.Zs, root: -1}
	n := s.Len()
	if n == 0 {
		return t
	}
	t.nodes = make([]node, n)
	p := AcquirePresort(s.Xs, s.Ys, s.Zs)
	t.root = 0
	t.buildAt(p, 0, n, 0, BuildSpawnDepth(workers))
	p.Release()
	return t
}

// buildAt constructs the subtree over the window [lo, hi) (non-empty) of
// p's lists into the preorder slot range [at, at+hi-lo): the median at
// `at`, the left subtree in the next mid slots, the right subtree after
// it. spawn > 0 allows forking the left child onto its own goroutine,
// which happens when a slot of the process's budget (internal/par) is
// free at that instant.
func (t *Tree) buildAt(p *Presort, lo, hi int, at int32, spawn int) {
	axis, point, split := p.Median(lo, hi)
	mid := (hi - lo) / 2
	n := node{
		point: point,
		axis:  int8(axis),
		split: float64(split),
		left:  -1,
		right: -1,
	}
	if mid > 0 {
		n.left = at + 1
	}
	if hi-lo-mid-1 > 0 {
		n.right = at + 1 + int32(mid)
	}
	t.nodes[at] = n
	if hi-lo <= 3 {
		// The children are single points, read off the sorted list:
		// nothing below needs the other lists split.
		sorted := p.Sorted(axis, lo, hi)
		if n.left >= 0 {
			t.single(n.left, sorted[0])
		}
		if n.right >= 0 {
			t.single(n.right, sorted[2])
		}
		return
	}
	p.Split(lo, hi, axis)
	if spawn > 0 && hi-lo >= buildSpawnMin && par.TryAcquire() {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer par.Release()
			t.buildAt(p, lo, lo+mid, n.left, spawn-1)
		}()
		t.buildAt(p, lo+mid+1, hi, n.right, spawn-1)
		wg.Wait()
		return
	}
	t.buildAt(p, lo, lo+mid, n.left, spawn)
	t.buildAt(p, lo+mid+1, hi, n.right, spawn)
}

// single writes the childless node of point i at slot at: its spreads
// are its coordinates minus themselves, so its axis is x unless one is
// not finite.
func (t *Tree) single(at, i int32) {
	x, y, z := t.xs[i], t.ys[i], t.zs[i]
	axis := widest(x-x, y-y, z-z)
	t.nodes[at] = node{point: i, axis: int8(axis), split: t.component(i, axis), left: -1, right: -1}
}

// Slab exposes the backing SoA point slab (read-only by convention).
func (t *Tree) Slab() *cloud.Slab { return t.slab }

// height returns the height of the subtree at n (0 for a single node, -1
// empty): the balance the build promises.
func (t *Tree) height(n int32) int {
	if n < 0 {
		return -1
	}
	hl := t.height(t.nodes[n].left)
	hr := t.height(t.nodes[n].right)
	if hl > hr {
		return hl + 1
	}
	return hr + 1
}

// Nearest returns the nearest neighbor to q, or ok=false for an empty
// tree. stats may be nil; every call of a search method is one query in
// it, also one with nothing to visit (an empty tree, k <= 0, r < 0).
func (t *Tree) Nearest(q geom.Vec3, stats *Stats) (Neighbor, bool) {
	if stats != nil {
		stats.Queries++
	}
	if t.root < 0 {
		return Neighbor{}, false
	}
	best := Neighbor{Index: -1, Dist2: 1e308}
	t.nearest(t.root, q, &best, stats)
	return best, best.Index >= 0
}

func (t *Tree) nearest(ni int32, q geom.Vec3, best *Neighbor, stats *Stats) {
	n := &t.nodes[ni]
	if stats != nil {
		stats.NodesVisited++
	}
	d2 := t.dist2(q, n.point)
	if d2 < best.Dist2 {
		*best = Neighbor{Index: int(n.point), Dist2: d2}
	}
	diff := q.Component(int(n.axis)) - n.split
	near, far := n.left, n.right
	if diff > 0 {
		near, far = far, near
	}
	if near >= 0 {
		t.nearest(near, q, best, stats)
	}
	if far >= 0 {
		// The far half-space can only help if the splitting plane is closer
		// than the current best.
		if diff*diff < best.Dist2 {
			t.nearest(far, q, best, stats)
		} else if stats != nil {
			stats.NodesPruned++
		}
	}
}

// KNearest returns the k nearest neighbors to q ordered by increasing
// distance. Fewer than k are returned when the tree is smaller than k.
func (t *Tree) KNearest(q geom.Vec3, k int, stats *Stats) []Neighbor {
	return t.KNearestInto(q, k, nil, stats)
}

// KNearestInto is KNearest answering into buf (reset to length 0), so
// callers that recycle result slabs avoid a fresh allocation per query.
// The slab doubles as the candidate heap and is drained in place into
// ascending order, so the returned slice (possibly a regrown replacement
// for buf) carries results identical to KNearest.
func (t *Tree) KNearestInto(q geom.Vec3, k int, buf []Neighbor, stats *Stats) []Neighbor {
	if stats != nil {
		stats.Queries++
	}
	if t.root < 0 || k <= 0 {
		return nil
	}
	h := maxHeap(buf[:0])
	if cap(h) < k && k <= len(t.xs) {
		h = make(maxHeap, 0, k)
	}
	t.kNearest(t.root, q, k, &h, stats)
	return drainHeapAscending(h)
}

func (t *Tree) kNearest(ni int32, q geom.Vec3, k int, h *maxHeap, stats *Stats) {
	n := &t.nodes[ni]
	if stats != nil {
		stats.NodesVisited++
	}
	d2 := t.dist2(q, n.point)
	if len(*h) < k {
		h.push(Neighbor{Index: int(n.point), Dist2: d2})
	} else if d2 < (*h)[0].Dist2 {
		h.replaceTop(Neighbor{Index: int(n.point), Dist2: d2})
	}
	diff := q.Component(int(n.axis)) - n.split
	near, far := n.left, n.right
	if diff > 0 {
		near, far = far, near
	}
	if near >= 0 {
		t.kNearest(near, q, k, h, stats)
	}
	if far >= 0 {
		if len(*h) < k || diff*diff < (*h)[0].Dist2 {
			t.kNearest(far, q, k, h, stats)
		} else if stats != nil {
			stats.NodesPruned++
		}
	}
}

// Radius returns all points within radius r of q (inclusive), ordered by
// increasing distance.
func (t *Tree) Radius(q geom.Vec3, r float64, stats *Stats) []Neighbor {
	return t.RadiusInto(q, r, nil, stats)
}

// RadiusInto is Radius appending into buf (reset to length 0), so callers
// that recycle result slabs avoid a fresh allocation per query. The
// returned slice may be a regrown replacement for buf; results are
// identical to Radius. All of buf's capacity is the call's to write:
// what the answer leaves spare is the sort's scratch (SortNeighbors).
func (t *Tree) RadiusInto(q geom.Vec3, r float64, buf []Neighbor, stats *Stats) []Neighbor {
	if stats != nil {
		stats.Queries++
	}
	if t.root < 0 || r < 0 {
		return nil
	}
	res := buf[:0]
	t.radius(t.root, q, r*r, &res, stats)
	SortNeighbors(res)
	return res
}

func (t *Tree) radius(ni int32, q geom.Vec3, r2 float64, res *[]Neighbor, stats *Stats) {
	n := &t.nodes[ni]
	if stats != nil {
		stats.NodesVisited++
	}
	d2 := t.dist2(q, n.point)
	if d2 <= r2 {
		*res = append(*res, Neighbor{Index: int(n.point), Dist2: d2})
	}
	diff := q.Component(int(n.axis)) - n.split
	near, far := n.left, n.right
	if diff > 0 {
		near, far = far, near
	}
	if near >= 0 {
		t.radius(near, q, r2, res, stats)
	}
	if far >= 0 {
		if diff*diff <= r2 {
			t.radius(far, q, r2, res, stats)
		} else if stats != nil {
			stats.NodesPruned++
		}
	}
}

// maxHeap is a binary max-heap by Dist2, used as the bounded candidate set
// for k-NN.
type maxHeap []Neighbor

func (h *maxHeap) push(n Neighbor) {
	*h = append(*h, n)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent].Dist2 >= (*h)[i].Dist2 {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *maxHeap) replaceTop(n Neighbor) {
	(*h)[0] = n
	h.siftDown(0)
}

func (h *maxHeap) pop() Neighbor {
	top := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return top
}

func (h maxHeap) siftDown(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && h[l].Dist2 > h[largest].Dist2 {
			largest = l
		}
		if r < n && h[r].Dist2 > h[largest].Dist2 {
			largest = r
		}
		if largest == i {
			return
		}
		h[i], h[largest] = h[largest], h[i]
		i = largest
	}
}
