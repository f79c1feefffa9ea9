// Package twostage implements the paper's two-stage KD-tree (§4.1) and the
// approximate leader/follower search algorithm built on it (§4.3,
// Algorithm 1).
//
// The two-stage tree splits a canonical KD-tree at height htop: the top
// half ("top-tree") is identical to the first htop levels of the classic
// tree, but each top-tree leaf organizes all remaining descendant points
// as an *unordered set* that is searched exhaustively. This trades
// redundant distance computations for parallelism: the unordered sets have
// no intra-set dependencies (node-level parallelism), and separate queries
// proceed independently (query-level parallelism), which is exactly what
// the internal/sim accelerator exploits.
//
// The approximate algorithm observes that queries arriving at the same
// leaf are spatially close, so their results are similar. Queries arriving
// at a leaf are split into leaders (searched exhaustively, results cached)
// and followers (searched only against the closest leader's result set).
// A distance discriminator thd decides the split, and the leader set per
// leaf is capped (16 in the accelerator's Leader Buffer, §5.3).
//
// There is one NN walk and one radius walk (Tree.nearest, Tree.radius).
// Exact search runs them bare; an ApproxSession runs them with Algorithm 1
// at the leaves; and a session asked to (LogVisits) writes down every
// walk as the bursts of top-tree nodes and the leaf scans the accelerator
// would execute (Visit). That log is all internal/sim reads: the model
// times the walk the software performed, it does not perform one.
//
// A leaf set is stored as a run: the build's final index permutation is
// kept, the coordinates are copied once into the same order, and leaf j is
// a window [lo, hi) of those four arrays. A leaf visit, exact or under a
// session, is therefore one pass over contiguous memory by one of two
// kernels (scanRadius, scanNearest) with no call and no index gather per
// point. Neither kernel has a data-dependent branch either: at a ball's
// edge "inside or not" is a coin toss a predictor loses, so the radius
// kernel writes every candidate at the end of the answer and advances the
// answer's length by the comparison, and the NN kernel keeps its running
// minimum as the distance's bits and moves it conditionally. This is the
// software shape of what the
// paper's back-end does with a node set — stream it past the query — and
// it is why the two-stage tree, built to expose parallelism to hardware,
// is also the faster index on a CPU and the pipeline's default backend
// (internal/search; the canonical tree of internal/kdtree is the
// reference, selected by name).
//
// A query that moves a little between calls, as ICP's do between
// iterations, need not be walked again: the exact NN walk also proves a
// certificate (Cert) — the leaf set holding the answer and a lower bound
// on the distance to every point outside it — and NearestTracked answers
// from that set alone while the query has not moved far enough to break
// it, with the walk's answer bit for bit.
package twostage

import (
	"math"
	"sync"

	"tigris/internal/cloud"
	"tigris/internal/geom"
	"tigris/internal/kdtree"
	"tigris/internal/par"
)

// Child encodes a top-tree child link: an internal node index (>= 0), an
// empty slot (childNone), or a leaf-set reference (use LeafID to decode).
type Child int32

// childNone marks an absent child.
const childNone Child = -1

// leafBase offsets leaf encodings so they never collide with node indices.
const leafBase Child = -2

// IsLeaf reports whether the child link points at a leaf set.
func (c Child) IsLeaf() bool { return c <= leafBase }

// LeafID returns the leaf-set index encoded in a leaf child link.
func (c Child) LeafID() int { return int(leafBase - c) }

// encodeLeaf builds the child link for leaf set id.
func encodeLeaf(id int) Child { return leafBase - Child(id) }

// topNode is one top-tree node. It stores a point (like the canonical tree)
// and a splitting plane.
type topNode struct {
	Point       int32 // index into the point slice
	Left, Right Child
	Axis        int8
	Split       float64
}

// Tree is a two-stage KD-tree over an SoA float32 point slab. Like the
// canonical tree, coordinates are quantized to float32 on ingest and all
// distance arithmetic runs in float64 on the dequantized values, so the
// unordered leaf-set scans stream two-thirds fewer bytes than the AoS
// layout while results stay a deterministic function of slab and query.
type Tree struct {
	slab       *cloud.Slab
	xs, ys, zs []float32
	nodes      []topNode
	// perm is the index permutation the build arranged; leaf set j is its
	// window leaves[j], and lx, ly, lz hold the coordinates in the same
	// order (lx[k] is xs[perm[k]]), so a leaf scan reads four contiguous
	// runs instead of gathering through the indices.
	perm       []int32
	lx, ly, lz []float32
	leaves     []leafRun
	root       Child
	height     int
}

// leafRun is one leaf set: positions [lo, hi) of the leaf-ordered arrays.
type leafRun struct{ lo, hi int32 }

// dist2 is the squared float64 distance from q to point i, gathered from
// the per-axis slabs: top-tree nodes and a follower's cached results are
// reached by index. Leaf sets are streamed (scanRadius, scanNearest).
func (t *Tree) dist2(q geom.Vec3, i int32) float64 {
	dx := q.X - float64(t.xs[i])
	dy := q.Y - float64(t.ys[i])
	dz := q.Z - float64(t.zs[i])
	return dx*dx + dy*dy + dz*dz
}

// Build constructs a two-stage tree with the given top-tree height. Height
// 0 degenerates to a single unordered set (pure brute force, paper §4.1);
// larger heights approach the canonical tree.
//
// Construction is the canonical tree's (kdtree.Presort: each axis sorted
// once, the sorted lists split level by level) and parallelizes like it:
// median splits only depend on the subset size, so every subtree's
// node-slot and leaf-slot ranges in the preorder layout are computed up
// front (subtreeSize) and sibling subtrees build concurrently into
// disjoint ranges to a bounded spawn depth. The resulting tree is
// bit-identical to a sequential build.
// Build quantizes pts into a fresh slab; BuildSlab builds zero-copy over
// an existing one.
func Build(pts []geom.Vec3, topHeight int) *Tree {
	return BuildSlab(cloud.SlabFromPoints(pts), topHeight)
}

// BuildSlab constructs a two-stage tree directly over an SoA slab
// without copying the coordinates, forking up to one build goroutine per
// CPU. The slab must not be mutated afterwards.
func BuildSlab(s *cloud.Slab, topHeight int) *Tree { return BuildSlabPar(s, topHeight, 0) }

// BuildSlabPar is BuildSlab on at most workers goroutines (<= 0 selects
// par.Slots; 1 builds on the calling goroutine alone): the caller, and one
// per slot of the process's budget (internal/par) it can borrow as it
// forks. The tree is identical at every setting.
func BuildSlabPar(s *cloud.Slab, topHeight, workers int) *Tree {
	if topHeight < 0 {
		topHeight = 0
	}
	t := &Tree{slab: s, xs: s.Xs, ys: s.Ys, zs: s.Zs, height: topHeight, root: childNone}
	n := s.Len()
	if n == 0 {
		return t
	}
	// Every array the build fills is drawn from the pools Recycle hands
	// them back to, and every element of each is written below.
	nNodes, nLeaves := subtreeSize(n, topHeight)
	if nNodes > 0 {
		t.nodes = nodeArrays.Get(int(nNodes))
	}
	if nLeaves > 0 {
		t.leaves = leafArrays.Get(int(nLeaves))
	}
	// The permutation the build writes ends up owned by the tree: every
	// leaf set is a window of it.
	t.perm = permutations.Get(n)
	if topHeight == 0 {
		// One leaf set holding every point, in index order.
		for i := range t.perm {
			t.perm[i] = int32(i)
		}
		t.root = encodeLeaf(0)
		t.leaves[0] = leafRun{0, int32(n)}
	} else {
		p := kdtree.AcquirePresort(s.Xs, s.Ys, s.Zs)
		t.root = Child(0)
		t.buildAt(p, 0, int32(n), 0, 0, 0, kdtree.BuildSpawnDepth(workers))
		p.Release()
	}
	t.orderCoordinates()
	return t
}

// orderCoordinates fills the leaf-ordered coordinate block from the final
// permutation: one array, three runs of it. lx keeps the block's
// capacity, which is how Recycle finds the block. (The slots of top-tree
// node points are filled too and never read.)
func (t *Tree) orderCoordinates() {
	n := len(t.perm)
	block := coordinateBlocks.Get(3 * n)
	t.lx, t.ly, t.lz = block[:n], block[n:2*n:2*n], block[2*n:3*n:3*n]
	for k, pi := range t.perm {
		t.lx[k], t.ly[k], t.lz[k] = t.xs[pi], t.ys[pi], t.zs[pi]
	}
}

// The pools a tree's arrays come from and Recycle returns them to: a
// streaming session builds two trees a frame and drops two.
var (
	coordinateBlocks = par.NewSlicePool(float32(math.NaN()))
	permutations     = par.NewSlicePool(int32(-1))
	nodeArrays       = par.NewSlicePool(topNode{Point: -1, Left: -1, Right: -1, Axis: -1, Split: math.NaN()})
	leafArrays       = par.NewSlicePool(leafRun{-1, -1})
)

// Recycle hands the tree's arrays back for later builds and leaves t
// empty; the slab it indexes is its owner's. Nothing may search t, or
// read a Leaves view or a Cert of it, afterwards.
func (t *Tree) Recycle() {
	coordinateBlocks.Put(t.lx)
	permutations.Put(t.perm)
	nodeArrays.Put(t.nodes)
	leafArrays.Put(t.leaves)
	*t = Tree{root: childNone}
}

// subtreeSize returns the top-tree node count and leaf-set count of the
// subtree over n points with h top-tree levels remaining. Median splits
// depend only on the subset size, so the count is exact.
func subtreeSize(n, h int) (nodes, leaves int32) {
	c := sizePair(n, h)
	return c[0][0], c[0][1]
}

// sizePair returns the (nodes, leaf sets) of the subtrees over n and over
// n+1 points with h levels remaining. The halves of either window have
// m = (n-1)/2 or m+1 points, so one call per level covers both sizes.
func sizePair(n, h int) (c [2][2]int32) {
	switch {
	case h == 0:
		for s := range c {
			if n+s > 0 {
				c[s][1] = 1
			}
		}
		return c
	case n == 0:
		// No points: nothing. One point: one node, both children empty.
		c[1][0] = 1
		return c
	}
	m := (n - 1) / 2
	half := sizePair(m, h-1)
	for s := range c {
		size := n + s
		mid := size / 2
		l, r := half[mid-m], half[size-mid-1-m]
		c[s] = [2]int32{1 + l[0] + r[0], l[1] + r[1]}
	}
	return c
}

// buildSpawnMin mirrors the canonical tree's construction fan-out
// threshold (the spawn depth itself is kdtree.BuildSpawnDepth).
const buildSpawnMin = 4096

// buildAt constructs the subtree over the window [at, at+n) (n > 0) of
// p's sorted lists — the same window of the permutation — at depth,
// writing the top-tree nodes into the preorder slot range starting at
// nodeAt and the leaf sets into consecutive slots starting at leafAt.
func (t *Tree) buildAt(p *kdtree.Presort, at, n int32, depth int, nodeAt, leafAt int32, spawn int) {
	if depth >= t.height {
		// The window is final: its parent wrote it, and sibling windows
		// are disjoint.
		t.leaves[leafAt] = leafRun{at, at + n}
		return
	}
	// The canonical tree's split, so that the top-tree is "exactly the
	// same as the first htop levels of the classic KD-tree" (paper §4.1).
	lo, hi := int(at), int(at+n)
	axis, point, split := p.Median(lo, hi)
	mid := n / 2
	rem := t.height - depth - 1 // top levels remaining below this node
	if rem == 0 {
		// The halves become leaf sets as they stand, and a leaf set's
		// scan order is part of the tree (the accelerator model streams
		// it, approximate search picks leaders in it): every set keeps
		// the (coordinate, index) order of its parent's axis, which is
		// that axis's sorted window, copied as it is.
		copy(t.perm[at:at+n], p.Sorted(axis, lo, hi))
	} else {
		// Deeper levels re-split on their own axis; only the median's
		// slot is final here.
		t.perm[at+mid] = point
		p.Split(lo, hi, axis)
	}
	nd := topNode{
		Point: point,
		Axis:  int8(axis),
		Split: float64(split),
		Left:  childNone,
		Right: childNone,
	}
	leftN, leftL := subtreeSize(int(mid), rem)
	if mid > 0 {
		if rem == 0 {
			nd.Left = encodeLeaf(int(leafAt))
		} else {
			nd.Left = Child(nodeAt + 1)
		}
	}
	if n-mid-1 > 0 {
		if rem == 0 {
			nd.Right = encodeLeaf(int(leafAt + leftL))
		} else {
			nd.Right = Child(nodeAt + 1 + leftN)
		}
	}
	t.nodes[nodeAt] = nd
	rightAt := at + mid + 1
	if spawn > 0 && n >= buildSpawnMin && nd.Left != childNone && nd.Right != childNone && par.TryAcquire() {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer par.Release()
			t.buildAt(p, at, mid, depth+1, nodeAt+1, leafAt, spawn-1)
		}()
		t.buildAt(p, rightAt, n-mid-1, depth+1, nodeAt+1+leftN, leafAt+leftL, spawn-1)
		wg.Wait()
		return
	}
	if nd.Left != childNone {
		t.buildAt(p, at, mid, depth+1, nodeAt+1, leafAt, spawn)
	}
	if nd.Right != childNone {
		t.buildAt(p, rightAt, n-mid-1, depth+1, nodeAt+1+leftN, leafAt+leftL, spawn)
	}
}

// BuildWithLeafSize constructs a two-stage tree whose leaf sets hold
// roughly targetLeafSize points, the x-axis parameter of Fig. 6. The
// corresponding top height is ceil(log2(n / targetLeafSize)).
func BuildWithLeafSize(pts []geom.Vec3, targetLeafSize int) *Tree {
	return BuildWithLeafSizeSlab(cloud.SlabFromPoints(pts), targetLeafSize)
}

// BuildWithLeafSizeSlab is BuildWithLeafSize building zero-copy over an
// existing SoA slab.
func BuildWithLeafSizeSlab(s *cloud.Slab, targetLeafSize int) *Tree {
	return BuildSlab(s, HeightForLeafSize(s.Len(), targetLeafSize))
}

// HeightForLeafSize returns the top-tree height at which n points split
// into leaf sets of at most targetLeafSize points.
func HeightForLeafSize(n, targetLeafSize int) int {
	if targetLeafSize < 1 {
		targetLeafSize = 1
	}
	h := 0
	for size := n; size > targetLeafSize; size = (size - 1) / 2 {
		h++
	}
	return h
}

// Len returns the number of points.
func (t *Tree) Len() int { return len(t.xs) }

// Slab exposes the backing SoA point slab (read-only by convention).
func (t *Tree) Slab() *cloud.Slab { return t.slab }

// Points materializes the dequantized points as a fresh AoS slice — an
// O(n) copy for diagnostics and tools; hot paths use Slab.
func (t *Tree) Points() []geom.Vec3 { return t.slab.Points() }

// NumLeaves returns the number of leaf sets.
func (t *Tree) NumLeaves() int { return len(t.leaves) }

// Leaves materializes the unordered leaf sets as point indices in scan
// order, each a window of the tree's permutation (read-only by
// convention) — for diagnostics and tests; searches stream the runs.
func (t *Tree) Leaves() [][]int32 {
	sets := make([][]int32, len(t.leaves))
	for j, l := range t.leaves {
		sets[j] = t.perm[l.lo:l.hi:l.hi]
	}
	return sets
}

// Stats instruments two-stage searches. The split between top-tree visits
// and leaf-set visits matters: the paper's Fig. 6 counts both as "nodes
// visited", while the accelerator maps the former onto Recursion Units and
// the latter onto Search Unit PEs. The counts are of the distances a
// search computed: a NearestTracked query answered from its certificate
// counts one query and only its set's points, so the visit counts of the
// searchers ICP queries fall below those of walking every query. (A
// replayed query stream, on which the accelerator model and the
// nodes-per-query figures rest, is walked in full.)
type Stats struct {
	TopNodesVisited  int64 // top-tree nodes whose distance was computed
	TopNodesPruned   int64 // top-tree sub-trees skipped
	LeafPointsViewed int64 // points scanned in exhaustive leaf searches
	LeaderChecks     int64 // leader-distance computations (approx mode)
	FollowerHits     int64 // queries served via a leader's result set
	LeaderInserts    int64 // queries promoted to leaders
	Queries          int64
}

// TotalVisited returns the Fig. 6 "nodes visited" metric: every point whose
// distance to a query was computed.
func (s *Stats) TotalVisited() int64 {
	return s.TopNodesVisited + s.LeafPointsViewed + s.LeaderChecks
}

// Merge adds other's counters into s.
func (s *Stats) Merge(other Stats) {
	s.TopNodesVisited += other.TopNodesVisited
	s.TopNodesPruned += other.TopNodesPruned
	s.LeafPointsViewed += other.LeafPointsViewed
	s.LeaderChecks += other.LeaderChecks
	s.FollowerHits += other.FollowerHits
	s.LeaderInserts += other.LeaderInserts
	s.Queries += other.Queries
}

// Totals returns the two counts every index reports alike: search calls,
// and TotalVisited.
func (s *Stats) Totals() (queries, visited int64) { return s.Queries, s.TotalVisited() }

// Nearest performs an exact NN search on the two-stage structure.
func (t *Tree) Nearest(q geom.Vec3, stats *Stats) (kdtree.Neighbor, bool) {
	if stats != nil {
		stats.Queries++
	}
	w := t.walk(q, false, stats, nil)
	return w.best, w.best.Index >= 0
}

// Cert certifies a query's nearest neighbour for as long as the query
// stays close to where it was answered: it names the leaf set, or the
// top-tree node, that held the answer, and how far the query may move
// before a point outside it could be as near as the set's own nearest.
// NearestTracked issues and reads it. The zero Cert certifies nothing.
type Cert struct {
	set Child
	// reach is the lower bound the walk proved on the distance from the
	// query to every point outside set, less the rounding margins
	// (NearestTracked); a NaN or non-positive reach certifies nothing.
	reach float64
}

// Rounding margins on a certificate's slack: relative on each of its two
// terms (the proved gap and the query's accumulated displacement) and
// absolute on the difference. The float64 rounding they cover — of the
// squared distances the gap is the minimum of, of its square root, of the
// displacement sums and of the subtraction — is a few parts in 1e16.
const (
	certRel = 1e-9
	certAbs = 1e-12 // metres
)

// NearestTracked is Nearest for a query that moves between calls. c is
// the query's certificate and *moved the distance the query has moved
// since c was issued (the sum of its displacements bounds it), both owned
// by the caller; the zero Cert with *moved = 0 starts a query.
//
// When the certified set, scanned at q, has a nearest point nearer than
// the certificate's reach less *moved, every point outside the set is
// strictly farther from q, so that point — the set's first nearest in
// stored order — is the answer, and it is the answer Nearest gives, with
// the same Dist2 bits: Nearest's walk reaches the set before any bound
// could prune it and scans it in the same order with the same arithmetic.
// Otherwise q is walked as Nearest walks it, and c and *moved are reset
// to the new certificate and zero. A NaN or infinite position or
// displacement fails the check, so such a query is always walked.
//
// Either way the call counts one query, and stats counts the distances it
// computed: a certified answer only the set's, a failed check the set's
// and the walk's.
func (t *Tree) NearestTracked(q geom.Vec3, c *Cert, moved *float64, stats *Stats) (kdtree.Neighbor, bool) {
	if stats != nil {
		stats.Queries++
	}
	if slack := c.reach - *moved*(1+certRel); slack > 0 {
		if nb, ok := t.nearestIn(c.set, q, stats); ok && math.Sqrt(nb.Dist2) < slack {
			return nb, true
		}
	}
	w := t.walk(q, true, stats, nil)
	*c, *moved = w.cert(), 0
	return w.best, w.best.Index >= 0
}

// nearestIn is the nearest point to q of one certified set: a leaf set's
// first nearest in stored order, or a top-tree node's own point.
func (t *Tree) nearestIn(set Child, q geom.Vec3, stats *Stats) (kdtree.Neighbor, bool) {
	if !set.IsLeaf() {
		if stats != nil {
			stats.TopNodesVisited++
		}
		p := t.nodes[set].Point
		return kdtree.Neighbor{Index: int(p), Dist2: t.dist2(q, p)}, true
	}
	l := t.leaves[set.LeafID()]
	if stats != nil {
		stats.LeafPointsViewed += int64(l.hi - l.lo)
	}
	at, d2, _, _, _ := t.scanNearest(l, q, math.MaxFloat64)
	if at < 0 {
		return kdtree.Neighbor{}, false
	}
	return kdtree.Neighbor{Index: int(t.perm[at]), Dist2: d2}, true
}

// nnWalk is what the NN walk carries: the best point so far and, for a
// certificate, the leaf set or top-tree node holding it and gap2, a lower
// bound on the squared distance from the query to every point outside
// that set. gap2 is the minimum over the nearest points of the other
// leaves scanned, the other top-tree points visited (the bests the answer
// superseded among them) and the squared distances to the planes of the
// far sides pruned. Only a walk asked for a certificate (track) keeps
// gap2, so that plain Nearest pays a predicted branch for it and no more;
// under an ApproxSession only best is kept.
type nnWalk struct {
	best  kdtree.Neighbor
	set   Child
	gap2  float64
	track bool
}

// fold lowers gap2 to d2 on a tracked walk; a NaN sticks (min's rule), so
// that it certifies nothing.
func (w *nnWalk) fold(d2 float64) {
	if w.track {
		w.gap2 = min(w.gap2, d2)
	}
}

// improve makes nb, found in set, the best: the best it supersedes lies
// outside set and becomes part of the gap.
func (w *nnWalk) improve(nb kdtree.Neighbor, set Child) {
	w.fold(w.best.Dist2)
	w.best, w.set = nb, set
}

// cert is the certificate the finished walk proves (the zero Cert when it
// found nothing).
func (w *nnWalk) cert() Cert {
	if w.best.Index < 0 {
		return Cert{}
	}
	return Cert{set: w.set, reach: math.Sqrt(w.gap2)*(1-certRel) - certAbs}
}

// walk runs the NN walk from the root, under session s when it is not
// nil, proving a certificate when track is set.
func (t *Tree) walk(q geom.Vec3, track bool, stats *Stats, s *ApproxSession) nnWalk {
	w := nnWalk{best: kdtree.Neighbor{Index: -1, Dist2: math.MaxFloat64}, set: childNone, gap2: math.MaxFloat64, track: track}
	t.nearest(t.root, q, &w, stats, s)
	return w
}

// nearest is the NN walk, the only one: Tree.Nearest, NearestTracked,
// ApproxSession and, through a session's visit log, the accelerator model
// all run it. It descends the near child first and tests the far child
// against the bound the near subtree left behind. s is what a walk carries
// beyond exact search — Algorithm 1's leaders and the visit being
// recorded — and is nil for plain exact search, which then pays one branch
// per leaf and nil checks per node for the sharing.
func (t *Tree) nearest(c Child, q geom.Vec3, w *nnWalk, stats *Stats, s *ApproxSession) {
	switch {
	case c == childNone:
		return
	case c.IsLeaf():
		if s != nil {
			s.nearestLeaf(c.LeafID(), q, &w.best, stats)
			return
		}
		l := t.leaves[c.LeafID()]
		if stats != nil {
			stats.LeafPointsViewed += int64(l.hi - l.lo)
		}
		if at, d2, _, _, low := t.scanNearest(l, q, w.best.Dist2); at >= 0 {
			w.improve(kdtree.Neighbor{Index: int(t.perm[at]), Dist2: d2}, c)
		} else {
			w.fold(low)
		}
	default:
		n := &t.nodes[c]
		if stats != nil {
			stats.TopNodesVisited++
		}
		if s != nil {
			s.open.TopNodes++
		}
		if d2 := t.dist2(q, n.Point); d2 < w.best.Dist2 {
			w.improve(kdtree.Neighbor{Index: int(n.Point), Dist2: d2}, c)
			if s != nil {
				s.open.ResultWrites++
			}
		} else {
			w.fold(d2)
		}
		diff := q.Component(int(n.Axis)) - n.Split
		near, far := n.Left, n.Right
		if diff > 0 {
			near, far = far, near
		}
		t.nearest(near, q, w, stats, s)
		if far != childNone {
			if diff*diff < w.best.Dist2 {
				t.nearest(far, q, w, stats, s)
			} else {
				w.fold(diff * diff)
				if stats != nil {
					stats.TopNodesPruned++
				}
				if s != nil {
					s.open.Pruned++
				}
			}
		}
	}
}

// Radius performs an exact radius search on the two-stage structure,
// returning neighbors in ascending distance order.
func (t *Tree) Radius(q geom.Vec3, r float64, stats *Stats) []kdtree.Neighbor {
	return t.RadiusInto(q, r, nil, stats)
}

// RadiusInto is Radius appending into buf (reset to length 0), so callers
// that recycle result slabs avoid a fresh allocation per query. The
// returned slice may be a regrown replacement for buf; results are
// identical to Radius. A negative radius is an empty ball, not |r|.
func (t *Tree) RadiusInto(q geom.Vec3, r float64, buf []kdtree.Neighbor, stats *Stats) []kdtree.Neighbor {
	if stats != nil {
		stats.Queries++
	}
	if r < 0 {
		return nil
	}
	res := buf[:0]
	t.radius(t.root, q, r*r, &res, stats, nil)
	kdtree.SortNeighbors(res)
	return res
}

// KNearestInto answers k-NN exactly and as one query, into buf like
// RadiusInto: the radius walk from twice the NN distance, doubled until k
// neighbors are inside. There is no leader/follower path: the stages that
// use k-NN are the sparse ones the paper excludes from approximation (§4.2).
func (t *Tree) KNearestInto(q geom.Vec3, k int, buf []kdtree.Neighbor, stats *Stats) []kdtree.Neighbor {
	if stats != nil {
		stats.Queries++
	}
	if k <= 0 || t.Len() == 0 {
		return nil
	}
	r := 2 * (1e-6 + math.Sqrt(t.walk(q, false, stats, nil).best.Dist2))
	res := buf[:0]
	for i := 0; i < 64; i++ {
		res = res[:0] // a pass starts over, in whatever the last one regrew into
		t.radius(t.root, q, r*r, &res, stats, nil)
		if len(res) >= k || len(res) == t.Len() {
			break
		}
		r *= 2
	}
	kdtree.SortNeighbors(res)
	return res[:min(k, len(res))]
}

// radius is the radius walk; see nearest for s and the visiting order. It
// appends in visiting order and leaves the sorting to its callers.
func (t *Tree) radius(c Child, q geom.Vec3, r2 float64, res *[]kdtree.Neighbor, stats *Stats, s *ApproxSession) {
	switch {
	case c == childNone:
		return
	case c.IsLeaf():
		if s != nil {
			s.radiusLeaf(c.LeafID(), q, r2, res, stats)
			return
		}
		l := t.leaves[c.LeafID()]
		if stats != nil {
			stats.LeafPointsViewed += int64(l.hi - l.lo)
		}
		*res = t.scanRadius(l, q, r2, *res)
	default:
		n := &t.nodes[c]
		if stats != nil {
			stats.TopNodesVisited++
		}
		if s != nil {
			s.open.TopNodes++
		}
		if d2 := t.dist2(q, n.Point); d2 <= r2 {
			*res = append(*res, kdtree.Neighbor{Index: int(n.Point), Dist2: d2})
			if s != nil {
				s.open.ResultWrites++
			}
		}
		diff := q.Component(int(n.Axis)) - n.Split
		near, far := n.Left, n.Right
		if diff > 0 {
			near, far = far, near
		}
		t.radius(near, q, r2, res, stats, s)
		if far != childNone {
			if diff*diff <= r2 {
				t.radius(far, q, r2, res, stats, s)
			} else {
				if stats != nil {
					stats.TopNodesPruned++
				}
				if s != nil {
					s.open.Pruned++
				}
			}
		}
	}
}

// coordinates returns leaf set l's coordinate runs, equally long.
func (t *Tree) coordinates(l leafRun) (xs, ys, zs []float32) {
	xs = t.lx[l.lo:l.hi]
	return xs, t.ly[l.lo:l.hi][:len(xs)], t.lz[l.lo:l.hi][:len(xs)]
}

// scanRadius is the exhaustive scan of one leaf set: it appends to res, in
// the set's stored order, every point within r2 of q. The set is read as
// four contiguous runs, and whether a point is inside — which no predictor
// can learn at a ball's edge — is not a branch: every candidate is written
// at the end of res and the length advances by the comparison. Room for the
// whole set is therefore reserved up front (the batch arenas' tail has it;
// otherwise res moves to a larger array), and nothing is ever written
// beyond that, so cap(res) bounds what a scan may touch.
func (t *Tree) scanRadius(l leafRun, q geom.Vec3, r2 float64, res []kdtree.Neighbor) []kdtree.Neighbor {
	n, m := len(res), int(l.hi-l.lo)
	if cap(res)-n < m {
		grown := make([]kdtree.Neighbor, n, max(2*cap(res), n+m))
		copy(grown, res)
		res = grown
	}
	out := res[n : n+m]
	xs, ys, zs := t.coordinates(l)
	idx := t.perm[l.lo:l.hi][:len(xs)]
	k := 0
	for i, x := range xs {
		dx := q.X - float64(x)
		dy := q.Y - float64(ys[i])
		dz := q.Z - float64(zs[i])
		d2 := dx*dx + dy*dy + dz*dz
		out[k] = kdtree.Neighbor{Index: int(idx[i]), Dist2: d2}
		if d2 <= r2 {
			k++
		}
	}
	return res[:n+k]
}

// scanNearest is the exhaustive NN scan of one leaf set: the position in
// the permutation of the point nearest q among those strictly nearer than
// bound (the first such in stored order; -1 when there is none), its
// squared distance (bound when there is none), and how many times the
// running best improved on the way — the result writes the accelerator
// would have made. In the same pass it finds the leaf's own nearest point,
// as a scan with no bound (math.MaxFloat64) would: its position (-1 when
// no distance is below math.MaxFloat64) and its squared distance (then
// math.MaxFloat64). bound must not be NaN.
//
// The scan has no data-dependent branch. A squared distance is never
// negative: it is +0, positive, +Inf or NaN (a NaN keeps its operand's
// sign, so it may be -NaN). Read as uint64, such bit patterns order as
// the values do, and every NaN pattern, of either sign, lies above +Inf.
// So "d < best" is an integer comparison that is false for a NaN exactly
// as the float one is, and the compiler keeps the running minima and the
// position in registers with conditional moves instead of a branch that
// mispredicts whenever a nearer point turns up.
func (t *Tree) scanNearest(l leafRun, q geom.Vec3, bound float64) (at int, d2 float64, writes int32, lowAt int, low float64) {
	xs, ys, zs := t.coordinates(l)
	bb := math.Float64bits(bound)
	rb, lb, la := bb, math.Float64bits(math.MaxFloat64), -1
	for i, x := range xs {
		dx := q.X - float64(x)
		dy := q.Y - float64(ys[i])
		dz := q.Z - float64(zs[i])
		d := math.Float64bits(dx*dx + dy*dy + dz*dz)
		var w int32
		if d < rb {
			w = 1
		}
		writes += w
		rb = min(rb, d)
		if d < lb {
			lb, la = d, i
		}
	}
	lowAt, low = la, math.Float64frombits(lb)
	if la >= 0 {
		lowAt += int(l.lo)
	}
	at = -1
	if rb < bb {
		at = lowAt
	}
	return at, math.Float64frombits(rb), writes, lowAt, low
}
