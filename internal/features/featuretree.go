package features

import (
	"math"
	"time"

	"tigris/internal/kdtree"
	"tigris/internal/par"
)

// FeatureTree is a KD-tree over high-dimensional descriptor vectors, used
// by the Key-Point Correspondence Estimation stage to find feature-space
// nearest neighbors (paper Fig. 2: KPCE "establishes the correspondence
// ... if t's feature is the nearest neighbor of s' feature in the feature
// space"). KPCE counts toward the pipeline's KD-tree search time just like
// the 3D searches.
//
// In high dimensions KD-tree pruning weakens and search degenerates toward
// a linear scan; that is the realistic behavior of the reference pipelines
// too and is why the paper calls KPCE sparse-data search.
//
// A FeatureTree is not safe for concurrent use; NearestBatch parallelizes
// internally with per-worker visit shards, like the search.Searcher batch
// methods.
type FeatureTree struct {
	desc  *Descriptors
	nodes []ftNode
	root  int32
	// Metrics
	BuildTime  time.Duration
	SearchTime time.Duration
	Visited    int64
	Queries    int64
}

type ftNode struct {
	row         int32
	left, right int32
	axis        int32
	split       float64
}

// NewFeatureTree indexes the given descriptors.
func NewFeatureTree(d *Descriptors) *FeatureTree {
	start := time.Now()
	t := &FeatureTree{desc: d, root: -1}
	n := d.Count()
	if n > 0 {
		rows := make([]int32, n)
		for i := range rows {
			rows[i] = int32(i)
		}
		t.nodes = make([]ftNode, 0, n)
		t.root = t.build(rows, 0)
	}
	t.BuildTime = time.Since(start)
	return t
}

// build recursively splits on the axis with the widest spread, cycling
// through a bounded prefix of dimensions for speed (high-dim trees gain
// nothing from scanning all 352 dims for spread).
func (t *FeatureTree) build(rows []int32, depth int) int32 {
	if len(rows) == 0 {
		return -1
	}
	axis := t.widestAxis(rows)
	// Unlike the 3D trees this level sorts fully instead of selecting
	// its median: widestAxis samples rows by position, so the order a
	// level leaves its halves in decides the children's axes. The trees
	// are a few hundred rows, so the sort's only cost that mattered was
	// sort.Slice's allocations.
	kdtree.SortIndex(rows, t.desc.Data[axis:], t.desc.Dim)
	mid := len(rows) / 2
	self := int32(len(t.nodes))
	t.nodes = append(t.nodes, ftNode{
		row:   rows[mid],
		axis:  int32(axis),
		split: t.desc.Row(int(rows[mid]))[axis],
		left:  -1,
		right: -1,
	})
	left := t.build(rows[:mid], depth+1)
	right := t.build(rows[mid+1:], depth+1)
	t.nodes[self].left = left
	t.nodes[self].right = right
	return self
}

// widestAxis samples up to 16 candidate axes for the widest spread.
func (t *FeatureTree) widestAxis(rows []int32) int {
	dim := t.desc.Dim
	stride := dim / 16
	if stride == 0 {
		stride = 1
	}
	bestAxis, bestSpread := 0, -1.0
	for axis := 0; axis < dim; axis += stride {
		lo, hi := math.Inf(1), math.Inf(-1)
		// Sample rows for large sets.
		step := len(rows)/64 + 1
		for i := 0; i < len(rows); i += step {
			v := t.desc.Row(int(rows[i]))[axis]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if spread := hi - lo; spread > bestSpread {
			bestSpread = spread
			bestAxis = axis
		}
	}
	return bestAxis
}

// FeatureMatch is a feature-space nearest neighbor result.
type FeatureMatch struct {
	Row   int
	Dist2 float64
}

// NearestBatch returns, for every query row, the descriptor row nearest
// to it in L2, on a worker pool of the given size (<= 0 selects
// par.Slots). Results are positionally aligned with qs; a miss (empty
// tree) has Row -1. Each worker counts visits into its own shard, merged
// after the batch, and SearchTime accumulates the batch's wall time — so
// the tree's metrics stay exact while the queries run concurrently.
// Results and counts do not depend on the worker count.
//
// The result is drawn from a pool: callers that fully consume it may
// hand it back with RecycleMatches so steady-state batches allocate
// nothing (KPCE does exactly that).
func (t *FeatureTree) NearestBatch(qs [][]float64, parallelism int) []FeatureMatch {
	out := matchSlabs.Get(len(qs))
	if t.root < 0 {
		for i := range out {
			out[i] = FeatureMatch{Row: -1}
		}
		return out
	}
	start := time.Now()
	par.Sharded(len(qs), par.Workers(parallelism),
		func(visited *int64, _, i int) {
			best := FeatureMatch{Row: -1, Dist2: math.MaxFloat64}
			t.nearest(t.root, qs[i], &best, visited)
			out[i] = best
		},
		func(visited *int64) { t.Visited += *visited })
	t.Queries += int64(len(qs))
	t.SearchTime += time.Since(start)
	return out
}

func (t *FeatureTree) nearest(ni int32, q []float64, best *FeatureMatch, visited *int64) {
	n := &t.nodes[ni]
	*visited++
	if d2 := l2dist2(q, t.desc.Row(int(n.row))); d2 < best.Dist2 {
		*best = FeatureMatch{Row: int(n.row), Dist2: d2}
	}
	diff := q[n.axis] - n.split
	near, far := n.left, n.right
	if diff > 0 {
		near, far = far, near
	}
	if near >= 0 {
		t.nearest(near, q, best, visited)
	}
	if far >= 0 && diff*diff < best.Dist2 {
		t.nearest(far, q, best, visited)
	}
}

// l2dist2 returns the squared Euclidean distance between two equal-length
// vectors.
func l2dist2(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

// BruteNearestFeature scans all descriptors for the nearest row; the
// testing oracle for FeatureTree.
func BruteNearestFeature(d *Descriptors, q []float64) (FeatureMatch, bool) {
	best := FeatureMatch{Row: -1, Dist2: math.MaxFloat64}
	for i := 0; i < d.Count(); i++ {
		if d2 := l2dist2(q, d.Row(i)); d2 < best.Dist2 {
			best = FeatureMatch{Row: i, Dist2: d2}
		}
	}
	return best, best.Row >= 0
}
