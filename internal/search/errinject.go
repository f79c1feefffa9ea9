package search

import (
	"tigris/internal/geom"
	"tigris/internal/kdtree"
)

// The error-injection wrappers implement the §4.2 study that quantifies the
// registration pipeline's tolerance to inexact KD-tree search:
//
//   - KthNNSearcher replaces the NN result with the k-th nearest neighbor
//     (Fig. 7a's x-axis).
//   - ShellSearcher replaces radius-r results with the points lying in the
//     spherical shell <r1, r2> with r1 < r < r2 (Fig. 7b's x-axis).
//
// Both embed the searcher they wrap, so every other query kind and the
// rest of the Searcher surface reach it unchanged. Embedding promotes the
// interface's methods only: the optional NearestBatchInto fast path is not
// among them, so BatchNearestInto answers through the wrapper's own
// NearestBatch and cannot bypass an injection.

// KthNNSearcher degrades Nearest to return the K-th nearest neighbor
// (K = 1 is exact).
type KthNNSearcher struct {
	Searcher
	K int
}

// Nearest implements Searcher with the k-th-neighbor substitution.
func (s *KthNNSearcher) Nearest(q geom.Vec3) (kdtree.Neighbor, bool) {
	res := s.Searcher.KNearest(q, max(s.K, 1))
	if len(res) == 0 {
		return kdtree.Neighbor{}, false
	}
	// If the cloud has fewer than k points, fall back to the farthest
	// available, keeping the distortion monotone in K.
	return res[len(res)-1], true
}

// NearestBatch implements Searcher: the whole batch is answered through
// the inner KNearestBatch and degraded per query, so the distortion is
// identical to calling Nearest once per query. The k-NN batch is fully
// consumed here (only the last value survives, by copy), so it goes
// straight back for reuse.
func (s *KthNNSearcher) NearestBatch(qs []geom.Vec3) []kdtree.Neighbor {
	knn := s.Searcher.KNearestBatch(qs, max(s.K, 1))
	out := make([]kdtree.Neighbor, len(qs))
	for i, res := range knn {
		if len(res) == 0 {
			out[i] = kdtree.Neighbor{Index: -1}
			continue
		}
		out[i] = res[len(res)-1]
	}
	RecycleBatch(knn)
	return out
}

// SetStage forwards stage attribution to the wrapped searcher.
func (s *KthNNSearcher) SetStage(stage string) { TagStage(s.Searcher, stage) }

// ShellSearcher degrades Radius(q, r) to return points in the shell
// [R1, R2] instead of the ball [0, r]. The caller chooses R1 < r < R2 as in
// Fig. 7b (e.g. <30 cm, 75 cm> against r = 60 cm).
type ShellSearcher struct {
	Searcher
	R1, R2 float64
}

// shellFilter keeps the neighbors at squared distance >= r1sq, the
// single definition of the shell's inner bound for both query paths.
// It filters in place: the inner query's answer is the returned slice,
// so a pooled batch survives the injection wrapper and RecycleBatch
// downstream takes it back whole.
func shellFilter(outer []kdtree.Neighbor, r1sq float64) []kdtree.Neighbor {
	res := outer[:0]
	for _, nb := range outer {
		if nb.Dist2 >= r1sq {
			res = append(res, nb)
		}
	}
	return res
}

// Radius implements Searcher with the shell substitution.
func (s *ShellSearcher) Radius(q geom.Vec3, r float64) []kdtree.Neighbor {
	return shellFilter(s.Searcher.Radius(q, s.R2), s.R1*s.R1)
}

// RadiusBatch implements Searcher with the shell substitution: the batch
// runs through the inner RadiusBatch at R2 and each result is re-filtered
// exactly as Radius does per query.
func (s *ShellSearcher) RadiusBatch(qs []geom.Vec3, r float64) [][]kdtree.Neighbor {
	outer := s.Searcher.RadiusBatch(qs, s.R2)
	r1sq := s.R1 * s.R1
	for i, res := range outer {
		outer[i] = shellFilter(res, r1sq)
	}
	return outer
}

// SetStage forwards stage attribution to the wrapped searcher.
func (s *ShellSearcher) SetStage(stage string) { TagStage(s.Searcher, stage) }
