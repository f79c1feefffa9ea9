package search

import (
	"time"

	"tigris/internal/cloud"
	"tigris/internal/geom"
	"tigris/internal/kdtree"
	"tigris/internal/par"
)

// BruteSearcher answers every query by linear scan. It is the degenerate
// structure the paper's §4.1 taxonomy starts from (a two-stage tree with
// top height 0 is exactly one brute-forced leaf), the correctness oracle
// the tree backends are tested against, and — because it builds in O(1) —
// the fastest end-to-end choice for tiny clouds where tree construction
// dominates query time. It registers as the "bruteforce" backend.
type BruteSearcher struct {
	slab        *cloud.Slab
	stats       kdtree.Stats
	metrics     Metrics
	parallelism int
}

// NewBruteSearcher quantizes pts into a fresh SoA slab without building
// any index; BuildTime records only the quantization pass.
func NewBruteSearcher(pts []geom.Vec3) *BruteSearcher {
	s := &BruteSearcher{parallelism: par.Workers(0)}
	start := time.Now()
	s.slab = cloud.SlabFromPoints(pts)
	s.metrics.BuildTime = time.Since(start)
	return s
}

// NewBruteSearcherSlab wraps an existing slab without copying or
// indexing; BuildTime is recorded (and is effectively zero).
func NewBruteSearcherSlab(slab *cloud.Slab) *BruteSearcher {
	s := &BruteSearcher{parallelism: par.Workers(0)}
	start := time.Now()
	s.slab = slab
	s.metrics.BuildTime = time.Since(start)
	return s
}

// SetParallelism implements Searcher.
func (s *BruteSearcher) SetParallelism(n int) { s.parallelism = par.Workers(n) }

// Parallelism implements Searcher.
func (s *BruteSearcher) Parallelism() int { return s.parallelism }

// Nearest implements Searcher.
func (s *BruteSearcher) Nearest(q geom.Vec3) (kdtree.Neighbor, bool) {
	start := time.Now()
	nb, ok := kdtree.BruteNearestSlab(s.slab, q)
	s.count(&s.stats)
	s.record(start)
	return nb, ok
}

// KNearest implements Searcher.
func (s *BruteSearcher) KNearest(q geom.Vec3, k int) []kdtree.Neighbor {
	start := time.Now()
	res := kdtree.BruteKNearestIntoSlab(s.slab, q, k, nil)
	s.count(&s.stats)
	s.record(start)
	return res
}

// Radius implements Searcher.
func (s *BruteSearcher) Radius(q geom.Vec3, r float64) []kdtree.Neighbor {
	start := time.Now()
	res := kdtree.BruteRadiusIntoSlab(s.slab, q, r, nil)
	s.count(&s.stats)
	s.record(start)
	return res
}

// NearestBatch implements Searcher.
func (s *BruteSearcher) NearestBatch(qs []geom.Vec3) []kdtree.Neighbor {
	return s.NearestBatchInto(qs, nil)
}

// NearestBatchInto is NearestBatch answering into buf (see
// BatchNearestInto for the contract).
func (s *BruteSearcher) NearestBatchInto(qs []geom.Vec3, buf []kdtree.Neighbor) []kdtree.Neighbor {
	start := time.Now()
	out := growNeighbors(buf, len(qs))
	par.Sharded(len(qs), s.parallelism,
		func(shard *kdtree.Stats, _, i int) {
			nb, ok := kdtree.BruteNearestSlab(s.slab, qs[i])
			if !ok {
				nb = missNeighbor()
			}
			out[i] = nb
			s.count(shard)
		},
		func(shard *kdtree.Stats) { s.stats.Merge(*shard) })
	s.record(start)
	return out
}

// KNearestBatch implements Searcher. The result is a pooled batch;
// consumers that drain it may return it with RecycleBatch.
func (s *BruteSearcher) KNearestBatch(qs []geom.Vec3, k int) [][]kdtree.Neighbor {
	start := time.Now()
	out, arenas := takeBatch(len(qs), s.parallelism)
	if len(arenas) == 1 {
		for i, q := range qs {
			out[i] = fileResult(&arenas[0], kdtree.BruteKNearestIntoSlab(s.slab, q, k, arenaTail(arenas[0])))
			s.count(&s.stats)
		}
	} else {
		fillParallel(out, arenas,
			func(shard *kdtree.Stats, i int, buf []kdtree.Neighbor) []kdtree.Neighbor {
				s.count(shard)
				return kdtree.BruteKNearestIntoSlab(s.slab, qs[i], k, buf)
			},
			func(shard *kdtree.Stats) { s.stats.Merge(*shard) })
	}
	s.record(start)
	return out
}

// RadiusBatch implements Searcher; see KNearestBatch for the batch
// contract.
func (s *BruteSearcher) RadiusBatch(qs []geom.Vec3, r float64) [][]kdtree.Neighbor {
	start := time.Now()
	out, arenas := takeBatch(len(qs), s.parallelism)
	if len(arenas) == 1 {
		for i, q := range qs {
			out[i] = fileResult(&arenas[0], kdtree.BruteRadiusIntoSlab(s.slab, q, r, arenaTail(arenas[0])))
			s.count(&s.stats)
		}
	} else {
		fillParallel(out, arenas,
			func(shard *kdtree.Stats, i int, buf []kdtree.Neighbor) []kdtree.Neighbor {
				s.count(shard)
				return kdtree.BruteRadiusIntoSlab(s.slab, qs[i], r, buf)
			},
			func(shard *kdtree.Stats) { s.stats.Merge(*shard) })
	}
	s.record(start)
	return out
}

// count charges one query's work to a stats shard: a linear scan computes
// every point's distance.
func (s *BruteSearcher) count(stats *kdtree.Stats) {
	stats.Queries++
	stats.NodesVisited += int64(s.slab.Len())
}

// Slab implements Searcher.
func (s *BruteSearcher) Slab() *cloud.Slab { return s.slab }

// Metrics implements Searcher.
func (s *BruteSearcher) Metrics() *Metrics {
	s.metrics.Queries = s.stats.Queries
	s.metrics.NodesVisited = s.stats.NodesVisited
	return &s.metrics
}

func (s *BruteSearcher) record(start time.Time) {
	s.metrics.SearchTime += time.Since(start)
}
