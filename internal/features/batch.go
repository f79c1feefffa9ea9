package features

import (
	"tigris/internal/cloud"
	"tigris/internal/geom"
	"tigris/internal/kdtree"
	"tigris/internal/par"
	"tigris/internal/search"
)

// batchBlockSize bounds how many neighborhoods a full-cloud stage
// materializes at once: queries stream through the searcher in blocks,
// each answered by one batch call and consumed by one parallel sweep, so
// peak memory is O(block × neighbors) instead of O(cloud × neighbors)
// on million-point frames. The size is a multiple of
// search.ApproxBatchChunk so the approximate backend's session-chunk
// boundaries — and therefore its results — are identical whether the
// stage issues one big batch or streams blocks.
const batchBlockSize = 32 * search.ApproxBatchChunk

// blockBufs holds the idle dequantized query blocks each full-cloud stage
// streams slab points through; one block serves a whole stage call, so a
// streaming session's stages run without a per-frame block allocation.
var blockBufs par.FreeList[[]geom.Vec3]

// forRadiusBlocks streams slab points through s.RadiusBatch at radius r
// in bounded blocks and hands every query's neighbors to fn on the
// searcher's worker pool: the points idx names, in that order, or every
// point of c when idx is nil. Queries are dequantized
// slab coordinates (float64 of the stored float32), so every stage
// queries exactly the values the search structures index. fn receives
// the worker id (stable within one call, for per-worker tallies), the
// query's point index, and that query's neighbor list; it must write
// results positionally, which keeps the output bit-identical to the
// sequential per-query loop.
func forRadiusBlocks(s search.Searcher, c *cloud.Slab, idx []int, r float64, fn func(worker, i int, nbs []kdtree.Neighbor)) {
	workers := s.Parallelism()
	n := c.Len()
	if idx != nil {
		n = len(idx)
	}
	buf, ok := blockBufs.Get()
	if !ok {
		buf = make([]geom.Vec3, batchBlockSize)
	}
	for lo := 0; lo < n; lo += batchBlockSize {
		hi := lo + batchBlockSize
		if hi > n {
			hi = n
		}
		block := buf[:hi-lo]
		for j := range block {
			block[j] = c.At(pointAt(idx, lo+j))
		}
		nbs := s.RadiusBatch(block, r)
		if workers <= 1 {
			// The plain loop: a one-worker sweep needs no closure, and a
			// stage that issues many small batches (fine-tuning normals,
			// one per ICP iteration) would allocate one each.
			for j := range nbs {
				fn(0, pointAt(idx, lo+j), nbs[j])
			}
		} else {
			par.For(hi-lo, workers, func(w, j int) {
				fn(w, pointAt(idx, lo+j), nbs[j])
			})
		}
		// The sweep consumed every neighbor list; hand the batch back so
		// the next block (and the next frame of a streaming session)
		// answers into the same arenas instead of allocating.
		search.RecycleBatch(nbs)
	}
	blockBufs.Put(buf)
}

// pointAt resolves the j-th query of a sweep to its point index: idx[j],
// or j itself when the sweep covers the whole slab.
func pointAt(idx []int, j int) int {
	if idx != nil {
		return idx[j]
	}
	return j
}
