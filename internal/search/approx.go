package search

import (
	"time"

	"tigris/internal/geom"
	"tigris/internal/kdtree"
	"tigris/internal/par"
	"tigris/internal/twostage"
)

// The approximate leader/follower path (§4.3) of the two-stage searcher:
// with TwoStageConfig.Approx set, the four methods below answer through
// leader/follower sessions instead of the shared exact implementation
// they shadow — one session for the sequential calls, one per worker and
// chunk for the batches. (NearestBatch is shadowed only to reach this
// file's NearestBatchInto: a promoted method calls its own receiver's.)

// ApproxBatchChunk is the number of consecutive batch queries served by
// one leader/follower session when the approximate backend answers a
// batch. Chunk boundaries depend only on the batch, never on the worker
// count, so approximate batch results are invariant under Parallelism.
// The chunk bounds how much leader state a worker accumulates, mirroring
// the accelerator's small per-stage Leader Buffers (§5.3).
const ApproxBatchChunk = 256

// Nearest implements Searcher.
func (s *TwoStageSearcher) Nearest(q geom.Vec3) (kdtree.Neighbor, bool) {
	if s.approx == nil {
		return s.searcher.Nearest(q)
	}
	start := time.Now()
	nb, ok := s.session.Nearest(q, &s.stats)
	s.record(start)
	return nb, ok
}

// Radius implements Searcher.
func (s *TwoStageSearcher) Radius(q geom.Vec3, r float64) []kdtree.Neighbor {
	if s.approx == nil {
		return s.searcher.Radius(q, r)
	}
	start := time.Now()
	res := s.session.Radius(q, r, &s.stats)
	s.record(start)
	return res
}

// NearestBatch implements Searcher. With approximation enabled the batch
// is served chunk-by-chunk with a fresh per-worker leader/follower session
// per chunk (the paper's "one session per stage invocation" model), which
// makes the result a deterministic function of the batch alone.
func (s *TwoStageSearcher) NearestBatch(qs []geom.Vec3) []kdtree.Neighbor {
	return s.NearestBatchInto(qs, nil)
}

// NearestBatchInto is NearestBatch answering into buf (see
// BatchNearestInto for the contract).
func (s *TwoStageSearcher) NearestBatchInto(qs []geom.Vec3, buf []kdtree.Neighbor) []kdtree.Neighbor {
	if s.approx == nil {
		return s.searcher.NearestBatchInto(qs, buf)
	}
	start := time.Now()
	out := growNeighbors(buf, len(qs))
	s.approxChunked(len(qs), func(sess *twostage.ApproxSession, shard *twostage.Stats, _, i int) {
		nb, ok := sess.Nearest(qs[i], shard)
		if !ok {
			nb = missNeighbor()
		}
		out[i] = nb
	})
	s.record(start)
	return out
}

// RadiusBatch implements Searcher; see NearestBatch for the approximate
// chunking semantics.
func (s *TwoStageSearcher) RadiusBatch(qs []geom.Vec3, r float64) [][]kdtree.Neighbor {
	if s.approx == nil {
		return s.searcher.RadiusBatch(qs, r)
	}
	start := time.Now()
	out, arenas := takeBatch(len(qs), s.parallelism)
	s.approxChunked(len(qs), func(sess *twostage.ApproxSession, shard *twostage.Stats, w, i int) {
		a := arenaOf(arenas, w)
		out[i] = fileResult(a, sess.RadiusInto(qs[i], r, arenaTail(a), shard))
	})
	s.record(start)
	return out
}

// approxWorker is what one worker of an approximate batch owns for the
// life of the searcher: its leader/follower session, and the stats shard
// of the chunks it happens to execute in the batch at hand, a cache line
// clear of the next worker's (shards are counted into per visited node).
type approxWorker struct {
	sess  *twostage.ApproxSession
	stats twostage.Stats
	_     par.LinePad
}

// approxChunked runs one approximate query kernel over fixed-size chunks
// of the batch. Every chunk starts from empty leader state — each worker
// keeps one session and Resets it between chunks instead of allocating
// O(leaves) of fresh buffers per chunk — so leader state never crosses
// chunk (or worker) boundaries and results are independent of which
// worker executes which chunk. run receives the worker id beside the
// query index so batches can answer into per-worker arenas.
func (s *TwoStageSearcher) approxChunked(n int, run func(sess *twostage.ApproxSession, shard *twostage.Stats, w, i int)) {
	for len(s.approxWorkers) < s.parallelism {
		s.approxWorkers = append(s.approxWorkers, approxWorker{})
	}
	par.ForChunks(n, s.parallelism, ApproxBatchChunk, func(w, lo, hi int) {
		aw := &s.approxWorkers[w]
		if aw.sess == nil {
			aw.sess = s.index.NewApproxSession(*s.approx)
		} else {
			aw.sess.Reset()
		}
		for i := lo; i < hi; i++ {
			run(aw.sess, &aw.stats, w, i)
		}
	})
	for w := range s.approxWorkers {
		s.stats.Merge(s.approxWorkers[w].stats)
		s.approxWorkers[w].stats = twostage.Stats{}
	}
}
