package search

import (
	"sync/atomic"
	"time"

	"tigris/internal/geom"
	"tigris/internal/kdtree"
	"tigris/internal/par"
	"tigris/internal/twostage"
)

// This file implements the batch side of the Searcher interface once, as a
// thin layer over internal/par: searcher (search.go) runs its index's
// per-query kernel on a worker pool, with one stats shard per worker
// merged after the batch, and the canonical, two-stage and brute-force
// searchers are that one implementation over three indexes. Because each
// query is independent and results are written positionally, the exact
// backends return bit-identical output to the sequential methods for any
// worker count. The approximate leader/follower batches, whose unit of
// work is a chunk with a session and not a query, are in approx.go.

// missNeighbor marks a NearestBatch entry with no result (empty tree).
func missNeighbor() kdtree.Neighbor { return kdtree.Neighbor{Index: -1} }

// A KNearestBatch/RadiusBatch result is one pooled batch: a header slice
// with one entry per query, each a window of a per-worker arena that
// holds the worker's answers back to back. Radius search is the dominant
// query kind of the front-end (normal estimation, key-point responses,
// descriptor support regions) and a streaming session issues tens of
// thousands of such queries per frame forever; answering into a handful
// of large arenas instead of one small slab per query, and handing the
// whole batch back in one piece (RecycleBatch), is what keeps that
// steady state allocation-free.
//
// The header describes itself, so RecycleBatch needs nothing but the
// slice the caller was given. Past that slice's length, inside its
// capacity, the header goes on:
//
//	hdr[0:n]          the n per-query results (the caller's slice)
//	hdr[n]            a mark: "what you hold is a whole batch"
//	...               unused (nil)
//	hdr[c-1-k:c-1]    the k arenas the header carries (cap = capacity)
//	hdr[c-1]          a mark whose capacity encodes k
//
// A slice that is not laid out this way (built by a custom backend,
// re-sliced, appended to) is simply not a batch: RecycleBatch clears it
// and the collector takes the rest. Idle headers wait in a par.FreeList.
// A header keeps every arena it was ever given: a batch narrower than
// the last one uses the rightmost and leaves the others parked.

// batchMark backs the mark slices of a batch header; the end mark's
// capacity carries the arena count, so pooled batches have fewer than
// len(batchMark) workers (wider ones are plain allocations).
var batchMark [1025]kdtree.Neighbor

// markOf returns the mark encoding k.
func markOf(k int) []kdtree.Neighbor { return batchMark[: 0 : k+1] }

// markCount reports whether s is a batch mark and the count it encodes.
func markCount(s []kdtree.Neighbor) (int, bool) {
	if len(s) != 0 || cap(s) == 0 || &s[:1][0] != &batchMark[0] {
		return 0, false
	}
	return cap(s) - 1, true
}

// heldArenas returns the arenas an idle (or whole live) header carries,
// nil when hdr does not end in a mark.
func heldArenas(hdr [][]kdtree.Neighbor) [][]kdtree.Neighbor {
	c := len(hdr)
	if c == 0 {
		return nil
	}
	k, ok := markCount(hdr[c-1])
	if !ok || k > c-1 {
		return nil
	}
	return hdr[c-1-k : c-1]
}

// arenaFloor is the smallest arena a worker is given once it has
// outgrown the one it held.
const arenaFloor = 4096

// idleBatches holds recycled batch headers: all nil but for the arenas
// and the end mark.
var idleBatches par.FreeList[[][]kdtree.Neighbor]

// arenaHigh and headerHigh are the largest arena and header any batch
// has needed. Headers wait in idleBatches in no particular order, so a
// stage's large batch may draw the header a small one grew; an arena or
// header that has to grow grows at once to the process's high-water mark
// instead of doubling up to it on every header in turn, and a warmed
// session regrows neither.
var arenaHigh, headerHigh atomic.Int64

// raiseMark lifts a high-water mark to at least v and returns it.
func raiseMark(mark *atomic.Int64, v int) int {
	for {
		old := mark.Load()
		if int64(v) <= old {
			return int(old)
		}
		if mark.CompareAndSwap(old, int64(v)) {
			return v
		}
	}
}

// takeBatch returns the result slice for n queries and the arenas of the
// workers that will answer them, reusing an idle header when there is
// one. Every result entry must be assigned before the batch is returned
// to a caller.
func takeBatch(n, workers int) (out, arenas [][]kdtree.Neighbor) {
	if workers >= len(batchMark) {
		return make([][]kdtree.Neighbor, n), make([][]kdtree.Neighbor, workers)
	}
	hdr, _ := idleBatches.Get()
	held := heldArenas(hdr)
	keep := max(len(held), workers)
	if c := n + 1 + keep + 1; len(hdr) < c {
		grown := make([][]kdtree.Neighbor, raiseMark(&headerHigh, c))
		copy(grown[len(grown)-1-len(held):], held)
		hdr = grown
	}
	c := len(hdr)
	hdr[c-1] = markOf(keep)
	hdr[n] = markOf(0)
	arenas = hdr[c-1-workers : c-1]
	for w := range arenas {
		arenas[w] = arenas[w][:0]
	}
	return hdr[:n], arenas
}

// RecycleBatch takes back a KNearestBatch/RadiusBatch result the caller
// has fully consumed: every entry is cleared, and when res is a pooled
// batch (every built-in backend returns one) its header and arenas serve
// the next batch. No reference to any entry may be retained. Any other
// slice of neighbor lists is welcome too and is only cleared.
func RecycleBatch(res [][]kdtree.Neighbor) {
	clear(res)
	n := len(res)
	hdr := res[:cap(res)]
	if n >= len(hdr) {
		return
	}
	if _, ok := markCount(hdr[n]); !ok {
		return
	}
	if held := heldArenas(hdr); held == nil || n+1+len(held)+1 > len(hdr) {
		return
	}
	hdr[n] = nil
	idleBatches.Put(hdr)
}

// arenaTail is the unfilled remainder of an arena: the buffer a query
// answers into (the *Into kernels reset it to length 0 and append).
func arenaTail(arena []kdtree.Neighbor) []kdtree.Neighbor {
	return arena[len(arena):]
}

// fileResult files one query's answer, which a kernel produced from
// arenaTail(*arena). While the arena has room the answer lies in the
// tail and the arena simply grows over it. When the kernel outgrew the
// tail and moved the answer to an array of its own, the worker is given
// a larger arena for the queries still to come (the results already
// filed keep the old one alive until the batch is recycled): twice the
// old one, or the largest any worker has needed (arenaHigh) if that is
// more. Empty answers are nil, as the sequential methods return them, and
// a filed answer's capacity ends with it so an append cannot run into the
// next.
func fileResult(arena *[]kdtree.Neighbor, res []kdtree.Neighbor) []kdtree.Neighbor {
	if len(res) == 0 {
		return nil
	}
	a := *arena
	if tail := a[len(a):cap(a)]; len(tail) > 0 && &res[0] == &tail[0] {
		*arena = a[:len(a)+len(res)]
	} else {
		*arena = make([]kdtree.Neighbor, 0, raiseMark(&arenaHigh, max(2*cap(a), arenaFloor)+len(res)))
	}
	return res[:len(res):len(res)]
}

// nearestInto is the optional fast-path capability behind BatchNearestInto.
type nearestInto interface {
	NearestBatchInto(qs []geom.Vec3, buf []kdtree.Neighbor) []kdtree.Neighbor
}

// BatchNearestInto answers a NearestBatch into buf (reset to length 0,
// regrown as needed) when the backend supports in-place batches — every
// built-in structure does — and falls back to a plain NearestBatch
// otherwise. Results are identical either way; the Into path lets hot
// loops that issue one batch per iteration (ICP's RPCE) reuse a single
// result slab for the life of the loop instead of allocating
// len(qs)-sized slices every iteration.
func BatchNearestInto(s Searcher, qs []geom.Vec3, buf []kdtree.Neighbor) []kdtree.Neighbor {
	if bi, ok := s.(nearestInto); ok {
		return bi.NearestBatchInto(qs, buf)
	}
	return s.NearestBatch(qs)
}

// BatchNearestTracked answers BatchNearestInto for queries that move
// between batches, as ICP's RPCE queries do: certs and moved hold one
// certificate and one accumulated displacement per query, owned by the
// caller — zero values start a query, and the caller adds to moved[i]
// every distance query i moves (twostage.Tree.NearestTracked). On the
// exact two-stage searcher a query whose certificate still holds is
// answered from its certified leaf set without a walk, and a walked query
// is re-certified. Every other searcher — the approximate two-stage one,
// whose answers no certificate vouches for, and every decorator, so that
// a trace records each query's walk and an injected error is never
// bypassed — falls back to BatchNearestInto and leaves certs and moved
// alone. The answers are bit for bit those of BatchNearestInto either
// way; only the visit counts of certified queries fall.
func BatchNearestTracked(s Searcher, qs []geom.Vec3, certs []twostage.Cert, moved []float64, buf []kdtree.Neighbor) []kdtree.Neighbor {
	ts, ok := s.(*TwoStageSearcher)
	if !ok || ts.approx != nil {
		return BatchNearestInto(s, qs, buf)
	}
	start := time.Now()
	out := growNeighbors(buf, len(qs))
	certs, moved = certs[:len(qs)], moved[:len(qs)]
	par.Sharded(len(qs), ts.parallelism,
		func(shard *twostage.Stats, _, i int) {
			nb, ok := ts.index.NearestTracked(qs[i], &certs[i], &moved[i], shard)
			if !ok {
				nb = missNeighbor()
			}
			out[i] = nb
		},
		ts.merge)
	ts.record(start)
	return out
}

// growNeighbors returns buf reset to length n, reallocating only when the
// capacity is short.
func growNeighbors(buf []kdtree.Neighbor, n int) []kdtree.Neighbor {
	if cap(buf) < n {
		return make([]kdtree.Neighbor, n)
	}
	return buf[:n]
}

// NearestBatch implements Searcher.
func (s *searcher[I, St, P]) NearestBatch(qs []geom.Vec3) []kdtree.Neighbor {
	return s.NearestBatchInto(qs, nil)
}

// NearestBatchInto is NearestBatch answering into buf (see
// BatchNearestInto for the contract).
func (s *searcher[I, St, P]) NearestBatchInto(qs []geom.Vec3, buf []kdtree.Neighbor) []kdtree.Neighbor {
	start := time.Now()
	out := growNeighbors(buf, len(qs))
	par.Sharded(len(qs), s.parallelism,
		func(shard *St, _, i int) {
			nb, ok := s.index.Nearest(qs[i], shard)
			if !ok {
				nb = missNeighbor()
			}
			out[i] = nb
		},
		s.merge)
	s.record(start)
	return out
}

// KNearestBatch implements Searcher. The result is a pooled batch (on the
// canonical tree and the linear scan each answer's arena window doubles
// as the query's candidate heap); consumers that drain it may return it
// with RecycleBatch. A one-arena batch is answered in a plain loop, which
// needs neither shards nor a closure: it allocates nothing; wider ones
// answer on up to one worker per arena, each counting into its own shard.
func (s *searcher[I, St, P]) KNearestBatch(qs []geom.Vec3, k int) [][]kdtree.Neighbor {
	start := time.Now()
	out, arenas := takeBatch(len(qs), s.parallelism)
	if len(arenas) == 1 {
		for i, q := range qs {
			out[i] = fileResult(&arenas[0], s.index.KNearestInto(q, k, arenaTail(arenas[0]), &s.stats))
		}
	} else {
		par.Sharded(len(qs), len(arenas), func(shard *St, w, i int) {
			out[i] = fileResult(&arenas[w], s.index.KNearestInto(qs[i], k, arenaTail(arenas[w]), shard))
		}, s.merge)
	}
	s.record(start)
	return out
}

// RadiusBatch implements Searcher. The result is a pooled batch;
// consumers that drain it may return it with RecycleBatch. A batch of one
// query, like a one-arena batch, is answered in the plain loop: key-point
// suppression issues one per key-point it keeps.
func (s *searcher[I, St, P]) RadiusBatch(qs []geom.Vec3, r float64) [][]kdtree.Neighbor {
	start := time.Now()
	out, arenas := takeBatch(len(qs), s.parallelism)
	if len(arenas) == 1 || len(qs) == 1 {
		for i, q := range qs {
			out[i] = fileResult(&arenas[0], s.index.RadiusInto(q, r, arenaTail(arenas[0]), &s.stats))
		}
	} else {
		par.Sharded(len(qs), len(arenas), func(shard *St, w, i int) {
			out[i] = fileResult(&arenas[w], s.index.RadiusInto(qs[i], r, arenaTail(arenas[w]), shard))
		}, s.merge)
	}
	s.record(start)
	return out
}
