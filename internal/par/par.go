// Package par provides the small worker-pool primitives the batched
// neighbor-search layer is built on. The paper's central argument is that
// KD-tree search exposes massive query-level parallelism; par.For is the
// software analogue of the accelerator's query dispatch: a fixed worker
// pool pulls index blocks off a shared counter, and every item of work is
// identified by its index so results can be written positionally, keeping
// parallel output bit-identical to sequential output.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// grain is the number of consecutive indices a worker claims per atomic
// fetch. Neighbor queries are microseconds each, so claiming single
// indices would serialize on the counter; blocks of 32 amortize it while
// still load-balancing across skewed query costs.
const grain = 32

// Workers resolves a requested parallelism: n > 0 selects n workers,
// anything else selects runtime.NumCPU(). This is the shared default for
// every Parallelism knob in the search and registration layers.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// For runs fn(worker, i) for every i in [0, n), distributing indices over
// at most workers goroutines. worker is in [0, workers) and is stable for
// the lifetime of one call, so callers can give each worker private state
// (stats shards, scratch buffers, approximate-search sessions) without
// locking. Indices are claimed in blocks, so fn must not assume any
// ordering between indices run by different workers; fn must write results
// positionally (by i) for the output to be deterministic.
//
// workers <= 1 (or n <= 1) degenerates to a plain sequential loop on the
// calling goroutine with worker == 0, making the sequential path the
// exact specialization of the parallel one.
func For(n, workers int, fn func(worker, i int)) {
	forGrain(n, workers, grain, fn)
}

// forGrain is For with an explicit claim-block size: each atomic fetch
// claims g consecutive indices. For uses the default grain; ForChunks
// claims single indices because each of its indices is already a whole
// chunk of work.
func forGrain(n, workers, g int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	// Never spawn more workers than there are claimable blocks: the rest
	// would start only to lose one atomic claim and exit, and small
	// batches recur in hot loops (one NearestBatch per ICP iteration).
	if blocks := (n + g - 1) / g; workers > blocks {
		workers = blocks
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	g64 := int64(g)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				lo := int(next.Add(g64)) - g
				if lo >= n {
					return
				}
				hi := lo + g
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(worker, i)
				}
			}
		}(w)
	}
	wg.Wait()
}

// Sharded executes n work items over the worker pool with one shard of
// per-worker state of type St each, then hands every shard to merge (in
// worker order). It is the scheduling primitive behind every batched
// search method: shards carry instrumentation (stats counters) that must
// stay exact without atomics on the query fast path.
func Sharded[St any](n, workers int, run func(shard *St, i int), merge func(*St)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Sequential specialization: one stack shard instead of a
		// heap-allocated shard slice. Hot loops issue one small batch per
		// iteration (ICP's per-iteration NearestBatch), so this keeps the
		// single-worker batch path allocation-free.
		if n <= 0 {
			return
		}
		var shard St
		for i := 0; i < n; i++ {
			run(&shard, i)
		}
		merge(&shard)
		return
	}
	shards := make([]St, workers)
	For(n, workers, func(w, i int) {
		run(&shards[w], i)
	})
	for w := range shards {
		merge(&shards[w])
	}
}

// Pool is a worker budget that can be divided between concurrently
// running stages. A pipeline whose stages each size their batches with
// Workers(0) oversubscribes the machine (every stage spawns NumCPU
// goroutines); carving one Pool into weighted sub-pools gives each stage
// a dedicated share so concurrent stages together use exactly the
// machine's width. A Pool carries no goroutines of its own — it is an
// accounting object whose Workers() count callers feed to For/Sharded or
// a Parallelism knob.
type Pool struct {
	workers int
}

// NewPool returns a pool of Workers(n) workers (n <= 0 selects NumCPU).
func NewPool(n int) *Pool {
	return &Pool{workers: Workers(n)}
}

// Workers returns the pool's worker budget.
func (p *Pool) Workers() int { return p.workers }

// Split divides the pool into one sub-pool per weight. Every sub-pool is
// reserved one worker first — no stage may starve — and the remaining
// workers are apportioned proportionally to the weights (largest
// remainder, ties to the lowest index, so the split is deterministic).
// Whenever the pool is at least as wide as the weight count, the shares
// sum exactly to the pool's budget; a narrower pool hands every sub-pool
// its floor of one and oversubscribes instead. Negative or non-finite
// weights count as zero; if all weights are zero the split is even.
func (p *Pool) Split(weights ...float64) []*Pool {
	k := len(weights)
	if k == 0 {
		return nil
	}
	out := make([]*Pool, k)
	if p.workers <= k {
		for i := range out {
			out[i] = &Pool{workers: 1}
		}
		return out
	}
	// Sanitize into a local copy: callers may retain the slice they
	// expanded into the variadic.
	ws := make([]float64, k)
	var total float64
	for i, w := range weights {
		if w < 0 || w != w || w > 1e300 {
			continue
		}
		ws[i] = w
		total += w
	}
	weights = ws
	extra := p.workers - k
	shares := make([]int, k)
	fracs := make([]float64, k)
	assigned := 0
	for i, w := range weights {
		frac := 1 / float64(k)
		if total > 0 {
			frac = w / total
		}
		exact := frac * float64(extra)
		shares[i] = int(exact)
		fracs[i] = exact - float64(shares[i])
		assigned += shares[i]
	}
	// Hand the leftover workers to the largest remainders, lowest index
	// first on ties.
	for assigned < extra {
		best := 0
		for i := 1; i < len(fracs); i++ {
			if fracs[i] > fracs[best] {
				best = i
			}
		}
		shares[best]++
		fracs[best] = -1
		assigned++
	}
	for i, s := range shares {
		out[i] = &Pool{workers: s + 1}
	}
	return out
}

// ForChunks runs fn(worker, lo, hi) over the half-open chunks
// [0,c), [c,2c), ... of [0, n) with chunk size c, distributing whole
// chunks over the worker pool. Chunk boundaries depend only on n and c —
// never on the worker count — so per-chunk state (e.g. the approximate
// searcher's leader sessions) yields results that are invariant under the
// Parallelism knob.
func ForChunks(n, workers, c int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if c <= 0 {
		c = n
	}
	chunks := (n + c - 1) / c
	// Claim chunks one at a time: a chunk is already a large unit of work
	// (e.g. 256 queries), so grain-1 claiming amortizes the counter fine —
	// and block-claiming would hand a whole small batch to one worker.
	forGrain(chunks, workers, 1, func(worker, chunk int) {
		lo := chunk * c
		hi := lo + c
		if hi > n {
			hi = n
		}
		fn(worker, lo, hi)
	})
}

// freeListMax bounds how many idle values a FreeList keeps; a Put beyond
// it drops the value for the collector.
const freeListMax = 16

// FreeList is a small bounded stack of reusable scratch values shared by
// every goroutine of the process. It exists beside sync.Pool because the
// collector empties a sync.Pool on every cycle: a streaming session's
// per-frame scratch (result arenas, build permutations, hash buckets) is
// megabytes that a pool hands to the collector between frames and the
// next frame then regrows. A FreeList keeps what it is given until it is
// taken again, so its footprint is the high-water mark of what was in
// use at once, capped at freeListMax values. The zero value is ready to
// use; T is typically a slice or a pointer to a scratch struct, stored by
// value so Put does not allocate.
type FreeList[T any] struct {
	mu    sync.Mutex
	items []T
}

// Get pops the most recently returned value; ok is false when the list
// is empty and the caller must make a fresh one.
func (f *FreeList[T]) Get() (v T, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.items)
	if n == 0 {
		return v, false
	}
	v = f.items[n-1]
	var zero T
	f.items[n-1] = zero
	f.items = f.items[:n-1]
	return v, true
}

// Put hands v back for a later Get. The caller must hold no reference
// to it afterwards.
func (f *FreeList[T]) Put(v T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.items == nil {
		f.items = make([]T, 0, freeListMax)
	}
	if len(f.items) < freeListMax {
		f.items = append(f.items, v)
	}
}
