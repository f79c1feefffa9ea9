// Package par provides the small parallel-loop primitives the batched
// neighbor-search layer is built on, and the one budget they all draw on.
// The paper's central argument is that KD-tree search exposes massive
// query-level parallelism, and its accelerator wins by dispatching each
// query to whichever search unit is free (§5); par is the software
// analogue. The process has GOMAXPROCS slots. A pipeline stage holds
// exactly one while it computes (Acquire/Release); a parallel loop runs on
// its caller and borrows further slots only if they are free at that
// instant, handing each back as its helper runs out of work. So two busy
// stages run one-wide each, a stage whose neighbours are idle or blocked
// gets the whole machine, and however many stages and sessions a process
// hosts, no more than GOMAXPROCS goroutines compute at once. Every item of
// work is identified by its index so results can be written positionally,
// keeping parallel output bit-identical to sequential output at any width
// a loop happens to be granted.
package par

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// grain is the number of consecutive indices a worker claims per atomic
// fetch. Neighbor queries are microseconds each, so claiming single
// indices would serialize on the counter; blocks of 32 amortize it while
// still load-balancing across skewed query costs.
const grain = 32

// Workers resolves a requested parallelism: n > 0 selects n workers,
// anything else selects the slot budget (Slots) — "all cores" means the
// slots a loop could ever be granted, not the CPUs the machine has. This
// is the shared default for every Parallelism knob in the search and
// registration layers; it caps how wide a loop may run, the slot budget
// decides how wide it does.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return Slots()
}

// slots is the process-wide budget, a counting semaphore: its capacity is
// runtime.GOMAXPROCS(0) at first use, its length the slots in use.
var (
	slotsOnce sync.Once
	slots     chan struct{}
)

func budget() chan struct{} {
	slotsOnce.Do(func() { slots = make(chan struct{}, runtime.GOMAXPROCS(0)) })
	return slots
}

// probe is the tests' view of the budget (nil outside them): slot sees
// every slot taken (+1) and returned (-1), loop every parallel loop's
// width, the caller included, as asked (its Parallelism capped at its
// claimable blocks) and as granted.
var probe struct {
	slot func(delta int)
	loop func(asked, granted int)
}

// Acquire takes the slot a stage computes on, waiting until one is free;
// the stage's parallel loops then borrow whatever else is. Nothing may
// block on another stage while holding it. Admission (which tenant may
// start a stage at all) is the caller's business and comes first.
func Acquire() {
	budget() <- struct{}{}
	if probe.slot != nil {
		probe.slot(1)
	}
}

// TryAcquire takes one more slot only if one is free this instant: the
// licence to start one more computing goroutine, which must Release it.
func TryAcquire() bool {
	select {
	case budget() <- struct{}{}:
		if probe.slot != nil {
			probe.slot(1)
		}
		return true
	default:
		return false
	}
}

// Release returns a slot taken by Acquire or TryAcquire.
func Release() {
	if probe.slot != nil {
		probe.slot(-1)
	}
	<-slots
}

// Slots returns the budget; SlotsInUse how many of them stages and their
// helpers hold right now.
func Slots() int      { return cap(budget()) }
func SlotsInUse() int { return len(budget()) }

// For runs fn(worker, i) for every i in [0, n) on the calling goroutine
// and on at most workers-1 helpers, one per slot it could borrow. worker
// is in [0, workers) and is stable for the lifetime of one call, so
// callers can give each worker private state (stats shards, scratch
// buffers, approximate-search sessions) without locking. Indices are
// claimed in blocks, so fn must not assume any ordering between indices
// run by different workers; fn must write results positionally (by i) for
// the output to be deterministic.
//
// workers <= 1 (or n <= 1, or no free slot) degenerates to a plain
// sequential loop on the calling goroutine with worker == 0, making the
// sequential path the exact specialization of the parallel one.
func For(n, workers int, fn func(worker, i int)) {
	forGrain(n, workers, grain, fn)
}

// forGrain is For with an explicit claim-block size: each atomic fetch
// claims g consecutive indices. For uses the default grain; ForChunks
// claims single indices because each of its indices is already a whole
// chunk of work.
func forGrain(n, workers, g int, fn func(worker, i int)) {
	helpers := borrow(n, workers, g)
	if helpers == 0 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	fan(n, helpers, g, fn)
}

// borrow takes the slots of a loop's helpers: as many as are free, at
// most workers-1, and never more than there are claimable blocks beyond
// the caller's first — the rest would start only to lose one atomic claim
// and exit, and small batches recur in hot loops (one NearestBatch per ICP
// iteration).
func borrow(n, workers, g int) int {
	if blocks := (n + g - 1) / g; workers > blocks {
		workers = blocks
	}
	if workers <= 1 {
		return 0
	}
	helpers := 0
	for helpers < workers-1 && TryAcquire() {
		helpers++
	}
	if probe.loop != nil {
		probe.loop(workers, helpers+1)
	}
	return helpers
}

// fan runs the block-claiming loop as worker 0 on the caller and as
// workers 1..helpers on goroutines that each hold a borrowed slot and
// return it as soon as no block is left to claim.
func fan(n, helpers, g int, fn func(worker, i int)) {
	var next atomic.Int64
	work := func(worker int) {
		for {
			lo := int(next.Add(int64(g))) - g
			if lo >= n {
				return
			}
			for i, hi := lo, min(lo+g, n); i < hi; i++ {
				fn(worker, i)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(helpers)
	for w := 1; w <= helpers; w++ {
		go func() {
			defer wg.Done()
			defer Release()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
}

// LinePad separates per-worker state that is written in a hot loop: two
// values with a LinePad between them never share a cache line, so one
// worker counting a visited node does not take the line from its
// neighbour (ICP's RPCE batch ran no faster on two workers than on one
// while their 24-byte stats shards sat side by side).
type LinePad [64]byte

// Sharded executes n work items like For, with one shard of per-worker
// state of type St each, then hands every shard to merge (in worker
// order). It is the scheduling primitive behind every batched search
// method: shards carry instrumentation (stats counters) that must stay
// exact without atomics on the query fast path. The shards of a loop that
// was granted helpers lie a LinePad apart; a loop that was not counts
// into one local shard and allocates nothing — hot loops issue one small
// batch per iteration (ICP's per-iteration NearestBatch).
func Sharded[St any](n, workers int, run func(shard *St, worker, i int), merge func(*St)) {
	if n <= 0 {
		return
	}
	helpers := borrow(n, workers, grain)
	if helpers == 0 {
		var shard St
		for i := 0; i < n; i++ {
			run(&shard, 0, i)
		}
		merge(&shard)
		return
	}
	shards := make([]struct {
		st St
		_  LinePad
	}, helpers+1)
	fan(n, helpers, grain, func(w, i int) {
		run(&shards[w].st, w, i)
	})
	for w := range shards {
		merge(&shards[w].st)
	}
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

// freeListMax bounds how many idle values a FreeList keeps, unless it
// was given a limit of its own; a Put beyond it drops the value for the
// collector.
const freeListMax = 16

// FreeList is a small bounded stack of reusable scratch values shared by
// every goroutine of the process. It exists beside sync.Pool because the
// collector empties a sync.Pool on every cycle: a streaming session's
// per-frame scratch (result arenas, tree-build lists, hash buckets) is
// megabytes that a pool hands to the collector between frames and the
// next frame then regrows. A FreeList keeps what it is given until it is
// taken again, so its footprint is the high-water mark of what was in
// use at once, capped at freeListMax values. The zero value is ready to
// use; T is typically a slice or a pointer to a scratch struct, stored by
// value so Put does not allocate.
type FreeList[T any] struct {
	mu    sync.Mutex
	items []T
	limit int // the bound on idle values; 0 means freeListMax
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
		if f.limit == 0 {
			f.limit = freeListMax
		}
		f.items = make([]T, 0, f.limit)
	}
	if len(f.items) < f.limit {
		f.items = append(f.items, v)
	}
}

// SlicePool recycles the arrays a streaming session allocates once per
// frame and drops a frame or two later (point and normal columns, tree
// arrays): one FreeList per size class, eight classes to an octave, so
// arrays of a raw frame's size and of a downsampled front-end's never
// take each other's place or push each other out, and an array is at
// most three eighths larger than the slice it was drawn for (Get). A
// warmed session then draws the same arrays frame after frame.
//
// A class keeps up to slicePoolMax idle arrays: a pipelined session has
// about five frames' slabs in flight at once (two queued, three in the
// stages), six columns a slab, and all of them come back when it closes.
//
// In a test binary every array handed back is first overwritten with the
// pool's poison value (NaN for floats, -1 for indices), so a reader that
// outlives its owner's release changes the bits of whatever it computes.
type SlicePool[E any] struct {
	poison  E
	classes [(bits.UintSize - 2) << classBits]FreeList[[]E]
}

const (
	// classBits is log2 of the size classes per octave.
	classBits    = 3
	slicePoolMax = 64
)

// NewSlicePool returns an empty pool whose returned arrays are poisoned
// with poison under test.
func NewSlicePool[E any](poison E) *SlicePool[E] {
	p := &SlicePool[E]{poison: poison}
	for i := range p.classes {
		p.classes[i].limit = slicePoolMax
	}
	return p
}

// poisonRecycled turns the poisoning on: in test binaries, always.
var poisonRecycled = testing.Testing()

// classBelow returns the largest size class not above c (c >= 1). Sizes
// under 1<<classBits are classes of their own; above, an octave
// [2^e, 2^(e+1)) splits into 1<<classBits equal steps.
func classBelow(c int) int {
	e := bits.Len(uint(c)) - 1
	if e < classBits {
		return c
	}
	m := c >> (e - classBits) & (1<<classBits - 1)
	return (e-classBits+1)<<classBits + m
}

// classSize is the array length of size class i.
func classSize(i int) int {
	if i < 1<<classBits {
		return i
	}
	e, m := i>>classBits+classBits-1, i&(1<<classBits-1)
	return (1<<classBits + m) << (e - classBits)
}

// Get returns a slice of length n with capacity of at least n: a
// recycled array when one of n's class, or of the class above, is idle
// (frames whose sizes straddle a class boundary then share the arrays;
// the contents are whatever the last holder or the poison left),
// otherwise a fresh zeroed one of the class's full size. Get(0) returns
// an empty, non-nil slice and allocates nothing.
func (p *SlicePool[E]) Get(n int) []E {
	if n <= 0 {
		return make([]E, 0)
	}
	k := classBelow(n)
	if classSize(k) < n {
		k++
	}
	for _, c := range [2]int{k, k + 1} {
		if s, ok := p.classes[c].Get(); ok {
			return s[:n]
		}
	}
	return make([]E, n, classSize(k))
}

// Put hands s's whole array back for a later Get; the caller and every
// other holder of a view of it must not touch it afterwards. An array of
// any capacity is welcome: it joins the largest class it can serve.
func (p *SlicePool[E]) Put(s []E) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	if poisonRecycled {
		for i := range s {
			s[i] = p.poison
		}
	}
	p.classes[classBelow(len(s))].Put(s[:0])
}
