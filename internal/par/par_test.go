package par

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// TestWorkers: a default width is the slot budget, not the CPU count — the
// two differ under GOMAXPROCS < NumCPU, where per-worker state sized for
// NumCPU would be built for workers no loop can ever be granted.
func TestWorkers(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Errorf("Workers(4) = %d", got)
	}
	if got := Workers(0); got != Slots() {
		t.Errorf("Workers(0) = %d, want Slots %d", got, Slots())
	}
	if got := Workers(-3); got != Slots() {
		t.Errorf("Workers(-3) = %d, want Slots %d", got, Slots())
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	WithBudget(t, 8)
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 1000
		counts := make([]int64, n)
		For(n, workers, func(_, i int) {
			atomic.AddInt64(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForWorkerIDsAreDisjoint(t *testing.T) {
	WithBudget(t, 4)
	const n, workers = 500, 4
	// Each index records its worker; per-worker shards written without
	// synchronization must not race (go test -race guards this).
	shards := make([][]int, workers)
	For(n, workers, func(w, i int) {
		shards[w] = append(shards[w], i)
	})
	total := 0
	for _, s := range shards {
		total += len(s)
	}
	if total != n {
		t.Fatalf("shards cover %d indices, want %d", total, n)
	}
}

func TestForEmptyAndTiny(t *testing.T) {
	ran := 0
	For(0, 8, func(_, _ int) { ran++ })
	if ran != 0 {
		t.Error("For(0) ran work")
	}
	For(1, 8, func(w, i int) {
		if w != 0 || i != 0 {
			t.Errorf("For(1) gave worker=%d i=%d", w, i)
		}
		ran++
	})
	if ran != 1 {
		t.Errorf("For(1) ran %d times", ran)
	}
}

func TestForChunksBoundariesIndependentOfWorkers(t *testing.T) {
	WithBudget(t, 8)
	const n, c = 1003, 256
	var want [][2]int
	ForChunks(n, 1, c, func(_, lo, hi int) {
		want = append(want, [2]int{lo, hi})
	})
	for _, workers := range []int{2, 5, 16} {
		seen := make(map[[2]int]bool)
		var mu atomic.Int64
		ForChunks(n, workers, c, func(_, lo, hi int) {
			for !mu.CompareAndSwap(0, 1) {
			}
			seen[[2]int{lo, hi}] = true
			mu.Store(0)
		})
		if len(seen) != len(want) {
			t.Fatalf("workers=%d: %d chunks, want %d", workers, len(seen), len(want))
		}
		for _, ch := range want {
			if !seen[ch] {
				t.Fatalf("workers=%d: missing chunk %v", workers, ch)
			}
		}
	}
}

func TestForChunksDistributesAcrossWorkers(t *testing.T) {
	// Chunks must be claimed one at a time, not in grain-sized blocks: a
	// typical batch block is only a few dozen chunks, and block-claiming
	// would hand them all to the first worker, silently serializing the
	// batch. The sleep forces overlap so multiple workers get to claim
	// even on a single-CPU machine.
	WithBudget(t, 4)
	const chunks, c, workers = 8, 256, 4
	var used [workers]atomic.Int64
	ForChunks(chunks*c, workers, c, func(w, lo, hi int) {
		used[w].Add(1)
		time.Sleep(2 * time.Millisecond)
	})
	distinct := 0
	for i := range used {
		if used[i].Load() > 0 {
			distinct++
		}
	}
	if distinct < 2 {
		t.Errorf("all %d chunks ran on one worker", chunks)
	}
}

func TestForChunksZeroChunkSizeIsOneChunk(t *testing.T) {
	calls := 0
	ForChunks(10, 4, 0, func(_, lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Errorf("chunk [%d,%d), want [0,10)", lo, hi)
		}
	})
	if calls != 1 {
		t.Errorf("calls = %d", calls)
	}
}

// TestLoopBorrowsOnlyFreeSlots is the budget's one rule at the level of a
// single loop: the caller always runs, helpers are the slots free at that
// instant (never more than workers-1, never more than the blocks beyond
// the caller's), and every one of them is back when the loop returns.
func TestLoopBorrowsOnlyFreeSlots(t *testing.T) {
	WithBudget(t, 3)
	var granted []int
	Probe(t, nil, func(_, g int) { granted = append(granted, g) })
	loop := func(n, workers int) {
		For(n, workers, func(_, _ int) { time.Sleep(50 * time.Microsecond) })
	}
	loop(10*grain, 8) // nobody holds a slot: the caller and all three
	Acquire()         // a stage computing: its loop gets the other two
	loop(10*grain, 8)
	loop(10*grain, 2) // the Parallelism cap
	loop(2*grain, 8)  // two blocks: one helper has something to claim
	Acquire()         // a second busy stage
	loop(10*grain, 8)
	Acquire() // all three busy: nothing to lend
	loop(10*grain, 8)
	if got := SlotsInUse(); got != 3 {
		t.Errorf("%d slots in use with three stages holding one each and no loop running", got)
	}
	Release()
	Release()
	Release()
	want := []int{4, 3, 2, 2, 2, 1}
	if len(granted) != len(want) {
		t.Fatalf("loops were granted %v workers, want %v", granted, want)
	}
	for i := range want {
		if granted[i] != want[i] {
			t.Fatalf("loops were granted %v workers, want %v", granted, want)
		}
	}
	if Slots() != 3 || SlotsInUse() != 0 {
		t.Errorf("budget reads %d slots, %d in use after everything was returned", Slots(), SlotsInUse())
	}
}

// TestBudgetOfOneSlot: a budget of one slot lends nothing, ever, and
// every primitive still completes on its caller.
func TestBudgetOfOneSlot(t *testing.T) {
	WithBudget(t, 1)
	Probe(t, nil, func(asked, granted int) {
		if granted != 1 {
			t.Errorf("a loop asking for %d workers was granted %d on a budget of one", asked, granted)
		}
	})
	Acquire()
	defer Release()
	if TryAcquire() {
		t.Fatal("a second slot on a budget of one")
	}
	sum := 0
	For(1000, 4, func(w, i int) { sum += i + w })
	ForChunks(1000, 4, 10, func(w, lo, hi int) { sum += hi - lo + w })
	Sharded(1000, 4, func(s *int, w, i int) { *s += i + w }, func(s *int) { sum += *s })
	if want := 2*(999*1000/2) + 1000; sum != want {
		t.Fatalf("sum %d, want %d", sum, want)
	}
}

// TestShardsDoNotShareALine: the shards of a loop that runs on several
// workers are counted into once per visited tree node, so no two of them
// may lie within a cache line of each other.
func TestShardsDoNotShareALine(t *testing.T) {
	WithBudget(t, 4)
	type stats struct{ queries, visited, pruned int64 } // kdtree.Stats' shape
	var mu sync.Mutex
	at := map[int]uintptr{}
	total := int64(0)
	Sharded(64*grain, 4,
		func(s *stats, w, i int) {
			s.queries++
			mu.Lock()
			at[w] = uintptr(unsafe.Pointer(s))
			mu.Unlock()
			time.Sleep(10 * time.Microsecond)
		},
		func(s *stats) { total += s.queries })
	if total != 64*grain {
		t.Fatalf("shards counted %d items, want %d", total, 64*grain)
	}
	if len(at) < 2 {
		t.Fatalf("%d workers ran the loop: nothing to compare", len(at))
	}
	for w, a := range at {
		for v, b := range at {
			if w != v && a < b && b-a < unsafe.Sizeof(stats{})+unsafe.Sizeof(LinePad{}) {
				t.Errorf("shards of workers %d and %d are %d bytes apart", w, v, b-a)
			}
		}
	}
	if unsafe.Sizeof(LinePad{}) < 64 {
		t.Errorf("LinePad is %d bytes", unsafe.Sizeof(LinePad{}))
	}
}
