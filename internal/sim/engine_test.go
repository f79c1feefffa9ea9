package sim

import (
	"math/rand"
	"testing"

	"tigris/internal/twostage"
)

func TestSuFIFO(t *testing.T) {
	var q suFIFO
	if q.len() != 0 {
		t.Fatal("fresh FIFO not empty")
	}
	for i := 0; i < 10; i++ {
		q.push(suQueueItem{qid: int32(i)})
	}
	if q.len() != 10 {
		t.Fatalf("len = %d", q.len())
	}
	q.head = 6
	if q.len() != 4 {
		t.Fatalf("len after head advance = %d", q.len())
	}
	// Compact only triggers when the consumed prefix dominates a large
	// backing array; simulate that.
	big := suFIFO{}
	for i := 0; i < 4000; i++ {
		big.push(suQueueItem{qid: int32(i)})
	}
	big.head = 3000
	big.compact()
	if big.head != 0 || big.len() != 1000 {
		t.Fatalf("compact: head=%d len=%d", big.head, big.len())
	}
	if big.items[0].qid != 3000 {
		t.Fatalf("compact lost order: first qid = %d", big.items[0].qid)
	}
}

func TestBQBWindowLimitsBatchSearch(t *testing.T) {
	// With a window of 1, batching degenerates to FIFO order: every batch
	// has exactly one query, costing more cycles than the full window.
	r := rand.New(rand.NewSource(31))
	tree := twostage.BuildWithLeafSize(randPoints(r, 4000), 128)
	queries := clusteredQueries(r, tree.Points(), 800)
	w := Workload{Kind: RadiusSearch, Queries: queries, Radius: 2}

	narrow := DefaultConfig()
	narrow.BQBCapacity = 1
	a, err := Run(tree, w, narrow)
	if err != nil {
		t.Fatal(err)
	}
	wide := DefaultConfig()
	wide.BQBCapacity = 128
	b, err := Run(tree, w, wide)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles <= b.Cycles {
		t.Errorf("window=1 (%d cycles) should be slower than window=128 (%d)", a.Cycles, b.Cycles)
	}
	// The window schedules the walk; it must not change what is written.
	if a.Traffic.ResultBuf != b.Traffic.ResultBuf {
		t.Fatalf("scheduling window changed Result Buffer traffic: %d vs %d", a.Traffic.ResultBuf, b.Traffic.ResultBuf)
	}
}

func TestSingleRUSingleSUStillCompletes(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	tree := twostage.Build(randPoints(r, 1000), 4)
	queries := clusteredQueries(r, tree.Points(), 300)
	cfg := DefaultConfig()
	cfg.NumRU = 1
	cfg.NumSU = 1
	cfg.PEsPerSU = 1
	rep, err := Run(tree, Workload{Kind: NNSearch, Queries: queries}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.NNResults) != len(queries) {
		t.Fatal("results missing")
	}
	for i, q := range queries {
		want, _ := tree.Nearest(q, nil)
		if rep.NNResults[i].Index != want.Index {
			t.Fatalf("minimal config diverged at query %d", i)
		}
	}
	// A minimal configuration must be slower than the default.
	def, err := Run(tree, Workload{Kind: NNSearch, Queries: queries}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles <= def.Cycles {
		t.Errorf("1/1/1 config (%d cycles) not slower than default (%d)", rep.Cycles, def.Cycles)
	}
}

func TestEventOrderingDeterministicTieBreak(t *testing.T) {
	// Events at equal timestamps must pop in insertion order.
	var h eventHeap
	e := &engine{}
	e.events = h
	for i := 0; i < 5; i++ {
		e.push(event{time: 7, kind: evSUCheck, su: int32(i)})
	}
	for i := 0; i < 5; i++ {
		ev := popEvent(e)
		if ev.su != int32(i) {
			t.Fatalf("tie-break order violated: got su %d at pop %d", ev.su, i)
		}
	}
}

func popEvent(e *engine) event {
	ev := e.events[0]
	last := len(e.events) - 1
	e.events[0] = e.events[last]
	e.events = e.events[:last]
	if last > 0 {
		e.events.siftDownForTest()
	}
	return ev
}

// siftDownForTest re-heapifies from the root (mirror of container/heap's
// behavior for the test helper).
func (h eventHeap) siftDownForTest() {
	i := 0
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.Less(l, smallest) {
			smallest = l
		}
		if r < n && h.Less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.Swap(i, smallest)
		i = smallest
	}
}
