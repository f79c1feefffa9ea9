package sim

import (
	"container/heap"

	"tigris/internal/twostage"
)

// The engine schedules the queries' visits (twostage.Visit: one FE burst
// optionally followed by one BE leaf visit, as the software search made
// them) over the modeled hardware:
//
//	FQQ → RU (FE burst) → query distribution network → SU BQB → PE batch
//	 ↑                                                            │
//	 └──────────────── reinsertion (Fig. 8) ──────────────────────┘
//
// Per-iteration RU costs (§5.2, Fig. 9): the PI→RS stack dependency
// stalls the baseline pipeline 3 cycles between consecutive nodes, so a
// fully processed node costs 4 cycles; node forwarding removes the stalls
// (1 cycle/node); a pruned node exits at RN — 2 cycles with bypassing,
// a full slot otherwise.
//
// SU batch costs (§5.3, Fig. 10): an MQSN batch streams one node set of
// size S through the PE pipeline: fill (3) + S cycles + systolic skew
// (batch−1) + 1 cycle of amortized associative search. Followers instead
// stream their leader's result list (and pay the leader-distance checks,
// which reuse the PEs). MQMN gives each PE its own stream: same latency
// shape per query, but node-set traffic is paid per query, not per batch.

// ruBurstCycles returns the FE cost of one burst.
func ruBurstCycles(fullNodes, prunedNodes int32, cfg *Config) uint64 {
	var perFull, perPruned uint64
	switch {
	case cfg.Forwarding && cfg.Bypassing:
		perFull, perPruned = 1, 1
	case cfg.Forwarding:
		perFull, perPruned = 1, 1
	case cfg.Bypassing:
		perFull, perPruned = 4, 2
	default:
		perFull, perPruned = 4, 4
	}
	// +2: FQ at burst start plus the CL issue slot. Consecutive bursts on
	// one RU overlap in the pipeline, so drain is not charged per burst.
	return uint64(fullNodes)*perFull + uint64(prunedNodes)*perPruned + 2
}

// suScanCycles returns the BE cost of scanning one leaf visit for a batch
// whose longest stream is maxScan points, with maxLeader leader checks.
// Leader checks reuse the PE array (§5.3), so they run pes-wide in
// parallel plus a short min-reduction.
func suScanCycles(maxScan, maxLeader int32, batch, pes int) uint64 {
	cycles := uint64(3) + uint64(maxScan) + uint64(batch-1) + 1
	if maxLeader > 0 {
		cycles += uint64((int(maxLeader)+pes-1)/pes) + 2
	}
	return cycles
}

// event kinds for the DES heap.
type eventKind int8

const (
	evFQQArrival eventKind = iota
	evSUCheck
)

type event struct {
	time uint64
	kind eventKind
	// qid/seg for FQQ arrivals; su for SU checks.
	qid, seg, su int32
	// order breaks ties deterministically (FIFO within equal timestamps).
	order uint64
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].order < h[j].order
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// pendingQuery is one FQQ entry: a query positioned at step seg of its walk.
type pendingQuery struct {
	qid, seg int32
}

// suQueueItem is a BQB entry.
type suQueueItem struct {
	qid, seg int32
	leaf     int32
	follower bool
}

// suFIFO is a head-indexed queue so servicing never copies the tail.
type suFIFO struct {
	items []suQueueItem
	head  int
}

func (q *suFIFO) len() int { return len(q.items) - q.head }

func (q *suFIFO) push(it suQueueItem) { q.items = append(q.items, it) }

// compact reclaims the consumed prefix once it dominates the backing
// array.
func (q *suFIFO) compact() {
	if q.head > 1024 && q.head*2 > len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
}

// engine executes the logged walks and accumulates the Report counters.
type engine struct {
	cfg    *Config
	visits *twostage.VisitLog

	events eventHeap
	order  uint64

	ruFree    []uint64 // per-RU next-free cycle
	fqq       []pendingQuery
	suQueue   []suFIFO   // per-SU BQB (arrived items)
	suBusy    []uint64   // per-SU busy-until (MQSN batch semantics)
	suCheckAt []uint64   // latest scheduled SU-check time (dedupes checks)
	peFree    [][]uint64 // per-SU per-PE next-free (MQMN)
	leafToSU  []int32

	now       uint64
	completed int
	lastDone  uint64

	// Busy-cycle accumulators for utilization reporting.
	ruBusyCycles uint64
	suBusyCycles uint64

	traffic Traffic
	counts  OpCounts

	nodeCache []fifoCache
}

// fifoCache models the per-SU node cache: a FIFO of leaf IDs whose node
// sets are resident (§5.3: entries are whole node sets, accessed as FIFOs).
type fifoCache struct {
	sets []int32
	cap  int
}

func (c *fifoCache) lookup(leaf int32) bool {
	for _, s := range c.sets {
		if s == leaf {
			return true
		}
	}
	return false
}

func (c *fifoCache) insert(leaf int32) {
	if c.cap == 0 {
		return
	}
	if len(c.sets) >= c.cap {
		c.sets = c.sets[1:]
	}
	c.sets = append(c.sets, leaf)
}

// Traffic counts buffer accesses (Fig. 13's categories).
type Traffic struct {
	FEQueryQueue int64
	QueryBuf     int64
	QueryStacks  int64
	ResultBuf    int64
	BEQueryQueue int64
	NodeCache    int64
	PointsBuf    int64
}

// Total sums all buffer accesses.
func (t Traffic) Total() int64 {
	return t.FEQueryQueue + t.QueryBuf + t.QueryStacks + t.ResultBuf +
		t.BEQueryQueue + t.NodeCache + t.PointsBuf
}

// OpCounts tallies compute events for the energy model.
type OpCounts struct {
	PEDistanceOps int64 // leaf scans + leader checks + RU CD ops
	SRAMReads     int64
	SRAMWrites    int64
	DRAMAccesses  int64
}

func newEngine(cfg *Config, visits *twostage.VisitLog, numLeaves int) *engine {
	e := &engine{
		cfg:       cfg,
		visits:    visits,
		ruFree:    make([]uint64, cfg.NumRU),
		suQueue:   make([]suFIFO, cfg.NumSU),
		suBusy:    make([]uint64, cfg.NumSU),
		suCheckAt: make([]uint64, cfg.NumSU),
		peFree:    make([][]uint64, cfg.NumSU),
		leafToSU:  make([]int32, numLeaves),
	}
	for i := range e.peFree {
		e.peFree[i] = make([]uint64, cfg.PEsPerSU)
	}
	// Query distribution network: low-order bits of the leaf ID select the
	// SU (§5.3).
	for leaf := range e.leafToSU {
		e.leafToSU[leaf] = int32(leaf % cfg.NumSU)
	}
	if cfg.NodeCacheSets > 0 {
		perSU := cfg.NodeCacheSets / cfg.NumSU
		if perSU < 1 {
			perSU = 1
		}
		e.nodeCache = make([]fifoCache, cfg.NumSU)
		for i := range e.nodeCache {
			e.nodeCache[i].cap = perSU
		}
	}
	return e
}

func (e *engine) push(ev event) {
	ev.order = e.order
	e.order++
	heap.Push(&e.events, ev)
}

// scheduleSUCheck schedules a service check for the SU at time t unless a
// not-yet-fired check already exists at or before t. Without deduplication
// every arrival to a busy SU would re-poll at every subsequent batch
// boundary, inflating the event count quadratically; the pending-check
// marker is cleared when a check fires (see run), so same-cycle arrivals
// after a fired check still get their own.
func (e *engine) scheduleSUCheck(su int32, t uint64) {
	if pending := e.suCheckAt[su]; pending != 0 && pending <= t {
		return
	}
	e.suCheckAt[su] = t
	e.push(event{time: t, kind: evSUCheck, su: su})
}

// visit returns step seg of query qid's walk.
func (e *engine) visit(qid, seg int32) *twostage.Visit {
	return &e.visits.Query(int(qid))[seg]
}

// run executes all walks and returns the total cycle count.
func (e *engine) run() uint64 {
	// All queries arrive at cycle 0 in the FQQ.
	for qid := range e.visits.Queries() {
		e.push(event{time: 0, kind: evFQQArrival, qid: int32(qid), seg: 0})
	}
	for e.events.Len() > 0 {
		ev := heap.Pop(&e.events).(event)
		e.now = ev.time
		switch ev.kind {
		case evFQQArrival:
			e.traffic.FEQueryQueue += 2 // push + later pop
			e.fqq = append(e.fqq, pendingQuery{qid: ev.qid, seg: ev.seg})
			e.dispatchFE()
		case evSUCheck:
			if e.suCheckAt[ev.su] == ev.time {
				e.suCheckAt[ev.su] = 0
			}
			e.serviceSU(int(ev.su))
		}
	}
	return e.lastDone
}

// dispatchFE assigns pending FQQ entries to RUs.
func (e *engine) dispatchFE() {
	for len(e.fqq) > 0 {
		// Earliest-free RU.
		ru := 0
		for i := 1; i < len(e.ruFree); i++ {
			if e.ruFree[i] < e.ruFree[ru] {
				ru = i
			}
		}
		item := e.fqq[0]
		e.fqq = e.fqq[1:]

		start := e.ruFree[ru]
		if e.now > start {
			start = e.now
		}
		seg := e.visit(item.qid, item.seg)
		cycles := ruBurstCycles(seg.TopNodes, seg.Pruned, e.cfg)
		end := start + cycles
		e.ruFree[ru] = end
		e.ruBusyCycles += cycles

		// FE traffic: query fetch, stack pops/pushes, node reads, result
		// inserts for top-node hits.
		e.traffic.QueryBuf++
		pops := int64(seg.TopNodes + seg.Pruned)
		e.traffic.QueryStacks += pops + 2*int64(seg.TopNodes) // pops + child pushes
		e.traffic.PointsBuf += int64(seg.TopNodes)            // RN reads node data
		e.counts.PEDistanceOps += int64(seg.TopNodes)         // CD stage compute
		e.counts.SRAMReads += pops + int64(seg.TopNodes) + 1
		e.counts.SRAMWrites += 2 * int64(seg.TopNodes)

		if seg.Leaf >= 0 {
			su := e.leafToSU[seg.Leaf]
			e.traffic.BEQueryQueue += 2
			e.counts.SRAMWrites++
			e.suQueue[su].push(suQueueItem{
				qid: item.qid, seg: item.seg, leaf: seg.Leaf, follower: seg.Follower,
			})
			t := end
			if e.cfg.Issue == MQSN && e.suBusy[su] > t {
				t = e.suBusy[su]
			}
			e.scheduleSUCheck(su, t)
		} else {
			// Query complete.
			e.completed++
			if end > e.lastDone {
				e.lastDone = end
			}
		}
	}
}

// serviceSU issues one batch (MQSN) or fills PEs (MQMN) if the SU is free.
func (e *engine) serviceSU(su int) {
	if e.suQueue[su].len() == 0 {
		return
	}
	if e.cfg.Issue == MQMN {
		e.serviceMQMN(su)
		return
	}
	if e.suBusy[su] > e.now {
		// Busy: make sure a check fires when the batch completes.
		e.scheduleSUCheck(int32(su), e.suBusy[su])
		return
	}
	// MQSN: the issue logic uses the first query in the BQB as the search
	// key and associatively gathers same-leaf, same-mode queries up to the
	// PE count. The scheduling window is the BQB capacity (128 queries,
	// §5.3) — the hierarchical-SU design exists precisely to keep this
	// window small and the issue logic complexity-effective. The in-place
	// partition keeps servicing O(window) even when the modeled queue runs
	// deep.
	q := &e.suQueue[su]
	window := q.head + e.cfg.BQBCapacity
	if window > len(q.items) {
		window = len(q.items)
	}
	key := q.items[q.head]
	write := q.head
	for i := q.head; i < window && write-q.head < e.cfg.PEsPerSU; i++ {
		it := q.items[i]
		if it.leaf == key.leaf && it.follower == key.follower {
			q.items[i] = q.items[write]
			q.items[write] = it
			write++
		}
	}
	batch := make([]suQueueItem, write-q.head)
	copy(batch, q.items[q.head:write])
	q.head = write
	q.compact()

	var maxScan, maxLeader int32
	for _, it := range batch {
		seg := e.visit(it.qid, it.seg)
		if seg.Scanned > maxScan {
			maxScan = seg.Scanned
		}
		if seg.LeaderChecks > maxLeader {
			maxLeader = seg.LeaderChecks
		}
	}
	cycles := suScanCycles(maxScan, maxLeader, len(batch), e.cfg.PEsPerSU)
	end := e.now + cycles
	e.suBusy[su] = end
	e.suBusyCycles += cycles * uint64(len(batch))
	e.accountScan(su, batch, key.follower, true)
	for _, it := range batch {
		e.push(event{time: end, kind: evFQQArrival, qid: it.qid, seg: it.seg + 1})
	}
	if e.suQueue[su].len() > 0 {
		e.scheduleSUCheck(int32(su), end)
	}
}

// serviceMQMN dispatches every pending query to the earliest-free PE.
func (e *engine) serviceMQMN(su int) {
	q := &e.suQueue[su]
	for _, it := range q.items[q.head:] {
		pe := 0
		for i := 1; i < len(e.peFree[su]); i++ {
			if e.peFree[su][i] < e.peFree[su][pe] {
				pe = i
			}
		}
		start := e.peFree[su][pe]
		if e.now > start {
			start = e.now
		}
		seg := e.visit(it.qid, it.seg)
		cycles := suScanCycles(seg.Scanned, seg.LeaderChecks, 1, e.cfg.PEsPerSU)
		end := start + cycles
		e.peFree[su][pe] = end
		e.suBusyCycles += cycles
		e.accountScan(su, []suQueueItem{it}, it.follower, false)
		e.push(event{time: end, kind: evFQQArrival, qid: it.qid, seg: it.seg + 1})
	}
	q.items = q.items[:0]
	q.head = 0
}

// accountScan books traffic and ops for one scan batch. shared indicates
// the node-set stream is read once for the whole batch (MQSN).
func (e *engine) accountScan(su int, batch []suQueueItem, follower bool, shared bool) {
	var streamReads int64
	for bi, it := range batch {
		seg := e.visit(it.qid, it.seg)
		e.traffic.QueryBuf++ // PE-local query point load
		e.counts.SRAMReads++
		e.counts.PEDistanceOps += int64(seg.Scanned) + int64(seg.LeaderChecks)
		e.traffic.ResultBuf += int64(seg.ResultWrites)
		e.counts.SRAMWrites += int64(seg.ResultWrites)
		if follower {
			// Followers stream their leader's results from the Result
			// Buffer (§5.3) — never shareable.
			e.traffic.ResultBuf += int64(seg.Scanned)
			e.counts.SRAMReads += int64(seg.Scanned) + int64(seg.LeaderChecks)
		} else if !shared || bi == 0 {
			streamReads += int64(seg.Scanned)
		}
	}
	if follower || streamReads == 0 {
		return
	}
	// Precise scans stream the node set; the node cache intercepts the
	// Input Point Buffer traffic on a hit.
	leaf := batch[0].leaf
	if e.nodeCache != nil {
		if e.nodeCache[su].lookup(leaf) {
			e.traffic.NodeCache += streamReads
			e.counts.SRAMReads += streamReads
			return
		}
		e.nodeCache[su].insert(leaf)
		// Miss: read from the points buffer and fill the cache.
		e.traffic.PointsBuf += streamReads
		e.traffic.NodeCache += streamReads // fill writes
		e.counts.SRAMReads += streamReads
		e.counts.SRAMWrites += streamReads
		return
	}
	e.traffic.PointsBuf += streamReads
	e.counts.SRAMReads += streamReads
}
