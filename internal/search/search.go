// Package search defines the neighbor-search abstraction the registration
// pipeline is written against, with interchangeable backends selected by
// name through an open registry (registry.go: RegisterBackend /
// Backends / NewByNameSlab). The paper's §4.1 puts the exact structures on
// one axis — a two-stage tree of top height 0 is a linear scan, at full
// height the canonical KD-tree — and so does this package: Searcher is
// implemented once (searcher: sequential methods here, batches in
// batch.go) over the index contract below, and the first three backends
// are that implementation over three indexes; the last two decorate any:
//
//   - TwoStageSearcher ("twostage", "twostage-approx"): the paper's
//     two-stage tree (§4), exact — the pipeline's default — or with the
//     approximate leader/follower algorithm (approx.go). Its leaf sets are
//     contiguous coordinate runs scanned without a branch per point
//     (internal/twostage), which on a CPU beats a node per point; with no
//     top height given, leaves hold about autoLeafSize points.
//   - KDSearcher ("canonical"): the canonical KD-tree (§3), one point a
//     node. The reference: Base-KD of the paper's evaluation
//     (internal/baseline, cmd/tigris-paper), the structure captured
//     query streams are replayed on, and selected by name only.
//   - BruteSearcher ("bruteforce"): the linear scan — correctness oracle
//     and zero-build-cost choice for tiny clouds.
//   - TraceSearcher ("trace"): a decorator recording every stage batch
//     into a TraceLog for accelerator co-simulation replay.
//   - Error-injection wrappers (errinject.go): the §4.2 study that replaces
//     NN results with the k-th neighbor and radius results with a shell.
//
// # Batched parallel queries
//
// Every Searcher answers queries two ways: one at a time (Nearest,
// KNearest, Radius) or as a batch (NearestBatch, KNearestBatch,
// RadiusBatch). The batch methods execute the queries of one stage on a
// shared worker pool (internal/par), the software counterpart of the
// query-level parallelism the paper's two-stage tree exposes to hardware.
// Batch results are positionally aligned with the queries and — for every
// exact backend — bit-identical to issuing the same queries one at a time,
// regardless of the Parallelism setting: each query is independent, each
// worker records into its own stats shard, and shards are merged after the
// batch. The approximate leader/follower backend processes batches in
// fixed-size query chunks with a fresh per-chunk session (see approx.go),
// so its results are a deterministic function of the batch alone,
// invariant under Parallelism.
//
// A Searcher is NOT safe for concurrent use by multiple goroutines: the
// batch methods parallelize internally, but distinct calls on the same
// instance must be sequential. This keeps the per-instance metrics exact
// without atomics on the query fast path.
//
// Every searcher records per-instance metrics (wall time, query and visit
// counts) so the pipeline can attribute stage time to KD-tree search the
// way Fig. 4b does.
package search

import (
	"time"

	"tigris/internal/cloud"
	"tigris/internal/geom"
	"tigris/internal/kdtree"
	"tigris/internal/par"
	"tigris/internal/twostage"
)

// Metrics accumulates instrumentation for one searcher instance. Not safe
// for concurrent use; the batch methods shard per worker and merge here.
type Metrics struct {
	BuildTime time.Duration
	// SearchTime is wall time spent answering queries. Batch methods add
	// the wall time of the whole batch, so with Parallelism > 1 this is
	// less than the sum of per-query times — exactly the Fig. 4-style
	// speedup the batched API exists to expose.
	SearchTime time.Duration
	// Queries counts answered queries. NodesVisited counts the points and
	// nodes whose distance was computed; on the exact two-stage searcher
	// a tracked query whose certificate holds (BatchNearestTracked)
	// computes only its leaf set's, so the visits of the pipeline's
	// searchers fall below a walk per query while every answer still
	// counts one query. Replays of captured streams walk every query.
	Queries      int64
	NodesVisited int64
}

// Merge adds other's counters into m.
func (m *Metrics) Merge(other Metrics) {
	m.BuildTime += other.BuildTime
	m.SearchTime += other.SearchTime
	m.Queries += other.Queries
	m.NodesVisited += other.NodesVisited
}

// Searcher answers neighbor queries over a fixed point set.
//
// The *Batch methods answer many independent queries at once on a worker
// pool sized by SetParallelism (default: one worker per CPU). Batch
// results are positionally aligned with the query slice; a NearestBatch
// entry with Index < 0 means the searcher holds no points.
//
// Ownership contract: a KNearestBatch or RadiusBatch result passes to
// the caller whole, which may consume it and hand it to RecycleBatch —
// pipeline stages do exactly that. The built-in backends answer into
// pooled batches (batch.go) that RecycleBatch takes back in one piece,
// so the per-query slices die with the call: copy what must outlive it.
// Implementations (including backends registered through
// RegisterBackend) must return slices they do not retain or alias; a
// result that is not a pooled batch is merely cleared by RecycleBatch.
type Searcher interface {
	// Nearest returns the nearest neighbor of q.
	Nearest(q geom.Vec3) (kdtree.Neighbor, bool)
	// KNearest returns the k nearest neighbors of q in ascending order.
	KNearest(q geom.Vec3, k int) []kdtree.Neighbor
	// Radius returns all neighbors within r of q in ascending order.
	Radius(q geom.Vec3, r float64) []kdtree.Neighbor
	// NearestBatch answers Nearest for every query; misses have Index -1.
	NearestBatch(qs []geom.Vec3) []kdtree.Neighbor
	// KNearestBatch answers KNearest for every query.
	KNearestBatch(qs []geom.Vec3, k int) [][]kdtree.Neighbor
	// RadiusBatch answers Radius for every query.
	RadiusBatch(qs []geom.Vec3, r float64) [][]kdtree.Neighbor
	// SetParallelism sets the batch worker count (<= 0 selects par.Slots).
	SetParallelism(n int)
	// Parallelism reports the resolved batch worker count.
	Parallelism() int
	// Slab exposes the indexed SoA point store (read-only by
	// convention). Consumers dequantize with Slab().At(i); results of
	// every query were computed against exactly those values.
	Slab() *cloud.Slab
	// Metrics returns the accumulated instrumentation.
	Metrics() *Metrics
}

// index is what a search structure gives the one Searcher implementation
// below: the point store it indexes and its three per-query kernels, each
// counting into the stats it is handed (a batch worker's shard, or the
// searcher's own), the two *Into ones answering into buf reset to length
// 0 and regrown as needed. *kdtree.Tree and *twostage.Tree satisfy it as
// they are, scan is the linear one, and a new structure plugs in here: a
// type with these four methods, a Stats that is a counters, and a
// constructor that instantiates searcher over them.
type index[St any] interface {
	Slab() *cloud.Slab
	Nearest(q geom.Vec3, stats *St) (kdtree.Neighbor, bool)
	KNearestInto(q geom.Vec3, k int, buf []kdtree.Neighbor, stats *St) []kdtree.Neighbor
	RadiusInto(q geom.Vec3, r float64, buf []kdtree.Neighbor, stats *St) []kdtree.Neighbor
}

// counters is the stats side of the contract: a pointer to the index's
// counter block that can fold a worker's shard in and report the two
// totals Metrics carries.
type counters[St any] interface {
	*St
	Merge(St)
	Totals() (queries, visited int64)
}

// searcher implements Searcher over an index, once: the sequential
// methods here, the batch methods in batch.go. The exported searchers are
// this type instantiated.
type searcher[I index[St], St any, P counters[St]] struct {
	index       I
	stats       St
	metrics     Metrics
	parallelism int
}

// build times the construction of a searcher's index.
func (s *searcher[I, St, P]) build(parallelism int, index func(workers int) I) {
	s.parallelism = par.Workers(parallelism)
	start := time.Now()
	s.index = index(s.parallelism)
	s.metrics.BuildTime = time.Since(start)
}

// SetParallelism implements Searcher.
func (s *searcher[I, St, P]) SetParallelism(n int) { s.parallelism = par.Workers(n) }

// Parallelism implements Searcher.
func (s *searcher[I, St, P]) Parallelism() int { return s.parallelism }

// Nearest implements Searcher.
func (s *searcher[I, St, P]) Nearest(q geom.Vec3) (kdtree.Neighbor, bool) {
	start := time.Now()
	nb, ok := s.index.Nearest(q, &s.stats)
	s.record(start)
	return nb, ok
}

// KNearest implements Searcher.
func (s *searcher[I, St, P]) KNearest(q geom.Vec3, k int) []kdtree.Neighbor {
	start := time.Now()
	res := s.index.KNearestInto(q, k, nil, &s.stats)
	s.record(start)
	return res
}

// Radius implements Searcher.
func (s *searcher[I, St, P]) Radius(q geom.Vec3, r float64) []kdtree.Neighbor {
	start := time.Now()
	res := s.index.RadiusInto(q, r, nil, &s.stats)
	s.record(start)
	return res
}

// Slab implements Searcher.
func (s *searcher[I, St, P]) Slab() *cloud.Slab { return s.index.Slab() }

// Metrics implements Searcher.
func (s *searcher[I, St, P]) Metrics() *Metrics {
	s.metrics.Queries, s.metrics.NodesVisited = P(&s.stats).Totals()
	return &s.metrics
}

func (s *searcher[I, St, P]) record(start time.Time) {
	s.metrics.SearchTime += time.Since(start)
}

// merge folds one batch worker's stats shard into the searcher's.
func (s *searcher[I, St, P]) merge(shard *St) { P(&s.stats).Merge(*shard) }

// KDSearcher wraps the canonical KD-tree.
type KDSearcher struct {
	searcher[*kdtree.Tree, kdtree.Stats, *kdtree.Stats]
}

// NewKDSearcher builds a canonical KD-tree over pts (quantized into a
// fresh SoA slab), recording build time. Batch parallelism defaults to
// par.Slots().
func NewKDSearcher(pts []geom.Vec3) *KDSearcher {
	return NewKDSearcherSlab(cloud.SlabFromPoints(pts))
}

// NewKDSearcherSlab builds a canonical KD-tree zero-copy over an
// existing SoA slab.
func NewKDSearcherSlab(slab *cloud.Slab) *KDSearcher {
	return NewKDSearcherSlabPar(slab, 0)
}

// NewKDSearcherSlabPar is NewKDSearcherSlab with the worker count fixed
// up front (<= 0 selects par.Slots), so the index build forks no wider
// than the batches the searcher will run.
func NewKDSearcherSlabPar(slab *cloud.Slab, parallelism int) *KDSearcher {
	s := &KDSearcher{}
	s.build(parallelism, func(workers int) *kdtree.Tree { return kdtree.BuildSlabPar(slab, workers) })
	return s
}

// TwoStageSearcher wraps the two-stage tree, optionally with the
// approximate leader/follower session (approx.go), which then answers
// Nearest, Radius and their batches; k-NN is always exact
// (twostage.Tree.KNearestInto).
type TwoStageSearcher struct {
	searcher[*twostage.Tree, twostage.Stats, *twostage.Stats]
	session *twostage.ApproxSession // nil when approximation is disabled
	approx  *twostage.ApproxOptions // nil when approximation is disabled
	// approxWorkers caches one approximate session per batch worker,
	// Reset between chunks (see approx.go); grown lazily so repeated
	// batch calls reuse the O(leaves) leader buffers.
	approxWorkers []approxWorker
}

// autoLeafSize is the leaf-set size a two-stage searcher aims for when no
// top height is given: the size at which a CPU's streamed leaf scans and
// its top-tree walk cost a frame the least (CHANGES.md, PR 27, has the
// {16, 32, 64, 128} table). The accelerator's 128 (§6.1) is the model's,
// and the model's trees are built at it explicitly.
const autoLeafSize = 32

// TwoStageConfig configures a TwoStageSearcher.
type TwoStageConfig struct {
	// TopHeight is the top-tree height (paper default 10 for ~130k-point
	// frames; <0 selects a height that yields leaf sets of at most
	// autoLeafSize points).
	TopHeight int
	// Approx enables the leader/follower algorithm with these options.
	Approx *twostage.ApproxOptions
	// Parallelism is the batch worker count (<= 0 selects par.Slots).
	Parallelism int
}

// NewTwoStageSearcher builds a two-stage tree over pts (quantized into a
// fresh SoA slab).
func NewTwoStageSearcher(pts []geom.Vec3, cfg TwoStageConfig) *TwoStageSearcher {
	return NewTwoStageSearcherSlab(cloud.SlabFromPoints(pts), cfg)
}

// NewTwoStageSearcherSlab builds a two-stage tree zero-copy over an
// existing SoA slab.
func NewTwoStageSearcherSlab(slab *cloud.Slab, cfg TwoStageConfig) *TwoStageSearcher {
	s := &TwoStageSearcher{}
	s.build(cfg.Parallelism, func(workers int) *twostage.Tree {
		height := cfg.TopHeight
		if height < 0 {
			height = twostage.HeightForLeafSize(slab.Len(), autoLeafSize)
		}
		return twostage.BuildSlabPar(slab, height, workers)
	})
	if cfg.Approx != nil {
		opts := *cfg.Approx
		s.approx = &opts
		s.session = s.index.NewApproxSession(opts)
	}
	return s
}

// Stats exposes the two-stage counters (leader hits etc.).
func (s *TwoStageSearcher) Stats() *twostage.Stats { return &s.stats }

// BruteSearcher answers every query by linear scan. It is the degenerate
// structure the paper's §4.1 taxonomy starts from (a two-stage tree with
// top height 0 is exactly one brute-forced leaf), the correctness oracle
// the tree backends are tested against, and — because it builds in O(1) —
// the fastest end-to-end choice for tiny clouds where tree construction
// dominates query time. It registers as the "bruteforce" backend.
type BruteSearcher struct {
	searcher[scan, kdtree.Stats, *kdtree.Stats]
}

// NewBruteSearcher quantizes pts into a fresh SoA slab without building
// any index; BuildTime records only the quantization pass.
func NewBruteSearcher(pts []geom.Vec3) *BruteSearcher {
	s := &BruteSearcher{}
	s.build(0, func(int) scan { return scan{cloud.SlabFromPoints(pts)} })
	return s
}

// NewBruteSearcherSlab wraps an existing slab without copying or
// indexing; BuildTime is recorded (and is effectively zero).
func NewBruteSearcherSlab(slab *cloud.Slab) *BruteSearcher {
	s := &BruteSearcher{}
	s.build(0, func(int) scan { return scan{slab} })
	return s
}

// scan is the index that is none: every kernel is kdtree's linear scan of
// the slab, charged as one query that computed every point's distance.
type scan struct{ slab *cloud.Slab }

func (x scan) Slab() *cloud.Slab { return x.slab }

func (x scan) count(stats *kdtree.Stats) {
	stats.Queries++
	stats.NodesVisited += int64(x.slab.Len())
}

func (x scan) Nearest(q geom.Vec3, stats *kdtree.Stats) (kdtree.Neighbor, bool) {
	x.count(stats)
	return kdtree.BruteNearestSlab(x.slab, q)
}

func (x scan) KNearestInto(q geom.Vec3, k int, buf []kdtree.Neighbor, stats *kdtree.Stats) []kdtree.Neighbor {
	x.count(stats)
	return kdtree.BruteKNearestIntoSlab(x.slab, q, k, buf)
}

func (x scan) RadiusInto(q geom.Vec3, r float64, buf []kdtree.Neighbor, stats *kdtree.Stats) []kdtree.Neighbor {
	x.count(stats)
	return kdtree.BruteRadiusIntoSlab(x.slab, q, r, buf)
}
