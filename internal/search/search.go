// Package search defines the neighbor-search abstraction the registration
// pipeline is written against, with interchangeable backends selected by
// name through an open registry (registry.go: RegisterBackend /
// Backends / NewByNameSlab):
//
//   - TwoStageSearcher ("twostage", "twostage-approx"): the paper's
//     two-stage tree (§4), exact — the pipeline's default — or with the
//     approximate leader/follower algorithm. Its leaf sets are contiguous
//     coordinate runs scanned without a branch per point
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
// fixed-size query chunks with a fresh per-chunk session (see batch.go),
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
	"math"
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
	SearchTime   time.Duration
	Queries      int64
	NodesVisited int64 // points/nodes whose distance was computed
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
	// SetParallelism sets the batch worker count (<= 0 selects NumCPU).
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

// KDSearcher wraps the canonical KD-tree.
type KDSearcher struct {
	tree        *kdtree.Tree
	stats       kdtree.Stats
	metrics     Metrics
	parallelism int
}

// NewKDSearcher builds a canonical KD-tree over pts (quantized into a
// fresh SoA slab), recording build time. Batch parallelism defaults to
// runtime.NumCPU().
func NewKDSearcher(pts []geom.Vec3) *KDSearcher {
	return NewKDSearcherSlab(cloud.SlabFromPoints(pts))
}

// NewKDSearcherSlab builds a canonical KD-tree zero-copy over an
// existing SoA slab.
func NewKDSearcherSlab(slab *cloud.Slab) *KDSearcher {
	return NewKDSearcherSlabPar(slab, 0)
}

// NewKDSearcherSlabPar is NewKDSearcherSlab with the worker count fixed
// up front (<= 0 selects NumCPU), so the index build forks no wider
// than the batches the searcher will run.
func NewKDSearcherSlabPar(slab *cloud.Slab, parallelism int) *KDSearcher {
	s := &KDSearcher{parallelism: par.Workers(parallelism)}
	start := time.Now()
	s.tree = kdtree.BuildSlabPar(slab, s.parallelism)
	s.metrics.BuildTime = time.Since(start)
	return s
}

// SetParallelism implements Searcher.
func (s *KDSearcher) SetParallelism(n int) { s.parallelism = par.Workers(n) }

// Parallelism implements Searcher.
func (s *KDSearcher) Parallelism() int { return s.parallelism }

// Nearest implements Searcher.
func (s *KDSearcher) Nearest(q geom.Vec3) (kdtree.Neighbor, bool) {
	start := time.Now()
	nb, ok := s.tree.Nearest(q, &s.stats)
	s.record(start)
	return nb, ok
}

// KNearest implements Searcher.
func (s *KDSearcher) KNearest(q geom.Vec3, k int) []kdtree.Neighbor {
	start := time.Now()
	res := s.tree.KNearest(q, k, &s.stats)
	s.record(start)
	return res
}

// Radius implements Searcher.
func (s *KDSearcher) Radius(q geom.Vec3, r float64) []kdtree.Neighbor {
	start := time.Now()
	res := s.tree.Radius(q, r, &s.stats)
	s.record(start)
	return res
}

// Slab implements Searcher.
func (s *KDSearcher) Slab() *cloud.Slab { return s.tree.Slab() }

// Metrics implements Searcher.
func (s *KDSearcher) Metrics() *Metrics {
	s.metrics.Queries = s.stats.Queries
	s.metrics.NodesVisited = s.stats.NodesVisited
	return &s.metrics
}

func (s *KDSearcher) record(start time.Time) {
	s.metrics.SearchTime += time.Since(start)
}

// TwoStageSearcher wraps the two-stage tree, optionally with the
// approximate leader/follower session.
type TwoStageSearcher struct {
	tree    *twostage.Tree
	session *twostage.ApproxSession // nil when approximation is disabled
	approx  *twostage.ApproxOptions // nil when approximation is disabled
	// approxWorkers caches one approximate session per batch worker,
	// Reset between chunks (see batch.go); grown lazily so repeated
	// batch calls reuse the O(leaves) leader buffers.
	approxWorkers []approxWorker
	stats         twostage.Stats
	metrics       Metrics
	parallelism   int
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
	// Parallelism is the batch worker count (<= 0 selects NumCPU).
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
	s := &TwoStageSearcher{parallelism: par.Workers(cfg.Parallelism)}
	start := time.Now()
	height := cfg.TopHeight
	if height < 0 {
		height = twostage.HeightForLeafSize(slab.Len(), autoLeafSize)
	}
	s.tree = twostage.BuildSlabPar(slab, height, s.parallelism)
	s.metrics.BuildTime = time.Since(start)
	if cfg.Approx != nil {
		opts := *cfg.Approx
		s.approx = &opts
		s.session = s.tree.NewApproxSession(opts)
	}
	return s
}

// SetParallelism implements Searcher.
func (s *TwoStageSearcher) SetParallelism(n int) { s.parallelism = par.Workers(n) }

// Parallelism implements Searcher.
func (s *TwoStageSearcher) Parallelism() int { return s.parallelism }

// Tree exposes the underlying two-stage structure (used by the accelerator
// simulator, which replays the same searches cycle by cycle).
func (s *TwoStageSearcher) Tree() *twostage.Tree { return s.tree }

// Nearest implements Searcher.
func (s *TwoStageSearcher) Nearest(q geom.Vec3) (kdtree.Neighbor, bool) {
	start := time.Now()
	var nb kdtree.Neighbor
	var ok bool
	if s.session != nil {
		nb, ok = s.session.Nearest(q, &s.stats)
	} else {
		nb, ok = s.tree.Nearest(q, &s.stats)
	}
	s.record(start)
	return nb, ok
}

// KNearest implements Searcher. The two-stage structure serves k-NN
// exactly, by radius doubling from the NN distance (kNearestInto); there
// is no leader/follower path, because the pipeline stages that use k-NN
// are the sparse ones the paper excludes from approximation (§4.2).
func (s *TwoStageSearcher) KNearest(q geom.Vec3, k int) []kdtree.Neighbor {
	start := time.Now()
	res := s.kNearestInto(q, k, nil, &s.stats)
	s.record(start)
	return res
}

// kNearestInto answers k-NN exactly on the two-stage tree by radius
// doubling: start from the NN distance and expand until k neighbors are
// inside. stats is a parameter (not s.stats) so batch workers can shard
// it. The answer is built in buf (reset to length 0; the expanding radius
// passes reuse it and whatever it regrows into).
func (s *TwoStageSearcher) kNearestInto(q geom.Vec3, k int, buf []kdtree.Neighbor, stats *twostage.Stats) []kdtree.Neighbor {
	if k <= 0 || s.tree.Len() == 0 {
		return nil
	}
	nb, _ := s.tree.Nearest(q, stats)
	r := 2 * (1e-6 + math.Sqrt(nb.Dist2))
	var res []kdtree.Neighbor
	for i := 0; i < 64; i++ {
		res = s.tree.RadiusInto(q, r, buf, stats)
		buf = res // keep any regrown capacity for the next pass
		if len(res) >= k || len(res) == s.tree.Len() {
			break
		}
		r *= 2
	}
	if len(res) > k {
		res = res[:k]
	}
	return res
}

// Radius implements Searcher.
func (s *TwoStageSearcher) Radius(q geom.Vec3, r float64) []kdtree.Neighbor {
	start := time.Now()
	var res []kdtree.Neighbor
	if s.session != nil {
		res = s.session.Radius(q, r, &s.stats)
	} else {
		res = s.tree.Radius(q, r, &s.stats)
	}
	s.record(start)
	return res
}

// Slab implements Searcher.
func (s *TwoStageSearcher) Slab() *cloud.Slab { return s.tree.Slab() }

// Metrics implements Searcher.
func (s *TwoStageSearcher) Metrics() *Metrics {
	s.metrics.Queries = s.stats.Queries
	s.metrics.NodesVisited = s.stats.TotalVisited()
	return &s.metrics
}

// Stats exposes the two-stage counters (leader hits etc.).
func (s *TwoStageSearcher) Stats() *twostage.Stats { return &s.stats }

func (s *TwoStageSearcher) record(start time.Time) {
	s.metrics.SearchTime += time.Since(start)
}
