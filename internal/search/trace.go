package search

import (
	"sync"

	"tigris/internal/geom"
	"tigris/internal/kdtree"
)

// The trace backend closes the loop between the software pipeline and the
// accelerator co-simulation: it decorates any other backend and records
// every query batch a stage issues into a TraceLog, so the accelerator
// model (internal/sim) and the CPU/GPU baselines (internal/baseline) can
// replay the *real* pipeline query stream instead of re-walking the
// pipeline to synthesize workloads. Results pass through the inner
// backend untouched, so tracing never perturbs the registration output.

// TraceKind classifies one recorded batch by query type.
type TraceKind int

const (
	// TraceNearest is a nearest-neighbor batch (RPCE-shaped).
	TraceNearest TraceKind = iota
	// TraceKNearest is an exact k-NN batch (sparse stages).
	TraceKNearest
	// TraceRadius is a radius batch (NE/descriptor-shaped).
	TraceRadius
)

// String implements fmt.Stringer.
func (k TraceKind) String() string {
	switch k {
	case TraceKNearest:
		return "KNearest"
	case TraceRadius:
		return "Radius"
	default:
		return "Nearest"
	}
}

// Pipeline stage labels for trace attribution. Each registration stage
// tags the searcher (TagStage) before issuing its batches, so a capture
// can be weighted per stage the way the paper's Fig. 6 breaks search
// time down — not just per query kind.
const (
	StageNormals     = "normal_estimation"
	StageKeypoints   = "keypoint_detection"
	StageDescriptors = "descriptor_calculation"
	StageRPCE        = "rpce"
)

// TraceBatch is one recorded stage batch: the query points (a private
// copy) plus the per-kind parameters. A batch of one records a
// single-query call.
type TraceBatch struct {
	Kind TraceKind
	// Stage is the pipeline stage that issued the batch (one of the
	// Stage* labels; empty when the caller never tagged the searcher).
	Stage string
	// K is the neighbor count of a TraceKNearest batch.
	K int
	// Radius is the search radius of a TraceRadius batch.
	Radius float64
	// Queries are the batch's query points, in issue order.
	Queries []geom.Vec3
}

// stageTagger is implemented by searchers that attribute subsequent
// queries to a pipeline stage. Decorators forward the tag to their inner
// searcher; use TagStage to tag any Searcher without a type assertion.
type stageTagger interface {
	SetStage(stage string)
}

// TagStage labels the pipeline stage about to issue queries through s.
// A no-op for searchers that do not record stages, so every stage can
// tag unconditionally.
func TagStage(s Searcher, stage string) {
	if t, ok := s.(stageTagger); ok {
		t.SetStage(stage)
	}
}

// TraceLog accumulates recorded batches. It is safe for concurrent use:
// a pipelined streaming session records from two frames' searchers at
// once. The zero value is ready to use and retains every batch until
// Reset; captures Reset it per frame.
type TraceLog struct {
	mu      sync.Mutex
	batches []TraceBatch
}

// add records a batch, copying the queries (callers own and may reuse the
// input slice). Empty batches are dropped.
func (l *TraceLog) add(kind TraceKind, stage string, k int, radius float64, qs []geom.Vec3) {
	if len(qs) == 0 {
		return
	}
	cp := make([]geom.Vec3, len(qs))
	copy(cp, qs)
	l.mu.Lock()
	l.batches = append(l.batches, TraceBatch{Kind: kind, Stage: stage, K: k, Radius: radius, Queries: cp})
	l.mu.Unlock()
}

// Batches snapshots the recorded batches in issue order. The headers are
// copied; the query slices are shared and must be treated as read-only.
func (l *TraceLog) Batches() []TraceBatch {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]TraceBatch(nil), l.batches...)
}

// Reset discards the recorded batches (the log stays usable).
func (l *TraceLog) Reset() {
	l.mu.Lock()
	l.batches = nil
	l.mu.Unlock()
}

// TraceSearcher decorates the Searcher it embeds, recording every query
// into Log before delegating. Construct it directly or via the "trace"
// registry backend (options: "inner" backend name, "sink" *TraceLog, rest
// forwarded).
// The pipeline stages label their traffic through SetStage (see
// TagStage); like the rest of the Searcher surface, the stage tag is not
// synchronized — distinct searcher instances record concurrently, one
// instance must be driven sequentially.
type TraceSearcher struct {
	Searcher
	Log   *TraceLog
	stage string
}

// SetStage attributes subsequent batches to the given pipeline stage
// (TagStage calls it).
func (s *TraceSearcher) SetStage(stage string) { s.stage = stage }

// Nearest implements Searcher, recording a batch of one.
func (s *TraceSearcher) Nearest(q geom.Vec3) (kdtree.Neighbor, bool) {
	s.Log.add(TraceNearest, s.stage, 0, 0, []geom.Vec3{q})
	return s.Searcher.Nearest(q)
}

// KNearest implements Searcher, recording a batch of one.
func (s *TraceSearcher) KNearest(q geom.Vec3, k int) []kdtree.Neighbor {
	s.Log.add(TraceKNearest, s.stage, k, 0, []geom.Vec3{q})
	return s.Searcher.KNearest(q, k)
}

// Radius implements Searcher, recording a batch of one.
func (s *TraceSearcher) Radius(q geom.Vec3, r float64) []kdtree.Neighbor {
	s.Log.add(TraceRadius, s.stage, 0, r, []geom.Vec3{q})
	return s.Searcher.Radius(q, r)
}

// NearestBatch implements Searcher, recording the whole stage batch.
func (s *TraceSearcher) NearestBatch(qs []geom.Vec3) []kdtree.Neighbor {
	s.Log.add(TraceNearest, s.stage, 0, 0, qs)
	return s.Searcher.NearestBatch(qs)
}

// NearestBatchInto records the batch and forwards the in-place fast path
// (see BatchNearestInto), so tracing keeps the hot loop's zero-allocation
// behavior when the inner backend supports it.
func (s *TraceSearcher) NearestBatchInto(qs []geom.Vec3, buf []kdtree.Neighbor) []kdtree.Neighbor {
	s.Log.add(TraceNearest, s.stage, 0, 0, qs)
	return BatchNearestInto(s.Searcher, qs, buf)
}

// KNearestBatch implements Searcher, recording the whole stage batch.
func (s *TraceSearcher) KNearestBatch(qs []geom.Vec3, k int) [][]kdtree.Neighbor {
	s.Log.add(TraceKNearest, s.stage, k, 0, qs)
	return s.Searcher.KNearestBatch(qs, k)
}

// RadiusBatch implements Searcher, recording the whole stage batch.
func (s *TraceSearcher) RadiusBatch(qs []geom.Vec3, r float64) [][]kdtree.Neighbor {
	s.Log.add(TraceRadius, s.stage, 0, r, qs)
	return s.Searcher.RadiusBatch(qs, r)
}
