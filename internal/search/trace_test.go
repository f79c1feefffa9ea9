package search

import (
	"math/rand"
	"reflect"
	"testing"

	"tigris/internal/cloud"
	"tigris/internal/geom"
)

// TestTraceSearcherTransparent: tracing must never change results, and
// the log must record every batch with the right kind, parameters, and
// query copies.
func TestTraceSearcherTransparent(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	pts := randPoints(r, 400)
	qs := randPoints(r, 30)

	sink := &TraceLog{}
	traced, err := NewByNameSlab(BackendTrace, cloud.SlabFromPoints(pts), Options{
		OptTraceInner: BackendTwoStage,
		OptTraceSink:  sink,
		OptTopHeight:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	plain := NewTwoStageSearcher(pts, TwoStageConfig{TopHeight: 3})

	if !reflect.DeepEqual(traced.NearestBatch(qs), plain.NearestBatch(qs)) {
		t.Fatal("traced NearestBatch diverged from plain backend")
	}
	ra := traced.RadiusBatch(qs, 1.5)
	rb := plain.RadiusBatch(qs, 1.5)
	for i := range qs {
		if !reflect.DeepEqual(ra[i], rb[i]) {
			t.Fatalf("traced RadiusBatch[%d] diverged", i)
		}
	}
	if got, want := traced.KNearest(qs[0], 5), plain.KNearest(qs[0], 5); !reflect.DeepEqual(got, want) {
		t.Fatal("traced KNearest diverged")
	}

	batches := sink.Batches()
	if len(batches) != 3 {
		t.Fatalf("recorded %d batches, want 3", len(batches))
	}
	if batches[0].Kind != TraceNearest || len(batches[0].Queries) != len(qs) {
		t.Fatalf("batch 0 = %v kind, %d queries", batches[0].Kind, len(batches[0].Queries))
	}
	if batches[1].Kind != TraceRadius || batches[1].Radius != 1.5 {
		t.Fatalf("batch 1 = %v kind, radius %v", batches[1].Kind, batches[1].Radius)
	}
	if batches[2].Kind != TraceKNearest || batches[2].K != 5 || len(batches[2].Queries) != 1 {
		t.Fatalf("batch 2 = %+v", batches[2])
	}
	if sink.QueryCount() != int64(2*len(qs)+1) {
		t.Fatalf("QueryCount = %d, want %d", sink.QueryCount(), 2*len(qs)+1)
	}

	// The log copied the queries: mutating the caller's slice afterwards
	// must not reach the capture.
	orig := batches[0].Queries[0]
	qs[0].X += 100
	if sink.Batches()[0].Queries[0] != orig {
		t.Fatal("trace must copy query slices")
	}

	sink.Reset()
	if sink.Len() != 0 {
		t.Fatal("Reset must clear the log")
	}
}

// TestTraceLogRotation: the max_batches retention cap must rotate per
// query kind — newest batches kept, oldest of the same kind evicted —
// without touching other kinds, closing the "trace capture grows
// unboundedly" follow-up.
func TestTraceLogRotation(t *testing.T) {
	var log TraceLog
	log.SetMaxBatchesPerKind(2)
	q := func(x float64) []geom.Vec3 { return []geom.Vec3{{X: x}} }

	log.add(TraceNearest, "", 0, 0, q(1))
	log.add(TraceNearest, "", 0, 0, q(2))
	log.add(TraceRadius, "", 0, 0.5, q(10))
	log.add(TraceNearest, "", 0, 0, q(3)) // evicts the x=1 nearest batch

	batches := log.Batches()
	if len(batches) != 3 {
		t.Fatalf("retained %d batches, want 3", len(batches))
	}
	// Order preserved; the oldest nearest batch is gone, the radius batch
	// untouched.
	if batches[0].Queries[0].X != 2 || batches[0].Kind != TraceNearest {
		t.Fatalf("batch 0 = %+v, want the x=2 nearest batch", batches[0])
	}
	if batches[1].Kind != TraceRadius || batches[2].Queries[0].X != 3 {
		t.Fatalf("unexpected retention order: %+v", batches)
	}
	if log.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", log.Dropped())
	}

	// Tightening the cap evicts immediately.
	log.SetMaxBatchesPerKind(1)
	batches = log.Batches()
	if len(batches) != 2 || batches[0].Kind != TraceRadius || batches[1].Queries[0].X != 3 {
		t.Fatalf("after tightening: %+v", batches)
	}
	if log.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", log.Dropped())
	}

	// Reset clears retention state but keeps the cumulative drop count.
	log.Reset()
	log.add(TraceNearest, "", 0, 0, q(4))
	if log.Len() != 1 || log.Dropped() != 2 {
		t.Fatalf("after reset: len %d dropped %d", log.Len(), log.Dropped())
	}
}

// TestTraceBackendMaxBatchesOption: the registry option must reach the
// sink and not leak into the inner backend's option validation.
func TestTraceBackendMaxBatchesOption(t *testing.T) {
	sink := &TraceLog{}
	pts := []geom.Vec3{{X: 1}, {X: 2}, {X: 3}}
	s, err := NewByNameSlab(BackendTrace, cloud.SlabFromPoints(pts), Options{
		OptTraceSink: sink, OptTraceMaxBatches: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.NearestBatch([]geom.Vec3{{X: float64(i)}})
	}
	if sink.Len() != 2 {
		t.Fatalf("retained %d batches, want 2", sink.Len())
	}
	if sink.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3", sink.Dropped())
	}
	if _, err := NewByNameSlab(BackendTrace, cloud.SlabFromPoints(pts), Options{
		OptTraceSink: sink, OptTraceMaxBatches: -1,
	}); err == nil {
		t.Fatal("negative max_batches must be rejected")
	}
}
