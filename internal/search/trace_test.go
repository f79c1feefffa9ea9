package search

import (
	"math/rand"
	"reflect"
	"testing"

	"tigris/internal/cloud"
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
	queries := 0
	for _, b := range batches {
		queries += len(b.Queries)
	}
	if queries != 2*len(qs)+1 {
		t.Fatalf("recorded %d queries, want %d", queries, 2*len(qs)+1)
	}

	// The log copied the queries: mutating the caller's slice afterwards
	// must not reach the capture.
	orig := batches[0].Queries[0]
	qs[0].X += 100
	if sink.Batches()[0].Queries[0] != orig {
		t.Fatal("trace must copy query slices")
	}

	sink.Reset()
	if len(sink.Batches()) != 0 {
		t.Fatal("Reset must clear the log")
	}
}
