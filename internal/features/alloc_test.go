package features

import (
	"math"
	"testing"
)

// TestFeatureTreeNearestBatchSteadyStateAllocs extends the hot-path
// AllocsPerRun coverage to the KPCE feature tree: with the pooled match
// slab, a fully recycled NearestBatch must settle to (near) zero
// allocations per call — the last per-pair allocation proportional to
// the key-point count (the PR 4 follow-up).
func TestFeatureTreeNearestBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under -race")
	}
	const dim, n = 33, 200
	d := &Descriptors{Dim: dim, Data: make([]float64, dim*n)}
	for i := range d.Data {
		d.Data[i] = float64(i%97) * 0.13
	}
	tree := NewFeatureTree(d)
	qs := make([][]float64, n)
	for i := range qs {
		qs[i] = d.Row((i * 7) % n)
	}

	// Warm the slab pool.
	for i := 0; i < 3; i++ {
		RecycleMatches(tree.NearestBatch(qs, 1))
	}
	allocs := testing.AllocsPerRun(50, func() {
		RecycleMatches(tree.NearestBatch(qs, 1))
	})
	// Tolerated residue: the two worker-pool closures — fixed per-call
	// costs, nothing proportional to the query count (which used to cost
	// one len(qs)-sized slice per call).
	if allocs > 4 {
		t.Errorf("NearestBatch allocates %.1f times per call steady-state, want <= 4", allocs)
	}
}

// TestRecycledSlabsArePoisoned: under test, a match batch and a
// descriptor slab handed back are overwritten with their pool's poison
// (Row −1 and NaN), so a reader that outlives RecycleMatches or
// RecycleDescriptors computes garbage rather than the next pair's
// values; and a descriptor slab drawn again starts at zero, as the
// kernels' += accumulation needs.
func TestRecycledSlabsArePoisoned(t *testing.T) {
	const dim, n = 33, 40
	d := &Descriptors{Dim: dim, Data: newDescriptorData(dim * n)}
	for i := range d.Data {
		d.Data[i] = float64(i%89) * 0.7
	}
	tree := NewFeatureTree(d)
	ms := tree.NearestBatch([][]float64{d.Row(3), d.Row(17), d.Row(31)}, 1)
	if ms[1].Row != 17 {
		t.Fatalf("row 17 matched row %d", ms[1].Row)
	}
	RecycleMatches(ms)
	for i, m := range ms[:cap(ms)] {
		if m.Row != -1 || !math.IsNaN(m.Dist2) {
			t.Fatalf("recycled match %d reads %+v", i, m)
		}
	}

	data := d.Data
	RecycleDescriptors(d)
	if d.Data != nil {
		t.Error("RecycleDescriptors left the slab on the descriptors")
	}
	for i, v := range data[:cap(data)] {
		if !math.IsNaN(v) {
			t.Fatalf("recycled descriptor entry %d reads %v", i, v)
		}
	}
	for i, v := range newDescriptorData(len(data)) {
		if v != 0 {
			t.Fatalf("a redrawn descriptor slab holds %v at %d", v, i)
		}
	}
}
