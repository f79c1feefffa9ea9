package search

import (
	"math/rand"
	"reflect"
	"testing"

	"tigris/internal/kdtree"
)

// TestBruteSearcherMatchesKD checks the linear-scan backend against the
// canonical tree on every query kind, one-at-a-time and batched, and
// that its metrics count a full scan per query.
func TestBruteSearcherMatchesKD(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	pts := randPoints(r, 300)
	qs := randPoints(r, 50)
	bs := NewBruteSearcher(pts)
	kd := NewKDSearcher(pts)

	for i, q := range qs {
		a, aok := bs.Nearest(q)
		b, bok := kd.Nearest(q)
		if aok != bok || a != b {
			t.Fatalf("query %d: Nearest %v,%v != %v,%v", i, a, aok, b, bok)
		}
		ra := bs.Radius(q, 3)
		rb := kd.Radius(q, 3)
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("query %d: Radius mismatch (%d vs %d results)", i, len(ra), len(rb))
		}
		ka := bs.KNearest(q, 7)
		kb := kd.KNearest(q, 7)
		if !reflect.DeepEqual(ka, kb) {
			t.Fatalf("query %d: KNearest mismatch", i)
		}
	}

	if got := bs.NearestBatch(qs); !reflect.DeepEqual(got, kd.NearestBatch(qs)) {
		t.Fatal("NearestBatch mismatch")
	}
	ra := bs.RadiusBatch(qs, 3)
	rb := kd.RadiusBatch(qs, 3)
	ka := bs.KNearestBatch(qs, 7)
	kb := kd.KNearestBatch(qs, 7)
	for i := range qs {
		if !reflect.DeepEqual(ra[i], rb[i]) {
			t.Fatalf("RadiusBatch[%d] mismatch", i)
		}
		if !reflect.DeepEqual(ka[i], kb[i]) {
			t.Fatalf("KNearestBatch[%d] mismatch", i)
		}
	}

	m := bs.Metrics()
	wantQueries := int64(3*len(qs) + 3*len(qs)) // sequential + batched rounds
	if m.Queries != wantQueries {
		t.Errorf("Queries = %d, want %d", m.Queries, wantQueries)
	}
	if m.NodesVisited != wantQueries*int64(len(pts)) {
		t.Errorf("NodesVisited = %d, want %d (full scan per query)", m.NodesVisited, wantQueries*int64(len(pts)))
	}
}

// TestBruteSearcherEmpty covers the no-points edge.
func TestBruteSearcherEmpty(t *testing.T) {
	bs := NewBruteSearcher(nil)
	if _, ok := bs.Nearest(randPoints(rand.New(rand.NewSource(1)), 1)[0]); ok {
		t.Fatal("Nearest on empty set must miss")
	}
	for _, nb := range bs.NearestBatch(randPoints(rand.New(rand.NewSource(2)), 4)) {
		if nb.Index != -1 {
			t.Fatalf("empty-set NearestBatch entry = %+v", nb)
		}
	}
	if res := bs.KNearest(randPoints(rand.New(rand.NewSource(3)), 1)[0], 3); len(res) != 0 {
		t.Fatalf("empty-set KNearest returned %d results", len(res))
	}
}

// TestKNearestBatchRecycle drives repeated k-NN batches through the slab
// pool (the KNearestInto path) and checks each round against fresh
// sequential queries.
func TestKNearestBatchRecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pts := randPoints(rng, 2000)
	qs := randPoints(rng, 300)
	for _, tc := range []struct {
		name   string
		s      Searcher
		oracle Searcher
	}{
		{"canonical", NewKDSearcher(pts), NewKDSearcher(pts)},
		{"twostage", NewTwoStageSearcher(pts, TwoStageConfig{TopHeight: 4}), NewTwoStageSearcher(pts, TwoStageConfig{TopHeight: 4})},
		{"bruteforce", NewBruteSearcher(pts), NewBruteSearcher(pts)},
	} {
		for round := 0; round < 3; round++ {
			k := 4 + 3*round
			res := tc.s.KNearestBatch(qs, k)
			for i, q := range qs {
				want := tc.oracle.KNearest(q, k)
				if !reflect.DeepEqual(res[i], want) {
					t.Fatalf("%s round %d query %d: pooled k-NN batch diverged", tc.name, round, i)
				}
			}
			RecycleBatch(res)
			for i := range res {
				if res[i] != nil {
					t.Fatalf("%s: RecycleBatch must clear entries", tc.name)
				}
			}
		}
	}
}

// TestKthNNInjectionRecycles ensures the error-injection consumer of
// KNearestBatch still degrades correctly now that it recycles the slabs.
func TestKthNNInjectionRecycles(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := randPoints(rng, 400)
	qs := randPoints(rng, 60)
	inj := &KthNNSearcher{Searcher: NewKDSearcher(pts), K: 3}
	oracle := NewKDSearcher(pts)
	for round := 0; round < 2; round++ {
		got := inj.NearestBatch(qs)
		for i, q := range qs {
			knn := oracle.KNearest(q, 3)
			if want := knn[len(knn)-1]; got[i] != want {
				t.Fatalf("round %d query %d: injected NN %v, want %v", round, i, got[i], want)
			}
		}
	}
}

// TestKNearestIntoSharedSlab exercises the regrow path: a tiny recycled
// buffer must grow transparently and still return exact results.
func TestKNearestIntoSharedSlab(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	pts := randPoints(rng, 500)
	tree := kdtree.Build(pts)
	buf := make([]kdtree.Neighbor, 0, 2)
	for i := 0; i < 20; i++ {
		q := randPoints(rng, 1)[0]
		got := tree.KNearestInto(q, 9, buf, nil)
		want := tree.KNearest(q, 9, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: KNearestInto diverged from KNearest", i)
		}
		buf = got // reuse the (possibly regrown) slab
	}
}
