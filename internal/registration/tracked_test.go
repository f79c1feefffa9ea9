package registration_test

import (
	"testing"

	"tigris/internal/cloud"
	"tigris/internal/dse"
	"tigris/internal/geom"
	"tigris/internal/kdtree"
	"tigris/internal/registration"
	"tigris/internal/search"
)

// untrackedSearcher passes everything through to the two-stage searcher
// it wraps, the in-place NN batch included; being a decorator, it is not
// tracked (search.BatchNearestTracked), so behind it ICP walks every
// query.
type untrackedSearcher struct{ search.Searcher }

func (u untrackedSearcher) NearestBatchInto(qs []geom.Vec3, buf []kdtree.Neighbor) []kdtree.Neighbor {
	return search.BatchNearestInto(u.Searcher, qs, buf)
}

// TestAlignTrackedMatchesWalked: for all eight named design points at one
// and two workers, Align on the two-stage searcher, whose RPCE answers
// certified queries without a walk, gives what it gives with every query
// walked — transform bits, iterations, final RMSE, the raw normals it
// estimated — and the fine index counts the same queries and fewer
// visits.
func TestAlignTrackedMatchesWalked(t *testing.T) {
	const name = "test-registration-untracked"
	if err := search.RegisterBackend(search.NewBackend(name, func(slab *cloud.Slab, opts search.Options) (search.Searcher, error) {
		inner, err := search.NewByNameSlab(search.BackendTwoStage, slab, opts)
		if err != nil {
			return nil, err
		}
		return untrackedSearcher{inner}, nil
	})); err != nil {
		t.Fatal(err)
	}
	seq := fineSequence(94)
	align := func(cfg registration.PipelineConfig) (registration.Result, search.Metrics) {
		src := registration.PrepareFrame(seq.Frames[1].Clone(), cfg)
		dst := registration.PrepareFrame(seq.Frames[0].Clone(), cfg)
		res := registration.Align(src, dst, cfg)
		fine, _ := dst.FineTarget(cfg)
		return res, *fine.Metrics()
	}
	for _, dp := range dse.NamedDesignPoints() {
		for _, workers := range []int{1, 2} {
			tracked := dp.Config
			tracked.Searcher.Parallelism = workers
			walked := tracked
			walked.Searcher.Backend = name
			got, gotM := align(tracked)
			want, wantM := align(walked)
			if !sameICP(got.ICP, want.ICP) || got.Transform != want.Transform {
				t.Fatalf("%s at %d workers: tracked RPCE gives\n%+v\nevery query walked\n%+v", dp.Name, workers, got.ICP, want.ICP)
			}
			if got.FineNormals != want.FineNormals || got.FineTargetPoints != want.FineTargetPoints {
				t.Fatalf("%s at %d workers: %d of %d raw normals estimated, walked %d of %d", dp.Name, workers, got.FineNormals, got.FineTargetPoints, want.FineNormals, want.FineTargetPoints)
			}
			if gotM.Queries != wantM.Queries || gotM.NodesVisited >= wantM.NodesVisited {
				t.Errorf("%s at %d workers: fine index counted %d queries / %d visits, walked %d / %d", dp.Name, workers, gotM.Queries, gotM.NodesVisited, wantM.Queries, wantM.NodesVisited)
			}
		}
	}
}
