package sim

import (
	"math/rand"
	"testing"

	"tigris/internal/search"
	"tigris/internal/twostage"
)

// goldenCase is one of the four searches the model serves, on one seeded
// tree and query set: NN and radius, exact and approximate (the paper's
// thresholds), default accelerator configuration.
type goldenCase struct {
	name string
	w    Workload
	cfg  Config
}

func goldenCases() (*twostage.Tree, []goldenCase) {
	r := rand.New(rand.NewSource(17))
	tree := twostage.BuildWithLeafSize(surfacePoints(r, 12000), 128)
	pts := tree.Points()
	nn := Workload{Kind: NNSearch, Queries: clusteredQueries(r, pts, 3000)}
	rad := Workload{Kind: RadiusSearch, Queries: pts[:3000], Radius: 1.0}
	approxNN := DefaultConfig()
	approxNN.Approx = twostage.DefaultNNThreshold
	approxRad := DefaultConfig()
	approxRad.Approx = twostage.DefaultNNThreshold
	approxRad.ApproxRadiusFrac = twostage.DefaultRadiusThresholdFrac
	return tree, []goldenCase{
		{name: "nn/exact", w: nn, cfg: DefaultConfig()},
		{name: "nn/approx", w: nn, cfg: approxNN},
		{name: "radius/exact", w: rad, cfg: DefaultConfig()},
		{name: "radius/approx", w: rad, cfg: approxRad},
	}
}

// TestGoldenFingerprint pins the model's output to constants recorded at
// commit 63db9b9, where the simulator still walked the tree itself on an
// explicit stack over a float64 copy of the cloud: the walk it shares with
// the software search since then visits in the same order, so every cycle,
// buffer access, operation and joule is the same. A search refactor that
// changes any of them changed the walk.
func TestGoldenFingerprint(t *testing.T) {
	want := map[string]Report{
		"nn/exact": {
			Cycles:  1474,
			Traffic: Traffic{FEQueryQueue: 13956, QueryBuf: 10956, QueryStacks: 89190, ResultBuf: 36249, BEQueryQueue: 7956, NodeCache: 31074, PointsBuf: 51204},
			Counts:  OpCounts{PEDistanceOps: 391533, SRAMReads: 108678, SRAMWrites: 113973, DRAMAccesses: 188},
			Energy:  Energy{PE: 4.306863e-05, SRAMRead: 7.60746e-06, SRAMWrite: 1.937541e-06, Leakage: 1.0318e-06, DRAM: 1.88e-07},
		},
		"nn/approx": {
			Cycles:  1488,
			Traffic: Traffic{FEQueryQueue: 17272, QueryBuf: 14272, QueryStacks: 96848, ResultBuf: 24386, BEQueryQueue: 11272, NodeCache: 29495, PointsBuf: 51676},
			Counts:  OpCounts{PEDistanceOps: 151900, SRAMReads: 149404, SRAMWrites: 101904, DRAMAccesses: 188},
			Energy:  Energy{PE: 1.6709e-05, SRAMRead: 1.045828e-05, SRAMWrite: 1.7323679999999999e-06, Leakage: 1.0416e-06, DRAM: 1.88e-07},
		},
		"radius/exact": {
			Cycles:  2224,
			Traffic: Traffic{FEQueryQueue: 23546, QueryBuf: 20546, QueryStacks: 112795, ResultBuf: 123801, BEQueryQueue: 17546, NodeCache: 50552, PointsBuf: 76295},
			Counts:  OpCounts{PEDistanceOps: 843424, SRAMReads: 154251, SRAMWrites: 238511, DRAMAccesses: 188},
			Energy:  Energy{PE: 9.277664e-05, SRAMRead: 1.079757e-05, SRAMWrite: 4.054687e-06, Leakage: 1.5567999999999999e-06, DRAM: 1.88e-07},
		},
		"radius/approx": {
			Cycles:  2500,
			Traffic: Traffic{FEQueryQueue: 23546, QueryBuf: 20546, QueryStacks: 112795, ResultBuf: 155488, BEQueryQueue: 17546, NodeCache: 46659, PointsBuf: 72864},
			Counts:  OpCounts{PEDistanceOps: 770041, SRAMReads: 225277, SRAMWrites: 229578, DRAMAccesses: 188},
			Energy:  Energy{PE: 8.470451e-05, SRAMRead: 1.576939e-05, SRAMWrite: 3.902826e-06, Leakage: 1.75e-06, DRAM: 1.88e-07},
		},
	}
	tree, cases := goldenCases()
	for _, c := range cases {
		got, err := Run(tree, c.w, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		w := want[c.name]
		if got.Cycles != w.Cycles {
			t.Errorf("%s: %d cycles, recorded %d", c.name, got.Cycles, w.Cycles)
		}
		if got.Traffic != w.Traffic {
			t.Errorf("%s: traffic %+v, recorded %+v", c.name, got.Traffic, w.Traffic)
		}
		if got.Counts != w.Counts {
			t.Errorf("%s: counts %+v, recorded %+v", c.name, got.Counts, w.Counts)
		}
		if got.Energy != w.Energy {
			t.Errorf("%s: energy %+v, recorded %+v", c.name, got.Energy, w.Energy)
		}
	}
}

// TestVisitsMatchSoftwareSession: what the engine times is what the
// software search did. Summed over the batch, the visits Prepare logged
// equal the Stats of a software session answering the same queries,
// counter for counter, and every answer is that session's: an NN answer
// itself, a radius answer (which the model does not keep) by the result
// writes its walk logged, one per neighbor found.
func TestVisitsMatchSoftwareSession(t *testing.T) {
	tree, cases := goldenCases()
	for _, c := range cases {
		p, err := Prepare(tree, c.w, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var logged twostage.Stats
		for i := range c.w.Queries {
			walk := p.visits.Query(i)
			for j, v := range walk {
				if last := j == len(walk)-1; (v.Leaf < 0) != last {
					t.Fatalf("%s: query %d visit %d of %d has leaf %d", c.name, i, j, len(walk), v.Leaf)
				}
				logged.TopNodesVisited += int64(v.TopNodes)
				logged.TopNodesPruned += int64(v.Pruned)
				logged.LeafPointsViewed += int64(v.Scanned)
				logged.LeaderChecks += int64(v.LeaderChecks)
				if v.Follower {
					logged.FollowerHits++
				}
			}
		}

		var want twostage.Stats
		sess := tree.NewApproxSession(c.cfg.approxOptions())
		for i, q := range c.w.Queries {
			if c.w.Kind == RadiusSearch {
				if res := sess.RadiusUnsorted(q, c.w.Radius, nil, &want); resultWrites(p, i) != len(res) {
					t.Fatalf("%s: query %d: model writes %d results, session finds %d", c.name, i, resultWrites(p, i), len(res))
				}
			} else if res, _ := sess.Nearest(q, &want); p.nnResults[i] != res {
				t.Fatalf("%s: query %d: model %v, session %v", c.name, i, p.nnResults[i], res)
			}
		}
		// The log has no counterpart for the two counters that are not
		// visits: queries asked and leaders promoted.
		logged.Queries, logged.LeaderInserts = want.Queries, want.LeaderInserts
		if logged != want {
			t.Errorf("%s: logged visits sum to %+v, session stats %+v", c.name, logged, want)
		}
		if approx := c.cfg.Approx > 0; (want.FollowerHits > 0) != approx {
			t.Errorf("%s: %d follower visits with approximation %v", c.name, want.FollowerHits, approx)
		}
		if want.TopNodesPruned == 0 {
			t.Errorf("%s: no pruned node; the workload does not exercise the bound test", c.name)
		}
	}
}

// TestBackendRestartsLeadersModelDoesNot states the one difference left
// between the software's approximate search and the model's. The
// twostage-approx backend restarts leader state every
// search.ApproxBatchChunk queries, which is what makes its answers
// independent of the worker count; the model keeps one Leader Buffer state
// for the whole stage batch. A 600-query batch is therefore three fresh
// sessions to the backend and one to the model: equal over the first chunk,
// different after it.
func TestBackendRestartsLeadersModelDoesNot(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	pts := surfacePoints(r, 6000)
	queries := clusteredQueries(r, pts, 600)
	opts := twostage.ApproxOptions{Threshold: twostage.DefaultNNThreshold}
	backend := search.NewTwoStageSearcher(pts, search.TwoStageConfig{TopHeight: -1, Approx: &opts})
	tree := backend.Tree()

	cfg := DefaultConfig()
	cfg.Approx = opts.Threshold
	rep, err := Run(tree, Workload{Kind: NNSearch, Queries: queries}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := backend.NearestBatch(queries)

	var chunked *twostage.ApproxSession
	whole := tree.NewApproxSession(opts)
	afterFirstChunk := 0
	for i, q := range queries {
		if i%search.ApproxBatchChunk == 0 {
			chunked = tree.NewApproxSession(opts)
		}
		if want, _ := chunked.Nearest(q, nil); got[i] != want {
			t.Fatalf("query %d: backend %v, fresh session per chunk %v", i, got[i], want)
		}
		if want, _ := whole.Nearest(q, nil); rep.NNResults[i] != want {
			t.Fatalf("query %d: model %v, one session %v", i, rep.NNResults[i], want)
		}
		if got[i] != rep.NNResults[i] {
			if i < search.ApproxBatchChunk {
				t.Fatalf("query %d: backend and model differ inside the first chunk", i)
			}
			afterFirstChunk++
		}
	}
	if afterFirstChunk == 0 {
		t.Error("backend and model agree on all 600 queries: the workload does not show the session scope")
	}
}
