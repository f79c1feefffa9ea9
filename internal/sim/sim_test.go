package sim

import (
	"math"
	"math/rand"
	"testing"

	"tigris/internal/geom"
	"tigris/internal/twostage"
)

func randPoints(r *rand.Rand, n int) []geom.Vec3 {
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.Vec3{
			X: r.Float64()*80 - 40,
			Y: r.Float64()*80 - 40,
			Z: r.Float64()*8 - 4,
		}
	}
	return pts
}

// clusteredQueries samples queries near tree points so approximate search
// gets realistic follower rates.
func clusteredQueries(r *rand.Rand, pts []geom.Vec3, n int) []geom.Vec3 {
	qs := make([]geom.Vec3, n)
	for i := range qs {
		base := pts[r.Intn(len(pts))]
		qs[i] = base.Add(geom.Vec3{
			X: r.Float64()*0.6 - 0.3,
			Y: r.Float64()*0.6 - 0.3,
			Z: r.Float64()*0.6 - 0.3,
		})
	}
	return qs
}

func testTree(r *rand.Rand, n, height int) *twostage.Tree {
	return twostage.Build(randPoints(r, n), height)
}

func TestSimNNMatchesSoftware(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	tree := testTree(r, 3000, 5)
	queries := clusteredQueries(r, tree.Points(), 300)
	rep, err := Run(tree, Workload{Kind: NNSearch, Queries: queries}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want, _ := tree.Nearest(q, nil)
		if math.Abs(rep.NNResults[i].Dist2-want.Dist2) > 1e-12 {
			t.Fatalf("query %d: sim %v, software %v", i, rep.NNResults[i], want)
		}
	}
	if rep.Cycles == 0 || rep.Time <= 0 {
		t.Error("no cycles accounted")
	}
}

// resultWrites is the number of result updates the walk of query i logged:
// what the engine times in place of the answer itself.
func resultWrites(p *Prepared, i int) int {
	n := 0
	for _, v := range p.visits.Query(i) {
		n += int(v.ResultWrites)
	}
	return n
}

func TestSimRadiusMatchesSoftware(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	tree := testTree(r, 3000, 6)
	queries := clusteredQueries(r, tree.Points(), 200)
	const radius = 3.0
	p, err := Prepare(tree, Workload{Kind: RadiusSearch, Queries: queries, Radius: radius}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if got, want := resultWrites(p, i), len(tree.Radius(q, radius, nil)); got != want {
			t.Fatalf("query %d: sim writes %d results, software finds %d", i, got, want)
		}
	}
}

func TestSimApproxMatchesApproxSession(t *testing.T) {
	// With approximation enabled, the simulator must produce exactly the
	// results of the software ApproxSession processing queries in order.
	r := rand.New(rand.NewSource(3))
	tree := testTree(r, 4000, 5)
	queries := clusteredQueries(r, tree.Points(), 500)

	cfg := DefaultConfig()
	cfg.Approx = 1.2
	rep, err := Run(tree, Workload{Kind: NNSearch, Queries: queries}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := tree.NewApproxSession(twostage.ApproxOptions{Threshold: 1.2, MaxLeaders: 16})
	for i, q := range queries {
		if want, _ := sess.Nearest(q, nil); rep.NNResults[i] != want {
			t.Fatalf("query %d: sim %v, session %v", i, rep.NNResults[i], want)
		}
	}
}

func TestSimApproxRadiusMatchesSession(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	tree := testTree(r, 3000, 5)
	queries := clusteredQueries(r, tree.Points(), 300)
	const radius = 2.5

	cfg := DefaultConfig()
	cfg.Approx = 1 // overridden by ApproxRadiusFrac below
	cfg.ApproxRadiusFrac = 0.4
	p, err := Prepare(tree, Workload{Kind: RadiusSearch, Queries: queries, Radius: radius}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := tree.NewApproxSession(twostage.ApproxOptions{Threshold: 1, RadiusThresholdFrac: 0.4, MaxLeaders: 16})
	followers := 0
	for i, q := range queries {
		if got, want := resultWrites(p, i), len(sess.Radius(q, radius, nil)); got != want {
			t.Fatalf("query %d: sim writes %d results, session finds %d", i, got, want)
		}
		for _, v := range p.visits.Query(i) {
			if v.Follower {
				followers++
			}
		}
	}
	if followers == 0 {
		t.Fatal("no follower visit: the workload does not exercise the approximate path")
	}
}

func TestSimDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	tree := testTree(r, 2000, 5)
	queries := clusteredQueries(r, tree.Points(), 200)
	w := Workload{Kind: NNSearch, Queries: queries}
	a, err := Run(tree, w, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tree, w, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Traffic != b.Traffic || a.Counts != b.Counts {
		t.Error("simulation is not deterministic")
	}
}

func TestForwardingAndBypassingReduceCycles(t *testing.T) {
	// Fig. 12: No-Opt < Bypass < +Forward in performance.
	r := rand.New(rand.NewSource(6))
	tree := testTree(r, 4000, 8)
	queries := clusteredQueries(r, tree.Points(), 400)
	w := Workload{Kind: NNSearch, Queries: queries}

	run := func(fwd, byp bool) uint64 {
		cfg := DefaultConfig()
		cfg.Forwarding = fwd
		cfg.Bypassing = byp
		rep, err := Run(tree, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Cycles
	}
	noOpt := run(false, false)
	bypass := run(false, true)
	forward := run(true, true)
	if !(forward <= bypass && bypass <= noOpt) {
		t.Errorf("cycles not monotone: noOpt=%d bypass=%d forward=%d", noOpt, bypass, forward)
	}
	if forward == noOpt {
		t.Error("optimizations had no effect")
	}
}

func TestMQMNFasterButMoreTraffic(t *testing.T) {
	// Fig. 12: MQMN roughly doubles performance but multiplies node-set
	// traffic (→ power).
	r := rand.New(rand.NewSource(7))
	tree := twostage.BuildWithLeafSize(randPoints(r, 8000), 128)
	queries := clusteredQueries(r, tree.Points(), 600)
	w := Workload{Kind: RadiusSearch, Queries: queries, Radius: 2.0}

	mqsnCfg := DefaultConfig()
	mqsn, err := Run(tree, w, mqsnCfg)
	if err != nil {
		t.Fatal(err)
	}
	mqmnCfg := DefaultConfig()
	mqmnCfg.Issue = MQMN
	mqmn, err := Run(tree, w, mqmnCfg)
	if err != nil {
		t.Fatal(err)
	}
	if mqmn.Cycles >= mqsn.Cycles {
		t.Errorf("MQMN (%d cycles) not faster than MQSN (%d)", mqmn.Cycles, mqsn.Cycles)
	}
	mqsnStream := mqsn.Traffic.PointsBuf + mqsn.Traffic.NodeCache
	mqmnStream := mqmn.Traffic.PointsBuf + mqmn.Traffic.NodeCache
	if mqmnStream <= mqsnStream {
		t.Errorf("MQMN stream traffic %d not above MQSN %d", mqmnStream, mqsnStream)
	}
}

func TestNodeCacheReducesPointsBufTraffic(t *testing.T) {
	// Fig. 13: the node cache absorbs a large share of Points Buffer
	// reads.
	r := rand.New(rand.NewSource(8))
	tree := twostage.BuildWithLeafSize(randPoints(r, 8000), 128)
	queries := clusteredQueries(r, tree.Points(), 600)
	w := Workload{Kind: RadiusSearch, Queries: queries, Radius: 2.0}

	withCache := DefaultConfig()
	a, err := Run(tree, w, withCache)
	if err != nil {
		t.Fatal(err)
	}
	noCache := DefaultConfig()
	noCache.NodeCacheSets = 0
	b, err := Run(tree, w, noCache)
	if err != nil {
		t.Fatal(err)
	}
	if a.Traffic.PointsBuf >= b.Traffic.PointsBuf {
		t.Errorf("cache did not reduce PointsBuf traffic: %d vs %d", a.Traffic.PointsBuf, b.Traffic.PointsBuf)
	}
	if a.Traffic.NodeCache == 0 {
		t.Error("node cache saw no traffic")
	}
}

// surfacePoints samples a jittered plane patch: LiDAR clouds are 2D
// manifolds embedded in 3D, which is the density regime where the
// leader/follower trade (scan a leader's result list instead of the whole
// leaf set) actually wins — with volumetric density the result list grows
// as fast as the leaf does.
func surfacePoints(r *rand.Rand, n int) []geom.Vec3 {
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.Vec3{
			X: r.Float64()*30 - 15,
			Y: r.Float64()*30 - 15,
			Z: r.NormFloat64() * 0.05,
		}
	}
	return pts
}

func TestApproxReducesCyclesAndOps(t *testing.T) {
	// §6.3: approximate search cuts node visits substantially (the paper
	// reports 72.8%), and on the BE-heavy radius workloads (Fig. 6b) that
	// translates into real cycle savings. Queries are the cloud points
	// themselves, as in the Normal Estimation stage.
	r := rand.New(rand.NewSource(9))
	tree := twostage.BuildWithLeafSize(surfacePoints(r, 12000), 128)
	queries := tree.Points()
	w := Workload{Kind: RadiusSearch, Queries: queries, Radius: 1.0}

	exact, err := Run(tree, w, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	approxCfg := DefaultConfig()
	approxCfg.Approx = 1 // superseded by the radius fraction
	approxCfg.ApproxRadiusFrac = 0.4
	approx, err := Run(tree, w, approxCfg)
	if err != nil {
		t.Fatal(err)
	}
	if approx.Counts.PEDistanceOps >= exact.Counts.PEDistanceOps {
		t.Errorf("approx ops %d not below exact %d", approx.Counts.PEDistanceOps, exact.Counts.PEDistanceOps)
	}
	if approx.Cycles >= exact.Cycles {
		t.Errorf("approx cycles %d not below exact %d", approx.Cycles, exact.Cycles)
	}
}

func TestUtilizationBounds(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	tree := twostage.BuildWithLeafSize(randPoints(r, 5000), 128)
	queries := clusteredQueries(r, tree.Points(), 500)
	rep, err := Run(tree, Workload{Kind: NNSearch, Queries: queries}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.RUUtilization < 0 || rep.RUUtilization > 1 {
		t.Errorf("RU utilization %v out of bounds", rep.RUUtilization)
	}
	if rep.SUUtilization < 0 || rep.SUUtilization > 1 {
		t.Errorf("SU utilization %v out of bounds", rep.SUUtilization)
	}
}

func TestEnergyPositiveAndPowerSane(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	tree := twostage.BuildWithLeafSize(randPoints(r, 5000), 128)
	queries := clusteredQueries(r, tree.Points(), 500)
	rep, err := Run(tree, Workload{Kind: RadiusSearch, Queries: queries, Radius: 2}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := rep.Energy
	if e.PE <= 0 || e.SRAMRead <= 0 || e.SRAMWrite <= 0 || e.Leakage <= 0 || e.DRAM <= 0 {
		t.Errorf("energy components must be positive: %+v", e)
	}
	if rep.PowerWatts <= 0 || rep.PowerWatts > 500 {
		t.Errorf("power %v W implausible", rep.PowerWatts)
	}
}

func TestMoreRUsHelpTallTrees(t *testing.T) {
	// Fig. 14: with few RUs the FE bottlenecks tall top-trees.
	r := rand.New(rand.NewSource(12))
	tree := testTree(r, 8000, 12)
	queries := clusteredQueries(r, tree.Points(), 2000)
	w := Workload{Kind: NNSearch, Queries: queries}

	small := DefaultConfig()
	small.NumRU = 4
	a, err := Run(tree, w, small)
	if err != nil {
		t.Fatal(err)
	}
	big := DefaultConfig()
	big.NumRU = 64
	b, err := Run(tree, w, big)
	if err != nil {
		t.Fatal(err)
	}
	if b.Cycles >= a.Cycles {
		t.Errorf("64 RUs (%d cycles) not faster than 4 RUs (%d)", b.Cycles, a.Cycles)
	}
}

func TestTopTreeHeightTradeoff(t *testing.T) {
	// Fig. 15: very short top-trees are slow (huge redundant leaf scans);
	// performance improves with height before flattening out.
	r := rand.New(rand.NewSource(13))
	pts := randPoints(r, 16000)
	queries := clusteredQueries(r, pts, 800)
	w := Workload{Kind: NNSearch, Queries: queries}

	cycles := func(h int) uint64 {
		tree := twostage.Build(pts, h)
		rep, err := Run(tree, w, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return rep.Cycles
	}
	short := cycles(2)
	mid := cycles(7)
	if mid >= short {
		t.Errorf("height 7 (%d cycles) not faster than height 2 (%d)", mid, short)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := Config{}
	if _, err := Run(nil, Workload{Kind: NNSearch, Queries: []geom.Vec3{{}}}, bad); err == nil {
		t.Error("invalid config accepted")
	}
	cfg := DefaultConfig()
	r := rand.New(rand.NewSource(14))
	tree := testTree(r, 100, 3)
	if _, err := Run(tree, Workload{Kind: RadiusSearch, Queries: []geom.Vec3{{}}}, cfg); err == nil {
		t.Error("radius workload without radius accepted")
	}
	rep, err := Run(tree, Workload{Kind: NNSearch}, cfg)
	if err != nil || rep.Cycles != 0 {
		t.Error("empty workload should be a no-op")
	}
}

func TestAreaModelMatchesPaper(t *testing.T) {
	// §6.2: SRAM ≈ 8.38 mm², logic ≈ 7.19 mm², 53.8%/46.2% split.
	cfg0 := DefaultConfig()
	area := cfg0.EstimateArea()
	if math.Abs(area.SRAMmm2-8.38) > 0.6 {
		t.Errorf("SRAM area %.2f mm², paper 8.38", area.SRAMmm2)
	}
	if math.Abs(area.LogicMm2-7.19) > 0.6 {
		t.Errorf("logic area %.2f mm², paper 7.19", area.LogicMm2)
	}
	frac := area.SRAMmm2 / area.Total()
	if math.Abs(frac-0.538) > 0.05 {
		t.Errorf("SRAM fraction %.3f, paper 0.538", frac)
	}
	// Area grows with more PEs.
	big := DefaultConfig()
	big.PEsPerSU = 128
	if big.EstimateArea().LogicMm2 <= area.LogicMm2 {
		t.Error("logic area did not grow with PE count")
	}
}

func TestFifoCache(t *testing.T) {
	c := fifoCache{cap: 2}
	if c.lookup(1) {
		t.Error("empty cache hit")
	}
	c.insert(1)
	c.insert(2)
	if !c.lookup(1) || !c.lookup(2) {
		t.Error("cache should hold both entries")
	}
	c.insert(3) // evicts 1
	if c.lookup(1) {
		t.Error("FIFO eviction failed")
	}
	if !c.lookup(2) || !c.lookup(3) {
		t.Error("wrong entry evicted")
	}
}

func TestRuBurstCycles(t *testing.T) {
	cfg := &Config{Forwarding: false, Bypassing: false}
	if got := ruBurstCycles(10, 5, cfg); got != 10*4+5*4+2 {
		t.Errorf("no-opt burst = %d", got)
	}
	cfg = &Config{Bypassing: true}
	if got := ruBurstCycles(10, 5, cfg); got != 10*4+5*2+2 {
		t.Errorf("bypass burst = %d", got)
	}
	cfg = &Config{Forwarding: true, Bypassing: true}
	if got := ruBurstCycles(10, 5, cfg); got != 10+5+2 {
		t.Errorf("forward burst = %d", got)
	}
}

func BenchmarkSimNN(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	tree := twostage.BuildWithLeafSize(randPoints(r, 20000), 128)
	queries := clusteredQueries(r, tree.Points(), 5000)
	w := Workload{Kind: NNSearch, Queries: queries}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(tree, w, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimPreparedSweep(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	tree := twostage.BuildWithLeafSize(randPoints(r, 20000), 128)
	queries := clusteredQueries(r, tree.Points(), 5000)
	p, err := Prepare(tree, Workload{Kind: NNSearch, Queries: queries}, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.NumRU = 16 << (i % 3)
		if _, err := p.Simulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAllQueriesComplete(t *testing.T) {
	// Scheduling must never drop a query: every walk's final visit has to
	// execute, across tree shapes and issue policies.
	r := rand.New(rand.NewSource(30))
	for _, leaf := range []int{1, 16, 128} {
		tree := twostage.BuildWithLeafSize(randPoints(r, 5000), leaf)
		queries := clusteredQueries(r, tree.Points(), 1200)
		for _, issue := range []IssuePolicy{MQSN, MQMN} {
			cfg := DefaultConfig()
			cfg.Issue = issue
			p, err := Prepare(tree, Workload{Kind: RadiusSearch, Queries: queries, Radius: 1.5}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			eng := newEngine(&cfg, &p.visits, max(tree.NumLeaves(), 1))
			eng.run()
			if eng.completed != len(queries) {
				t.Fatalf("leaf=%d issue=%v: %d of %d queries completed", leaf, issue, eng.completed, len(queries))
			}
		}
	}
}
