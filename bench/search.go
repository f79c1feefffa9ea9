package main

import (
	"fmt"
	"time"

	"tigris/internal/baseline"
	"tigris/internal/cloud"
	"tigris/internal/geom"
	"tigris/internal/kdtree"
	"tigris/internal/registration"
	"tigris/internal/search"
	"tigris/internal/sim"
	"tigris/internal/twostage"
)

// streamBatch is one captured stage batch and the point set it queried.
type streamBatch struct {
	search.TraceBatch
	slab int
}

// queryStream is every 3D search batch one registered pair issues,
// captured from the live pipeline with the "trace" backend, each batch
// kept with the point set it was answered over — so a replay builds the
// same indexes and asks them the same questions, in the same order.
type queryStream struct {
	slabs   []*cloud.Slab
	batches []streamBatch
	queries int64
	// frameBatches / frameSlabs are the part of the pair a streamed
	// frame pays for: the source's front-end and the alignment's
	// fine-tuning queries, over the source's front-end index and (when
	// the front-end is downsampled) the target's raw-cloud index. The
	// target's own front-end belongs to the frame before.
	frameBatches []int
	frameSlabs   []int
}

// stageRuns groups the stream into runs of consecutive batches that one
// pipeline stage issued over one point set — the stage batch, which is
// what the accelerator is invoked on and what search_accel counts as one
// operation. (Key-point detection alone issues a couple of hundred
// single-query calls; timing those one by one would measure the clock.)
func (st *queryStream) stageRuns() [][]int {
	var runs [][]int
	for i, b := range st.batches {
		if i > 0 && b.Stage == st.batches[i-1].Stage && b.slab == st.batches[i-1].slab {
			runs[len(runs)-1] = append(runs[len(runs)-1], i)
		} else {
			runs = append(runs, []int{i})
		}
	}
	return runs
}

// captureStream registers frame 1 onto frame 0 stage by stage with the
// trace backend wrapped around the canonical tree (exact backends issue
// identical queries, so the capture is backend-independent).
func captureStream(e *env) *queryStream {
	sink := &search.TraceLog{}
	cfg := e.cfg
	cfg.Searcher = registration.SearcherConfig{
		Backend:     search.BackendTrace,
		Parallelism: e.par,
		Options: search.Options{
			search.OptTraceInner: search.BackendCanonical,
			search.OptTraceSink:  sink,
		},
	}
	st := &queryStream{}
	slabIndex := func(s *cloud.Slab) int {
		for i, have := range st.slabs {
			if have == s {
				return i
			}
		}
		st.slabs = append(st.slabs, s)
		return len(st.slabs) - 1
	}
	take := func(slab int, perFrame bool) {
		for _, b := range sink.Batches() {
			if perFrame {
				st.frameBatches = append(st.frameBatches, len(st.batches))
			}
			st.batches = append(st.batches, streamBatch{TraceBatch: b, slab: slab})
			st.queries += int64(len(b.Queries))
		}
		sink.Reset()
	}
	dst := registration.PrepareFrame(e.seq.Frames[0].Clone(), cfg)
	take(slabIndex(dst.FE), false)
	src := registration.PrepareFrame(e.seq.Frames[1].Clone(), cfg)
	srcSlab := slabIndex(src.FE)
	take(srcSlab, true)
	registration.Align(src, dst, cfg)
	fineSlab := slabIndex(dst.Raw)
	take(fineSlab, true)
	st.frameSlabs = []int{srcSlab}
	if dst.Raw != dst.FE {
		st.frameSlabs = append(st.frameSlabs, fineSlab)
	}
	return st
}

// newSearcher builds a registry backend over a slab; two-stage leaf sets
// are sized to ~128 points, as the service does for full frames.
func newSearcher(backend string, slab *cloud.Slab, par int) (search.Searcher, error) {
	opts := search.Options{search.OptParallelism: par}
	if backend != search.BackendCanonical && backend != search.BackendBruteForce {
		opts[search.OptTopHeight] = -1
	}
	return search.NewByNameSlab(backend, slab, opts)
}

// kindCost is the wall time and query count of one query kind.
type kindCost struct {
	wall    time.Duration
	queries int64
}

func (k kindCost) nsPerQuery() float64 {
	if k.queries == 0 {
		return 0
	}
	return float64(k.wall.Nanoseconds()) / float64(k.queries)
}

// replayOut is one build-and-replay of a stream on one backend.
type replayOut struct {
	buildWall, queryWall time.Duration
	batchWalls           []time.Duration
	builds               int
	byKind               map[search.TraceKind]kindCost
	metrics              search.Metrics
	follower             twostage.Stats
	// nn holds the nearest-neighbor answers in stream order when asked
	// for (to compare the approximate backend against the exact one).
	nn []kdtree.Neighbor
}

// replay builds the backend over the selected point sets (nil: all of
// them), on the clock, and answers the selected batches (nil: all of
// them) through the batch API, recycling result slabs as the pipeline
// does.
func replay(st *queryStream, backend string, par int, batches, slabs []int, keepNN bool, tr *tracer, parent uint64) (replayOut, error) {
	out := replayOut{byKind: make(map[search.TraceKind]kindCost)}
	if batches == nil {
		batches = make([]int, len(st.batches))
		for i := range batches {
			batches[i] = i
		}
	}
	if slabs == nil {
		slabs = make([]int, len(st.slabs))
		for i := range slabs {
			slabs[i] = i
		}
	}
	searchers := make(map[int]search.Searcher, len(st.slabs))
	for _, si := range slabs {
		var err error
		_, d := tr.span("search.build:"+backend, si, parent, func(uint64) {
			searchers[si], err = newSearcher(backend, st.slabs[si], par)
		})
		if err != nil {
			return out, err
		}
		out.buildWall += d
		out.builds++
	}
	// An index the selected batches query but the selection does not pay
	// for (a streamed frame aligns against an index the frame before it
	// built) is built off the clock.
	for _, bi := range batches {
		if si := st.batches[bi].slab; searchers[si] == nil {
			var err error
			if searchers[si], err = newSearcher(backend, st.slabs[si], par); err != nil {
				return out, err
			}
		}
	}
	var nnBuf []kdtree.Neighbor
	for _, bi := range batches {
		b := st.batches[bi]
		s := searchers[b.slab]
		_, d := tr.span("search.batch:"+backend, bi, parent, func(uint64) {
			switch b.Kind {
			case search.TraceNearest:
				nnBuf = search.BatchNearestInto(s, b.Queries, nnBuf)
				if keepNN {
					out.nn = append(out.nn, nnBuf...)
				}
			case search.TraceKNearest:
				search.RecycleBatch(s.KNearestBatch(b.Queries, b.K))
			case search.TraceRadius:
				search.RecycleBatch(s.RadiusBatch(b.Queries, b.Radius))
			}
		})
		out.queryWall += d
		out.batchWalls = append(out.batchWalls, d)
		k := out.byKind[b.Kind]
		k.wall += d
		k.queries += int64(len(b.Queries))
		out.byKind[b.Kind] = k
	}
	for _, s := range searchers {
		out.metrics.Merge(*s.Metrics())
		if ts, ok := s.(*search.TwoStageSearcher); ok {
			out.follower.Merge(*ts.Stats())
		}
	}
	return out, nil
}

// searchPass is search_accel: one round builds the canonical index over
// every point set of the captured pair and replays the whole stream on
// it at the harness's parallelism — the search work of one registered
// pair, with nothing else in the way. The operation is one stage batch
// (stageRuns): seven a round, so a timed region yields a couple of
// hundred latency samples.
func searchPass(e *env, tr *tracer) (passResult, error) {
	var out replayOut
	var err error
	_, wall := tr.span("search.round", 0, 0, func(id uint64) {
		out, err = replay(e.stream, search.BackendCanonical, e.par, nil, nil, false, tr, id)
	})
	if err != nil {
		return passResult{}, err
	}
	var latency []time.Duration
	for _, run := range e.stream.stageRuns() {
		var d time.Duration
		for _, bi := range run {
			d += out.batchWalls[bi]
		}
		latency = append(latency, d)
	}
	return passResult{
		ops:     len(latency),
		wall:    wall,
		latency: latency,
		digest:  fmt.Sprintf("%d/%d", out.metrics.Queries, out.metrics.NodesVisited),
		search:  search.Metrics{Queries: out.metrics.Queries, NodesVisited: out.metrics.NodesVisited, SearchTime: out.queryWall, BuildTime: out.buildWall},
		builds:  int64(out.builds),
	}, nil
}

// simWorkloads maps the stream onto accelerator workloads (k-NN batches
// have no datapath counterpart and are skipped, as sim.WorkloadsFromTrace
// does), keeping each with its point set.
func simWorkloads(st *queryStream) ([]sim.Workload, []int) {
	var ws []sim.Workload
	var slabs []int
	for _, b := range st.batches {
		if w := sim.WorkloadsFromTrace([]search.TraceBatch{b.TraceBatch}); len(w) == 1 {
			ws = append(ws, w[0])
			slabs = append(slabs, b.slab)
		}
	}
	return ws, slabs
}

// accelRun is one evaluation of the accelerator model (or a baseline
// device model) over the stream: modelled time and energy, plus the
// host time it took to compute them.
type accelRun struct {
	time     time.Duration // modelled
	energy   float64       // modelled, joules
	cycles   uint64
	traffic  int64
	ruBusy   float64 // utilisation × cycles, for a cycle-weighted mean
	suBusy   float64
	prepWall time.Duration // host
	simWall  time.Duration // host
	nnWrong  int
	nnSeen   int
}

func (r accelRun) power() float64 {
	if r.time <= 0 {
		return 0
	}
	return r.energy / r.time.Seconds()
}

// accelModel holds what the model needs per point set, built once.
type accelModel struct {
	st      *queryStream
	ws      []sim.Workload
	wsSlab  []int
	twoTree []*twostage.Tree
	kdTree  []*kdtree.Tree
	queries int64
}

func newAccelModel(st *queryStream) *accelModel {
	m := &accelModel{st: st}
	m.ws, m.wsSlab = simWorkloads(st)
	for _, s := range st.slabs {
		m.twoTree = append(m.twoTree, twostage.BuildWithLeafSizeSlab(s, 128))
		m.kdTree = append(m.kdTree, kdtree.BuildSlab(s))
	}
	for _, w := range m.ws {
		m.queries += int64(len(w.Queries))
	}
	return m
}

// simulate runs the stream through the accelerator model on the given
// trees. With approx set the leader/follower thresholds are the paper's
// (1.2 m for NN, 40 % of the radius). With check set, every 100th NN
// answer is compared with the canonical software search: the model's
// functional output must be the software's.
func (m *accelModel) simulate(trees []*twostage.Tree, approx, check bool, tr *tracer, parent uint64) (accelRun, error) {
	var run accelRun
	for i, w := range m.ws {
		cfg := sim.DefaultConfig()
		if approx {
			cfg.Approx = twostage.DefaultNNThreshold
			if w.Kind == sim.RadiusSearch {
				cfg.ApproxRadiusFrac = twostage.DefaultRadiusThresholdFrac
			}
		}
		var p *sim.Prepared
		var rep *sim.Report
		var err error
		_, d := tr.span("sim.Prepare", i, parent, func(uint64) { p, err = sim.Prepare(trees[m.wsSlab[i]], w, cfg) })
		if err != nil {
			return run, err
		}
		run.prepWall += d
		_, d = tr.span("sim.Simulate", i, parent, func(uint64) { rep, err = p.Simulate(cfg) })
		if err != nil {
			return run, err
		}
		run.simWall += d
		run.time += rep.Time
		run.energy += rep.Energy.Total()
		run.cycles += rep.Cycles
		run.traffic += rep.Traffic.Total()
		run.ruBusy += rep.RUUtilization * float64(rep.Cycles)
		run.suBusy += rep.SUUtilization * float64(rep.Cycles)
		if check && w.Kind == sim.NNSearch {
			kd := m.kdTree[m.wsSlab[i]]
			for q := 0; q < len(w.Queries) && q < len(rep.NNResults); q += 100 {
				want, _ := kd.Nearest(w.Queries[q], nil)
				run.nnSeen++
				if rep.NNResults[q].Dist2 != want.Dist2 {
					run.nnWrong++
				}
			}
		}
	}
	return run, nil
}

// device times the stream on a baseline device model: the canonical
// tree's visit profile (Base-KD) or the two-stage tree's (Base-2SKD).
func (m *accelModel) device(dev baseline.Model, twoStage bool, par int) accelRun {
	var run accelRun
	for i, w := range m.ws {
		var p baseline.Profile
		if twoStage {
			p = baseline.ProfileTwoStageParallel(m.twoTree[m.wsSlab[i]], w, par)
		} else {
			p = baseline.ProfileCanonicalParallel(m.kdTree[m.wsSlab[i]], w, par)
		}
		run.time += dev.Time(p)
		run.energy += dev.Energy(p)
	}
	return run
}

// runAccel is the paper's Fig. 11 headline on the run's query streams,
// one per street: the accelerator model on the two-stage tree (Acc-2SKD)
// against the GPU model on the canonical tree (Base-KD), times and
// energies summed over the streets. These are simulated figures and
// repeat exactly. (The simulator's own host speed is a per-layer metric,
// sim.host_queries_per_s: see accelProbe.)
func runAccel(streams []*queryStream, par int) (acc, gpu accelRun, err error) {
	for _, st := range streams {
		m := newAccelModel(st)
		a, err := m.simulate(m.twoTree, false, true, nil, 0)
		if err != nil {
			return acc, gpu, err
		}
		g := m.device(baseline.RTX2080Ti, false, par)
		acc.time, acc.energy = acc.time+a.time, acc.energy+a.energy
		acc.nnSeen, acc.nnWrong = acc.nnSeen+a.nnSeen, acc.nnWrong+a.nnWrong
		gpu.time, gpu.energy = gpu.time+g.time, gpu.energy+g.energy
	}
	return acc, gpu, nil
}

// oracleCheck answers a fixed 1 % sample of every stage batch on the
// exact backends one query at a time and compares with the brute-force
// scan. It returns how many stage batches were checked and how many had
// a wrong answer.
func oracleCheck(st *queryStream) (checked, wrong int, err error) {
	type trio struct{ brute, canon, two search.Searcher }
	built := make([]trio, len(st.slabs))
	for i, slab := range st.slabs {
		var t trio
		if t.brute, err = newSearcher(search.BackendBruteForce, slab, 1); err != nil {
			return 0, 0, err
		}
		if t.canon, err = newSearcher(search.BackendCanonical, slab, 1); err != nil {
			return 0, 0, err
		}
		if t.two, err = newSearcher(search.BackendTwoStage, slab, 1); err != nil {
			return 0, 0, err
		}
		built[i] = t
	}
	same := func(a, b []kdtree.Neighbor) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Dist2 != b[i].Dist2 {
				return false
			}
		}
		return true
	}
	answer := func(s search.Searcher, b streamBatch, q geom.Vec3) []kdtree.Neighbor {
		switch b.Kind {
		case search.TraceNearest:
			n, _ := s.Nearest(q)
			return []kdtree.Neighbor{n}
		case search.TraceKNearest:
			return s.KNearest(q, b.K)
		default:
			return s.Radius(q, b.Radius)
		}
	}
	for _, run := range st.stageRuns() {
		ok := true
		seen := 0 // queries of this stage batch so far: every 100th is checked
		for _, bi := range run {
			b := st.batches[bi]
			t := built[b.slab]
			for _, q := range b.Queries {
				if seen++; seen%100 != 1 {
					continue
				}
				want := answer(t.brute, b, q)
				if !same(answer(t.canon, b, q), want) || !same(answer(t.two, b, q), want) {
					ok = false
				}
			}
		}
		checked++
		if !ok {
			wrong++
		}
	}
	return checked, wrong, nil
}
