package main

import (
	"fmt"
	"time"

	"tigris/internal/baseline"
	"tigris/internal/dse"
	"tigris/internal/kdtree"
	"tigris/internal/search"
	"tigris/internal/sim"
	"tigris/internal/twostage"
)

// must unwraps a simulator result. The model rejects only invalid
// configurations, and every configuration here is written in this file.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// experiment is one design point's captured query stream with what the
// models need per point set. Prepared traces are cached per tree set and
// approximation because the trace does not depend on the unit counts or
// pipeline options (see sim.Prepare): Fig. 12/14 re-time one trace dozens
// of times.
type experiment struct {
	stream *dse.Stream
	ws     []sim.Workload // the stream's NN and radius batches
	slab   []int          // ws[i]'s point set, an index into stream.Slabs
	kd     []*kdtree.Tree
	two    []*twostage.Tree // ~128-point leaf sets
	tall   []*twostage.Tree // one-point leaf sets: the canonical tree on the accelerator (Acc-KD)
	prep   map[string][]*sim.Prepared
}

// experiment captures (once) the stream the design point issues on the
// first pair, front-end on the raw clouds.
func (e *env) experiment(dp dse.DesignPoint) *experiment {
	if x := e.accel[dp.Name]; x != nil {
		return x
	}
	cfg := e.config(dp)
	cfg.FrontEndOnRaw = true
	x := &experiment{stream: dse.Capture(e.sequence(), cfg), prep: make(map[string][]*sim.Prepared)}
	for _, b := range x.stream.Batches {
		// Exact k-NN batches have no datapath counterpart and are skipped.
		for _, w := range sim.WorkloadsFromTrace([]search.TraceBatch{b.TraceBatch}) {
			x.ws = append(x.ws, w)
			x.slab = append(x.slab, b.Slab)
		}
	}
	for _, s := range x.stream.Slabs {
		x.kd = append(x.kd, kdtree.BuildSlab(s))
		x.two = append(x.two, twostage.BuildWithLeafSizeSlab(s, 128))
		x.tall = append(x.tall, twostage.BuildWithLeafSizeSlab(s, 1))
	}
	if e.accel == nil {
		e.accel = make(map[string]*experiment)
	}
	e.accel[dp.Name] = x
	return x
}

// streamTable reports what was captured, per stage.
func (x *experiment) streamTable(name string) table {
	t := table{title: fmt.Sprintf("%s query stream, captured from the live pipeline over %d point sets", name, len(x.stream.Slabs)),
		cols: []string{"stage", "batches", "queries"}}
	for _, stage := range []string{search.StageNormals, search.StageKeypoints, search.StageDescriptors, search.StageRPCE} {
		var batches, queries float64
		for _, b := range x.stream.Batches {
			if b.Stage == stage {
				batches++
				queries += float64(len(b.Queries))
			}
		}
		t.add(stage, batches, queries)
	}
	return t
}

// modelled is a model's outcome summed over the stream.
type modelled struct {
	time    time.Duration
	joules  float64
	energy  sim.Energy
	traffic sim.Traffic
}

func (m modelled) watts() float64 { return m.joules / m.time.Seconds() }

// variant is one row of an accelerator figure.
type variant struct {
	name string
	m    modelled
}

// withApprox sets the paper's leader/follower thresholds (§6.3: 1.2 m for
// NN search, 40 % of the radius for radius search).
func withApprox(cfg sim.Config, w sim.Workload) sim.Config {
	cfg.Approx = twostage.DefaultNNThreshold
	if w.Kind == sim.RadiusSearch {
		cfg.ApproxRadiusFrac = twostage.DefaultRadiusThresholdFrac
	}
	return cfg
}

// simulate times the stream on the accelerator model under cfg, each
// batch on the tree of its own point set. key names the tree set for the
// trace cache.
func (x *experiment) simulate(key string, trees []*twostage.Tree, cfg sim.Config, approx bool) modelled {
	if approx {
		key += "+apx"
	}
	if x.prep[key] == nil {
		x.prep[key] = make([]*sim.Prepared, len(x.ws))
	}
	var m modelled
	for i, w := range x.ws {
		c := cfg
		if approx {
			c = withApprox(c, w)
		}
		if x.prep[key][i] == nil {
			x.prep[key][i] = must(sim.Prepare(trees[x.slab[i]], w, c))
		}
		rep := must(x.prep[key][i].Simulate(c))
		m.time += rep.Time
		m.joules += rep.Energy.Total()
		m.energy.PE += rep.Energy.PE
		m.energy.SRAMRead += rep.Energy.SRAMRead
		m.energy.SRAMWrite += rep.Energy.SRAMWrite
		m.energy.Leakage += rep.Energy.Leakage
		m.energy.DRAM += rep.Energy.DRAM
		m.traffic.FEQueryQueue += rep.Traffic.FEQueryQueue
		m.traffic.QueryBuf += rep.Traffic.QueryBuf
		m.traffic.QueryStacks += rep.Traffic.QueryStacks
		m.traffic.ResultBuf += rep.Traffic.ResultBuf
		m.traffic.BEQueryQueue += rep.Traffic.BEQueryQueue
		m.traffic.NodeCache += rep.Traffic.NodeCache
		m.traffic.PointsBuf += rep.Traffic.PointsBuf
	}
	return m
}

// device times the stream on a baseline device model: the canonical
// tree's visit profile (Base-KD) or the two-stage tree's (Base-2SKD).
func (x *experiment) device(dev baseline.Model, twoStage bool) modelled {
	var m modelled
	for i, w := range x.ws {
		p := baseline.ProfileCanonical(x.kd[x.slab[i]], w)
		if twoStage {
			p = baseline.ProfileTwoStage(x.two[x.slab[i]], w)
		}
		m.time += dev.Time(p)
		m.joules += dev.Energy(p)
	}
	return m
}

func fig11(e *env) []table {
	var out []table
	var acc modelled // Acc-2SKD on the design point in hand
	for _, dp := range []dse.DesignPoint{dse.DP7(), dse.DP4()} {
		x := e.experiment(dp)
		gpu := x.device(baseline.RTX2080Ti, false)
		acc = x.simulate("two", x.two, sim.DefaultConfig(), false)
		t := table{title: fmt.Sprintf("Fig. 11 (%s): KD-tree search time and power vs GPU Base-KD", dp.Name),
			cols: []string{"system", "time_ms", "speedup_x", "power_W", "power_reduction_x"},
			note: "Acc-2SKD 77.2x over Base-KD (DP7) / 21x over Base-2SKD (DP4); Base-2SKD 1.28x over Base-KD; approx +11.1x on DP7; 392x over CPU"}
		for _, r := range []variant{
			{"CPU Base-KD", x.device(baseline.Xeon4110, false)},
			{"Base-KD", gpu},
			{"Base-2SKD", x.device(baseline.RTX2080Ti, true)},
			{"Acc-KD", x.simulate("tall", x.tall, sim.DefaultConfig(), false)},
			{"Acc-2SKD", acc},
			{"Acc-2SKD+apx", x.simulate("two", x.two, sim.DefaultConfig(), true)},
		} {
			t.add(r.name, ms(r.m.time), gpu.time.Seconds()/r.m.time.Seconds(), r.m.watts(), gpu.watts()/r.m.watts())
		}
		out = append(out, x.streamTable(dp.Name), t)
	}
	t := table{title: "§6.3: Acc-2SKD energy breakdown (DP4)", cols: []string{"component", "share_pct", "paper_pct"}}
	t.add("PE", 100*acc.energy.PE/acc.joules, 53.7)
	t.add("SRAM read", 100*acc.energy.SRAMRead/acc.joules, 34.8)
	t.add("SRAM write", 100*acc.energy.SRAMWrite/acc.joules, 8.0)
	t.add("leakage", 100*acc.energy.Leakage/acc.joules, 3.3)
	t.add("DRAM", 100*acc.energy.DRAM/acc.joules, 0.2)
	return append(out, t)
}

func fig12(e *env) []table {
	x := e.experiment(dse.DP7())
	gpu := x.device(baseline.RTX2080Ti, false)
	t := table{title: "Fig. 12: architectural optimizations (Acc-2SKD on DP7)",
		cols: []string{"variant", "speedup_vs_gpu_x", "speedup_vs_noopt_x", "power_reduction_x"},
		note: "Bypass +13.1%, +Forward +10.5%, MQMN 2x speed at ~4x power"}
	var noOpt modelled
	for i, v := range []struct {
		name     string
		fwd, byp bool
		issue    sim.IssuePolicy
	}{
		{"No-Opt", false, false, sim.MQSN},
		{"Bypass", false, true, sim.MQSN},
		{"+Forward", true, true, sim.MQSN},
		{"MQMN", true, true, sim.MQMN},
	} {
		cfg := sim.DefaultConfig()
		cfg.Forwarding, cfg.Bypassing, cfg.Issue = v.fwd, v.byp, v.issue
		m := x.simulate("two", x.two, cfg, false)
		if i == 0 {
			noOpt = m
		}
		t.add(v.name, gpu.time.Seconds()/m.time.Seconds(), noOpt.time.Seconds()/m.time.Seconds(), gpu.watts()/m.watts())
	}
	return []table{t}
}

func fig13(e *env) []table {
	x := e.experiment(dse.DP7())
	t := table{title: "Fig. 13: memory traffic distribution (%)",
		cols: []string{"variant", "FQQ", "QryBuf", "Stacks", "ResBuf", "BQB", "NodeCache", "PointsBuf"},
		note: "the node cache cuts Acc-2SKD's PointsBuf traffic from 53% to 35%"}
	noCache := sim.DefaultConfig()
	noCache.NodeCacheSets = 0
	for _, v := range []variant{
		{"Acc-2SKD", x.simulate("two", x.two, sim.DefaultConfig(), false)},
		{"Acc-2SKD, no node cache", x.simulate("two", x.two, noCache, false)},
		{"Acc-KD", x.simulate("tall", x.tall, sim.DefaultConfig(), false)},
	} {
		tr, total := v.m.traffic, float64(v.m.traffic.Total())/100
		t.add(v.name, float64(tr.FEQueryQueue)/total, float64(tr.QueryBuf)/total, float64(tr.QueryStacks)/total,
			float64(tr.ResultBuf)/total, float64(tr.BEQueryQueue)/total, float64(tr.NodeCache)/total, float64(tr.PointsBuf)/total)
	}
	return []table{t}
}

func fig14(e *env) []table {
	x := e.experiment(dse.DP7())
	t := table{title: "Fig. 14: sensitivity to RU / SU / PE counts (Acc-2SKD on DP7)",
		cols: []string{"RU,SU,PE", "time_ms", "power_W"},
		note: "64 RU / 32 SU / 32 PE sits at the knee of the curve"}
	counts := []int{16, 32, 64, 128}
	for _, ru := range counts {
		for _, su := range counts {
			for _, pe := range counts {
				cfg := sim.DefaultConfig()
				cfg.NumRU, cfg.NumSU, cfg.PEsPerSU = ru, su, pe
				m := x.simulate("two", x.two, cfg, false)
				t.add(fmt.Sprintf("%d,%d,%d", ru, su, pe), ms(m.time), m.watts())
			}
		}
	}
	return []table{t}
}

func fig15(e *env) []table {
	x := e.experiment(dse.DP7())
	t := table{title: "Fig. 15: search time & energy vs top-tree height (DP7)",
		cols: []string{"height", "time_ms", "energy_mJ"},
		note: "performance peaks around height 10 (on 130k-point frames), then declines"}
	for h := 4; h <= 15; h++ {
		var trees []*twostage.Tree
		for _, s := range x.stream.Slabs {
			trees = append(trees, twostage.BuildSlab(s, h))
		}
		key := fmt.Sprint("height ", h)
		m := x.simulate(key, trees, sim.DefaultConfig(), false)
		delete(x.prep, key) // timed once: do not hold twelve trace sets
		t.add(fmt.Sprint(h), ms(m.time), m.joules*1e3)
	}
	return []table{t}
}

func area(*env) []table {
	cfg := sim.DefaultConfig()
	a := cfg.EstimateArea()
	t := table{title: fmt.Sprintf("§6.2: area at 16 nm (%d RU, %d SU x %d PE, %.1f KB SRAM)", cfg.NumRU, cfg.NumSU, cfg.PEsPerSU, float64(a.SRAMBytes)/1024),
		cols: []string{"part", "mm2", "share_pct", "paper_mm2"}}
	t.add("SRAM", a.SRAMmm2, 100*a.SRAMmm2/a.Total(), 8.38)
	t.add("logic", a.LogicMm2, 100*a.LogicMm2/a.Total(), 7.19)
	t.add("total", a.Total(), 100, 15.57)
	return []table{t}
}
