package sim

import (
	"fmt"
	"time"

	"tigris/internal/kdtree"
	"tigris/internal/twostage"
)

// Report is the outcome of one accelerator run.
type Report struct {
	// Cycles is the makespan in datapath cycles.
	Cycles uint64
	// Time is the makespan at the configured clock.
	Time time.Duration
	// Energy is the per-component energy breakdown.
	Energy Energy
	// PowerWatts is Energy.Total() / Time.
	PowerWatts float64
	// Traffic is the per-buffer access breakdown (Fig. 13).
	Traffic Traffic
	// Counts are the raw compute/memory event tallies.
	Counts OpCounts
	// RUUtilization / SUUtilization are busy-cycle fractions of the
	// respective unit pools.
	RUUtilization, SUUtilization float64

	// NNResults holds per-query nearest neighbors for NN workloads
	// (functional output, bit-identical to the software search). A radius
	// workload's answers are not kept: the engine times the result writes
	// each visit logged, not the lists.
	NNResults []kdtree.Neighbor
	// Queries is the workload size.
	Queries int
}

// Prepared is a walked workload ready for repeated timing runs. The walk
// (which nodes each query visits, which leaves it scans, how many results
// it writes) depends only on the tree, the workload, and the approximation
// settings — not on the unit counts or pipeline options — so parameter
// sweeps like Fig. 14 prepare once and simulate many configurations.
type Prepared struct {
	tree      *twostage.Tree
	w         Workload
	visits    twostage.VisitLog
	nnResults []kdtree.Neighbor
	approx    twostage.ApproxOptions
}

// Prepare answers the workload under cfg's approximation settings with the
// software search — one twostage session for the batch, queries in order —
// and keeps the visits that search made for the engine to time.
func Prepare(tree *twostage.Tree, w Workload, cfg Config) (*Prepared, error) {
	cfg.defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if w.Kind == RadiusSearch && w.Radius <= 0 && len(w.Queries) > 0 {
		return nil, fmt.Errorf("sim: radius workload needs a positive radius, got %v", w.Radius)
	}
	p := &Prepared{tree: tree, w: w, approx: cfg.approxOptions()}
	if len(w.Queries) == 0 {
		return p, nil
	}
	sess := tree.NewApproxSession(p.approx)
	sess.LogVisits(&p.visits)
	switch w.Kind {
	case RadiusSearch:
		var buf []kdtree.Neighbor // a leader copies what it caches out of it
		for _, q := range w.Queries {
			buf = sess.RadiusUnsorted(q, w.Radius, buf, nil)
		}
	default:
		p.nnResults = make([]kdtree.Neighbor, len(w.Queries))
		for i, q := range w.Queries {
			p.nnResults[i], _ = sess.Nearest(q, nil)
		}
	}
	return p, nil
}

// Run executes the workload on the modeled accelerator over the given
// two-stage tree. It returns both performance/energy numbers and the
// functional search results.
func Run(tree *twostage.Tree, w Workload, cfg Config) (*Report, error) {
	p, err := Prepare(tree, w, cfg)
	if err != nil {
		return nil, err
	}
	return p.Simulate(cfg)
}

// Simulate times the prepared workload under cfg. The approximation
// settings and leader cap must match the ones used at Prepare time (they
// shape the walk); mismatches are rejected.
func (p *Prepared) Simulate(cfg Config) (*Report, error) {
	cfg.defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.approxOptions() != p.approx {
		return nil, fmt.Errorf("sim: approximation settings differ from Prepare time")
	}
	if len(p.w.Queries) == 0 {
		return &Report{}, nil
	}
	rep := &Report{Queries: len(p.w.Queries), NNResults: p.nnResults}
	w := p.w
	eng := newEngine(&cfg, &p.visits, max(p.tree.NumLeaves(), 1))

	// DRAM: per-query compressed result summaries stream back to the host
	// (4 bytes each, 64-byte bursts). The cloud, the tree, and the query
	// set are frame-resident in the global buffers and reused across all
	// of a frame's stage invocations and ICP iterations (see energy.go).
	eng.counts.DRAMAccesses += (int64(len(w.Queries))*4 + 63) / 64

	cycles := eng.run()

	rep.Cycles = cycles
	rep.Time = cyclesToDuration(cycles, cfg.ClockMHz)
	rep.Energy = computeEnergy(eng.counts, cycles, cfg.ClockMHz)
	if rep.Time > 0 {
		rep.PowerWatts = rep.Energy.Total() / rep.Time.Seconds()
	}
	rep.Traffic = eng.traffic
	rep.Counts = eng.counts
	if cycles > 0 {
		rep.RUUtilization = float64(eng.ruBusyCycles) / float64(cycles*uint64(cfg.NumRU))
		rep.SUUtilization = float64(eng.suBusyCycles) / float64(cycles*uint64(cfg.NumSU*cfg.PEsPerSU))
	}
	return rep, nil
}
