package main

import (
	"fmt"
	"sort"
	"time"

	"tigris/internal/dse"
	"tigris/internal/kdtree"
	"tigris/internal/registration"
	"tigris/internal/twostage"
)

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// evaluate runs a design point, with the flags overlaid, on every pair.
func (e *env) evaluate(dp dse.DesignPoint) dse.Evaluated {
	dp.Config = e.config(dp)
	return dse.Evaluate(e.sequence(), dp)
}

func fig3(e *env) []table {
	scatter := table{title: "Fig. 3: design-space exploration (error vs time)",
		cols: []string{"design point", "terr_pct", "rerr_deg_per_m", "time_ms"}}
	var evals []dse.Evaluated
	var slowest time.Duration
	for _, dp := range dse.Grid() {
		ev := e.evaluate(dp)
		evals = append(evals, ev)
		slowest = max(slowest, ev.MeanTime)
		scatter.add(dp.Name, ev.Error.MeanTranslationalPct, ev.Error.MeanRotationalDegPerM, ms(ev.MeanTime))
	}
	front := func(title, unit string, errOf func(*dse.Evaluated) float64) table {
		t := table{title: title, cols: []string{"design point", unit, "time_normalized"}}
		f := dse.ParetoFront(evals, errOf)
		sort.Slice(f, func(a, b int) bool { return errOf(&f[a]) < errOf(&f[b]) })
		for i := range f {
			t.add(f[i].Point.Name, errOf(&f[i]), float64(f[i].MeanTime)/float64(slowest))
		}
		return t
	}
	return []table{scatter,
		front("Fig. 3a: Pareto front, translational error", "terr_pct", dse.TranslationalError),
		front("Fig. 3b: Pareto front, rotational error", "rerr_deg_per_m", dse.RotationalError)}
}

func fig4(e *env) []table {
	stages := table{title: "Fig. 4a: per-stage time distribution of DP1-DP8 (%)",
		cols: []string{"DP", "NE", "KeyPt", "Desc", "KPCE", "Reject", "RPCE", "ErrMin"}}
	split := table{title: "Fig. 4b: KD-tree search vs construction vs other (%)",
		cols: []string{"DP", "kd_search", "kd_construct", "other", "terr_pct", "time_ms"},
		note: "KD-tree search is 50-85% of time on every DP"}
	pct := func(d, total time.Duration) float64 { return 100 * float64(d) / float64(max(total, 1)) }
	for _, dp := range dse.NamedDesignPoints() {
		ev := e.evaluate(dp)
		s, total := ev.Stage, ev.Stage.Total()
		stages.add(dp.Name, pct(s.NormalEstimation, total), pct(s.KeypointDetection, total),
			pct(s.DescriptorCalculation, total), pct(s.KPCE, total), pct(s.Rejection, total),
			pct(s.RPCE, total), pct(s.ErrorMinimization, total))
		total = ev.KDSearch + ev.KDBuild + ev.Other
		split.add(dp.Name, pct(ev.KDSearch, total), pct(ev.KDBuild, total), pct(ev.Other, total),
			ev.Error.MeanTranslationalPct, ms(ev.MeanTime))
	}
	return []table{stages, split}
}

// fig6 searches frame 0 with every point of frame 1: nearest neighbour,
// and a 0.5 m radius.
func fig6(e *env) []table {
	target, queries := e.sequence().Frames[0].Points, e.sequence().Frames[1].Points
	t := table{title: "Fig. 6a/6b: redundancy and node visits vs leaf-set size",
		cols: []string{"leaf-set", "nn_visits", "nn_redundancy_x", "radius_visits", "radius_redundancy_x"},
		note: "at leaf-set 32, NN redundancy ~35x, radius ~3x; radius search visits far more nodes in absolute terms"}
	canon := kdtree.Build(target)
	var nn, rad kdtree.Stats
	for _, q := range queries {
		canon.Nearest(q, &nn)
		canon.Radius(q, 0.5, &rad)
	}
	t.add("canonical", float64(nn.NodesVisited), 1, float64(rad.NodesVisited), 1)
	for _, leaf := range []int{1, 2, 4, 8, 16, 32} {
		tree := twostage.BuildWithLeafSize(target, leaf)
		var nn2, rad2 twostage.Stats
		for _, q := range queries {
			tree.Nearest(q, &nn2)
			tree.Radius(q, 0.5, &rad2)
		}
		t.add(fmt.Sprint(leaf),
			float64(nn2.TotalVisited()), float64(nn2.TotalVisited())/float64(nn.NodesVisited),
			float64(rad2.TotalVisited()), float64(rad2.TotalVisited())/float64(rad.NodesVisited))
	}
	return []table{t}
}

// inject registers every pair at DP7 (the accuracy-oriented point, as in
// §4.2's study) with errors injected into search. The sparse-KPCE arm
// measures how front-end corruption propagates, so there the guards that
// would mask it (RANSAC verification, the inter-frame motion prior) give
// way to the paper-era configuration: threshold rejection and an uncapped
// initial estimate.
func (e *env) inject(inj registration.Injection, trustFrontEnd bool) registration.SequenceError {
	cfg := e.config(dse.DP7())
	cfg.ICP.MaxIterations = 25
	cfg.Inject = inj
	if trustFrontEnd {
		cfg.Rejection.Method = registration.RejectThreshold
		cfg.MaxInitialTranslation = -1
		cfg.MaxInitialRotation = -1
	}
	seq := e.sequence()
	var errs []registration.FrameError
	for i := 0; i+1 < seq.Len(); i++ {
		res := registration.Register(seq.Frames[i+1], seq.Frames[i], cfg)
		errs = append(errs, registration.EvaluatePair(res.Transform, seq.GroundTruthDelta(i)))
	}
	return registration.Aggregate(errs)
}

func fig7a(e *env) []table {
	t := table{title: "Fig. 7a: k-th NN injection (translational error %)",
		cols: []string{"k", "rpce_dense", "stdev", "kpce_sparse", "stdev"},
		note: "dense RPCE tolerates large k; sparse KPCE degrades sharply (≈40% accuracy loss already at k=2)"}
	for k := 1; k <= 9; k++ {
		dense := e.inject(registration.Injection{RPCEKthNN: k}, false)
		sparse := e.inject(registration.Injection{KPCEKthNN: k}, true)
		t.add(fmt.Sprint(k), dense.MeanTranslationalPct, dense.StdevTranslationalPct,
			sparse.MeanTranslationalPct, sparse.StdevTranslationalPct)
	}
	return []table{t}
}

// fig7b: the paper sweeps <r1, 75cm> against an exact radius of 60 cm;
// DP7's NE radius is 0.75 m, so the outer radius is fixed at 0.95 m and
// r1 sweeps upward.
func fig7b(e *env) []table {
	r := dse.DP7().Config.Normal.SearchRadius
	t := table{title: fmt.Sprintf("Fig. 7b: radius-shell injection into NE (exact r = %.2f m; translational error %%)", r),
		cols: []string{"<r1,r2> m", "ne_dense", "stdev"},
		note: "registration error is statistically flat until the shell excludes most of the true neighborhood"}
	for _, r1 := range []float64{0.10, 0.15, 0.20, 0.25, 0.30, 0.40, 0.50, 0.60} {
		res := e.inject(registration.Injection{NEShell: &[2]float64{r1, r + 0.2}}, false)
		t.add(fmt.Sprintf("<%.2f,%.2f>", r1, r+0.2), res.MeanTranslationalPct, res.StdevTranslationalPct)
	}
	return []table{t}
}
