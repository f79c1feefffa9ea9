package search

import (
	"fmt"

	"tigris/internal/cloud"
	"tigris/internal/twostage"
)

// The built-in backends self-register here, in one place, so the full
// name → factory mapping is readable at a glance. Each factory validates
// its option bag (unknown keys are errors) and mirrors the construction
// paths the pipeline used before the registry existed, bit for bit.

func init() {
	mustRegister(NewBackend(BackendCanonical, newCanonicalBackend))
	mustRegister(NewBackend(BackendTwoStage, newTwoStageBackend))
	mustRegister(NewBackend(BackendTwoStageApprox, newTwoStageApproxBackend))
	mustRegister(NewBackend(BackendBruteForce, newBruteForceBackend))
	mustRegister(NewBackend(BackendTrace, newTraceBackend))
}

func newCanonicalBackend(slab *cloud.Slab, opts Options) (Searcher, error) {
	if err := opts.checkKeys(OptParallelism); err != nil {
		return nil, err
	}
	p, err := opts.Int(OptParallelism, 0)
	if err != nil {
		return nil, err
	}
	return NewKDSearcherSlabPar(slab, p), nil
}

// twoStageConfigFromOptions is shared by the exact and approximate
// two-stage factories. An absent top_height sizes leaf sets to
// autoLeafSize points (height 0 would be one leaf holding every point: a
// linear scan).
func twoStageConfigFromOptions(opts Options) (TwoStageConfig, error) {
	var cfg TwoStageConfig
	var err error
	if cfg.TopHeight, err = opts.Int(OptTopHeight, -1); err != nil {
		return cfg, err
	}
	if cfg.Parallelism, err = opts.Int(OptParallelism, 0); err != nil {
		return cfg, err
	}
	return cfg, nil
}

func newTwoStageBackend(slab *cloud.Slab, opts Options) (Searcher, error) {
	if err := opts.checkKeys(OptParallelism, OptTopHeight); err != nil {
		return nil, err
	}
	cfg, err := twoStageConfigFromOptions(opts)
	if err != nil {
		return nil, err
	}
	return NewTwoStageSearcherSlab(slab, cfg), nil
}

func newTwoStageApproxBackend(slab *cloud.Slab, opts Options) (Searcher, error) {
	if err := opts.checkKeys(OptParallelism, OptTopHeight, OptNNThreshold, OptRadiusThresholdFrac); err != nil {
		return nil, err
	}
	cfg, err := twoStageConfigFromOptions(opts)
	if err != nil {
		return nil, err
	}
	thd, err := opts.Float(OptNNThreshold, 0)
	if err != nil {
		return nil, err
	}
	if thd == 0 {
		thd = twostage.DefaultNNThreshold
	}
	frac, err := opts.Float(OptRadiusThresholdFrac, 0)
	if err != nil {
		return nil, err
	}
	if frac == 0 {
		frac = twostage.DefaultRadiusThresholdFrac
	}
	cfg.Approx = &twostage.ApproxOptions{Threshold: thd, RadiusThresholdFrac: frac}
	return NewTwoStageSearcherSlab(slab, cfg), nil
}

func newBruteForceBackend(slab *cloud.Slab, opts Options) (Searcher, error) {
	if err := opts.checkKeys(OptParallelism); err != nil {
		return nil, err
	}
	p, err := opts.Int(OptParallelism, 0)
	if err != nil {
		return nil, err
	}
	s := NewBruteSearcherSlab(slab)
	s.SetParallelism(p)
	return s, nil
}

// newTraceBackend builds the decorator: the "inner" and "sink" options
// are consumed here, everything else passes through to the wrapped
// backend's factory (which performs its own key validation).
func newTraceBackend(slab *cloud.Slab, opts Options) (Searcher, error) {
	inner, err := opts.String(OptTraceInner, BackendCanonical)
	if err != nil {
		return nil, err
	}
	if inner == BackendTrace {
		return nil, fmt.Errorf("trace backend cannot wrap itself")
	}
	sinkV, present := opts[OptTraceSink]
	sink, ok := sinkV.(*TraceLog)
	if !present || !ok || sink == nil {
		return nil, fmt.Errorf("trace backend requires a *search.TraceLog under option %q", OptTraceSink)
	}
	rest := opts.Clone()
	delete(rest, OptTraceInner)
	delete(rest, OptTraceSink)
	is, err := NewByNameSlab(inner, slab, rest)
	if err != nil {
		return nil, err
	}
	return &TraceSearcher{Searcher: is, Log: sink}, nil
}
