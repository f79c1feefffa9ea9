package registration

import (
	"strings"
	"testing"

	"tigris/internal/cloud"
	"tigris/internal/search"
	"tigris/internal/synth"
)

// TestBackendNameDefaultsToTwoStage: the zero SearcherConfig selects the
// paper's two-stage tree, and an explicit name is returned as given.
func TestBackendNameDefaultsToTwoStage(t *testing.T) {
	if got := (SearcherConfig{}).BackendName(); got != search.BackendTwoStage {
		t.Errorf("SearcherConfig{} → %q, want %q", got, search.BackendTwoStage)
	}
	if err := (SearcherConfig{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
	c := SearcherConfig{Backend: search.BackendBruteForce}
	if got := c.BackendName(); got != search.BackendBruteForce {
		t.Errorf("explicit Backend → %q", got)
	}
}

// TestRegisterWithCustomBackend: a backend registered at runtime through
// search.NewBackend is selectable by SearcherConfig.Backend and carries
// the whole pipeline. The custom factory wraps the canonical tree, so
// the result must equal the built-in's exactly.
func TestRegisterWithCustomBackend(t *testing.T) {
	const name = "test-registration-custom"
	if err := search.RegisterBackend(search.NewBackend(name, func(slab *cloud.Slab, opts search.Options) (search.Searcher, error) {
		return search.NewByNameSlab(search.BackendCanonical, slab, opts)
	})); err != nil {
		t.Fatal(err)
	}
	seq := synth.GenerateSequence(synth.QuickSequenceConfig(2, 46))
	canonical := pipelineTestConfig()
	custom := pipelineTestConfig()
	custom.Searcher = SearcherConfig{Backend: name}
	if err := custom.Searcher.Validate(); err != nil {
		t.Fatalf("registered backend rejected: %v", err)
	}

	a := Register(seq.Frames[1].Clone(), seq.Frames[0].Clone(), canonical)
	b := Register(seq.Frames[1].Clone(), seq.Frames[0].Clone(), custom)
	if a.Transform != b.Transform {
		t.Errorf("custom backend transform %v != canonical %v", b.Transform, a.Transform)
	}
	if b.SearchQueries == 0 || a.SearchQueries != b.SearchQueries {
		t.Errorf("search metrics diverged: %d vs %d queries", a.SearchQueries, b.SearchQueries)
	}
}

// TestRegisterWithBruteForceBackend: the oracle backend must run the full
// pipeline and agree with the canonical tree exactly (both are exact
// structures over the same points).
func TestRegisterWithBruteForceBackend(t *testing.T) {
	seq := synth.GenerateSequence(synth.QuickSequenceConfig(2, 47))
	canonical := pipelineTestConfig()
	canonical.Searcher = SearcherConfig{Backend: search.BackendCanonical}
	brute := pipelineTestConfig()
	brute.Searcher = SearcherConfig{Backend: search.BackendBruteForce}

	a := Register(seq.Frames[1].Clone(), seq.Frames[0].Clone(), canonical)
	b := Register(seq.Frames[1].Clone(), seq.Frames[0].Clone(), brute)
	if a.Transform != b.Transform {
		t.Errorf("bruteforce transform %v != canonical %v", b.Transform, a.Transform)
	}
}

// TestSearcherConfigValidate covers the boundary checks.
func TestSearcherConfigValidate(t *testing.T) {
	err := (SearcherConfig{Backend: "no-such"}).Validate()
	if err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("unknown backend Validate = %v", err)
	}
	for _, name := range search.Backends() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-backend error does not list registered %q: %v", name, err)
		}
	}
	if err := (SearcherConfig{Backend: search.BackendTrace}).Validate(); err == nil {
		t.Error("trace without a sink must fail validation")
	}
	if err := (SearcherConfig{
		Backend: search.BackendTrace,
		Options: search.Options{search.OptTraceSink: &search.TraceLog{}, search.OptTraceInner: search.BackendTwoStage},
	}).Validate(); err != nil {
		t.Errorf("valid trace config rejected: %v", err)
	}
	if err := (SearcherConfig{Backend: search.BackendTwoStageApprox}).Validate(); err != nil {
		t.Errorf("approx config rejected: %v", err)
	}
	bad := SearcherConfig{Backend: search.BackendTwoStage,
		Options: search.Options{search.OptTopHeight: "tall"}}
	if err := bad.Validate(); err == nil {
		t.Error("bad option type must fail validation")
	}
}

// TestEffectiveParallelism: the worker count has one place, the
// Parallelism field. Validate refuses it in the Options bag — with an
// error naming the field, whatever the value — and the bag a backend is
// built from carries the field's value.
func TestEffectiveParallelism(t *testing.T) {
	for _, v := range []any{float64(1), 3, "x"} {
		c := SearcherConfig{Parallelism: 3, Options: search.Options{search.OptParallelism: v}}
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "Parallelism") {
			t.Errorf("Options %s = %v: Validate = %v, want a refusal naming Parallelism", search.OptParallelism, v, err)
		}
	}
	c := SearcherConfig{Parallelism: 3, Options: search.Options{search.OptTopHeight: 4}}
	if err := c.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	opts := c.BackendOptions()
	if got, _ := opts.Int(search.OptParallelism, 0); got != 3 || len(opts) != 2 {
		t.Errorf("BackendOptions = %v, want top_height and parallelism 3", opts)
	}
	if _, ok := c.Options[search.OptParallelism]; ok {
		t.Error("BackendOptions wrote into the config's own Options")
	}
}

// TestNewSearcherPanicsOnBadConfig: deep in the pipeline a bad config is
// a panic (boundaries are expected to Validate).
func TestNewSearcherPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("newSearcher with an unknown backend must panic")
		}
	}()
	newSearcher(nil, SearcherConfig{Backend: "no-such"})
}

// TestTraceStageAttribution: a traced Register run must label every
// recorded batch with the pipeline stage that issued it, and the
// co-sim's stage weighting must see those labels (the Fig. 6 breakdown).
func TestTraceStageAttribution(t *testing.T) {
	seq := synth.GenerateSequence(synth.QuickSequenceConfig(2, 48))
	log := &search.TraceLog{}
	cfg := pipelineTestConfig()
	cfg.Searcher = SearcherConfig{
		Backend: search.BackendTrace,
		Options: search.Options{search.OptTraceSink: log, search.OptTraceInner: search.BackendCanonical},
	}
	Register(seq.Frames[1].Clone(), seq.Frames[0].Clone(), cfg)

	counts := map[string]int64{}
	for _, b := range log.Batches() {
		counts[b.Stage] += int64(len(b.Queries))
	}
	for _, stage := range []string{search.StageNormals, search.StageKeypoints, search.StageDescriptors, search.StageRPCE} {
		if counts[stage] == 0 {
			t.Errorf("no queries attributed to stage %q (got %v)", stage, counts)
		}
	}
	if counts[""] != 0 {
		t.Errorf("%d queries left unattributed", counts[""])
	}
	// RPCE must be NN-shaped, normals radius-shaped.
	for _, b := range log.Batches() {
		if b.Stage == search.StageRPCE && b.Kind != search.TraceNearest {
			t.Errorf("RPCE batch recorded as %v", b.Kind)
		}
		if b.Stage == search.StageNormals && b.Kind != search.TraceRadius {
			t.Errorf("normal-estimation batch recorded as %v", b.Kind)
		}
	}
}
