package registration

import (
	"fmt"
	"time"

	"tigris/internal/cloud"
	"tigris/internal/features"
	"tigris/internal/geom"
	"tigris/internal/obs"
	"tigris/internal/search"
)

// SearcherConfig bundles the search-backend selection. Backends are
// chosen by registry name (search.RegisterBackend / search.Backends), so
// the pipeline, the streaming engine, the HTTP service, and the DSE
// harness all grow new structures without code changes here.
type SearcherConfig struct {
	// Backend is the registry name of the search backend ("canonical",
	// "twostage", "twostage-approx", "bruteforce", "trace", or any name
	// registered through search.RegisterBackend). Empty selects
	// "twostage".
	Backend string
	// Options is the backend-specific option bag (see the search.Opt*
	// keys). Values may come from JSON, CLI flags, or Go code (e.g. the
	// trace backend's *search.TraceLog sink). The worker count is not one
	// of them: Validate refuses a search.OptParallelism key here.
	Options search.Options
	// Parallelism is the session's one worker count: every parallel loop
	// of every stage — the searcher's batches, KPCE's feature-tree
	// batches, RANSAC's hypothesis scoring, ICP's error accumulation —
	// runs at most this wide. 0 (the default) selects the slot budget
	// (par.Slots), 1 forces the sequential path, and any other positive
	// value pins the width. Exact backends return bit-identical results at
	// any setting.
	Parallelism int
}

// BackendName resolves the effective registry name: Backend, or
// "twostage" when empty.
func (c SearcherConfig) BackendName() string {
	if c.Backend != "" {
		return c.Backend
	}
	return search.BackendTwoStage
}

// BackendOptions resolves the option bag the registry receives: the
// free-form Options plus Parallelism under search.OptParallelism.
func (c SearcherConfig) BackendOptions() search.Options {
	opts := c.Options.Clone()
	if opts == nil {
		opts = search.Options{}
	}
	opts[search.OptParallelism] = c.Parallelism
	return opts
}

// Validate reports whether the configured backend exists and accepts the
// resolved options, by constructing it over an empty slab (cheap for
// every built-in), and refuses a worker count in Options: it has one
// place, the Parallelism field. Boundary code (CLI flags, HTTP session
// creation) calls this so a bad name or option fails fast with an
// actionable error instead of panicking mid-pipeline.
func (c SearcherConfig) Validate() error {
	if _, ok := c.Options[search.OptParallelism]; ok {
		return fmt.Errorf("search option %q: the worker count is set by the Parallelism field, not as a backend option", search.OptParallelism)
	}
	_, err := search.NewByNameSlab(c.BackendName(), cloud.NewSlab(0), c.BackendOptions())
	return err
}

// Injection configures the §4.2 error-injection study; the zero value
// injects nothing.
type Injection struct {
	// RPCEKthNN replaces RPCE's nearest neighbor with the k-th nearest
	// (Fig. 7a "RPCE (dense)"); 0 or 1 disables.
	RPCEKthNN int
	// KPCEKthNN does the same in feature space during KPCE (Fig. 7a
	// "KPCE (sparse)"); 0 or 1 disables.
	KPCEKthNN int
	// NEShell replaces NE's radius-r ball with the shell [R1, R2]
	// (Fig. 7b); nil disables.
	NEShell *[2]float64
}

// PipelineConfig is the full knob set of Fig. 2 / Tbl. 1.
type PipelineConfig struct {
	// VoxelLeaf downsamples both clouds before the front-end (0 disables).
	// The front-end stages run on the downsampled clouds; fine-tuning RPCE
	// runs on the raw clouds as the paper's pipeline does.
	VoxelLeaf float64
	// FrontEndOnRaw forces front-end stages onto the raw clouds even when
	// VoxelLeaf is set (accuracy-oriented design points).
	FrontEndOnRaw bool

	Normal     features.NormalConfig
	Keypoint   features.KeypointConfig
	Descriptor features.DescriptorConfig
	KPCE       KPCEConfig
	Rejection  RejectionConfig
	ICP        ICPConfig
	Searcher   SearcherConfig
	Inject     Injection

	// Obs, when non-nil, receives every stage's wall time as a latency
	// sample (internal/obs): PrepareFrame records the per-cloud front-end
	// stages, Align the pair stages and its ICP sub-spans, and a streaming
	// session (internal/stream) its whole-frame, hand-off, loop-closure and
	// pose-graph samples — it is the session's one recorder. Recording is
	// allocation-free and never influences results — trajectories are
	// bit-identical with Obs set or nil — so services leave it on
	// permanently; nil (the default) records nothing.
	Obs *obs.Recorder

	// MaxInitialTranslation / MaxInitialRotation bound the front-end's
	// initial estimate. Consecutive LiDAR frames (10 Hz) cannot move
	// meters or flip around, but scene symmetry (a street looks alike
	// fore and aft) occasionally yields a *consistent* wrong hypothesis
	// that distance-based rejection cannot catch; odometry pipelines
	// guard with exactly this kind of motion prior. A rejected estimate
	// falls back to the caller's prior (AlignFrom), which must pass the
	// same bounds, else to the identity. Zero values select 5 m and
	// 0.6 rad; negative values disable the check.
	MaxInitialTranslation float64
	MaxInitialRotation    float64
}

// StageTimes is the Fig. 4a breakdown: wall time per pipeline stage.
type StageTimes struct {
	NormalEstimation      time.Duration
	KeypointDetection     time.Duration
	DescriptorCalculation time.Duration
	KPCE                  time.Duration
	Rejection             time.Duration
	RPCE                  time.Duration
	ErrorMinimization     time.Duration
}

// Total sums all stages.
func (s StageTimes) Total() time.Duration {
	return s.NormalEstimation + s.KeypointDetection + s.DescriptorCalculation +
		s.KPCE + s.Rejection + s.RPCE + s.ErrorMinimization
}

// Result is the pipeline output plus all instrumentation.
type Result struct {
	// Transform maps source-frame points into the target frame (the
	// paper's M of Eq. 1).
	Transform geom.Transform
	// Initial is where fine-tuning started, and InitialSource where that
	// came from.
	Initial       geom.Transform
	InitialSource InitialSource
	// Stage holds the Fig. 4a per-stage times.
	Stage StageTimes
	// Total is the end-to-end wall time.
	Total time.Duration
	// KDSearchTime / KDBuildTime are the Fig. 4b split; OtherTime is the
	// remainder of Total.
	KDSearchTime time.Duration
	KDBuildTime  time.Duration
	// NodesVisited counts every point/node distance computation in 3D
	// search, feeding the baseline cost models.
	NodesVisited int64
	// SearchQueries counts 3D search calls.
	SearchQueries int64
	// ICP reports fine-tuning details.
	ICP ICPResult
	// Front-end population counts.
	SrcKeypoints, DstKeypoints int
	Correspondences, Inliers   int
	// FineNormals is how many of the target's raw-cloud normals this pair
	// had to estimate (the ones its matches named that no earlier pair
	// had), out of FineTargetPoints raw target points: their ratio is the
	// share of the target fine-tuning touched, the rest being work a
	// whole-cloud pass would have done for nothing. Both are zero when the
	// normals ICP reads are the front-end's own or it reads none.
	FineNormals, FineTargetPoints int
}

// InitialSource names where a pair's ICP started (Result.InitialSource).
type InitialSource string

const (
	// FromFrontEnd: the front-end's estimate passed Align's guards.
	FromFrontEnd InitialSource = "front_end"
	// FromMotionPrior: the guards rejected it, and the caller's prior
	// (AlignFrom) was used.
	FromMotionPrior InitialSource = "motion_prior"
	// FromIdentity: the guards rejected it and there was no usable prior.
	FromIdentity InitialSource = "identity"
)

// OtherTime returns Total − KDSearchTime − KDBuildTime (clamped at 0).
func (r *Result) OtherTime() time.Duration {
	o := r.Total - r.KDSearchTime - r.KDBuildTime
	if o < 0 {
		return 0
	}
	return o
}

// newSearcher builds the configured search backend zero-copy over the
// frame slab through the registry. Construction errors (unknown name,
// bad option) are programming/config errors at this depth — boundary
// code is expected to have run SearcherConfig.Validate — so they panic
// with the underlying message.
func newSearcher(slab *cloud.Slab, cfg SearcherConfig) search.Searcher {
	s, err := search.NewByNameSlab(cfg.BackendName(), slab, cfg.BackendOptions())
	if err != nil {
		panic(fmt.Sprintf("registration: %v (check configs at the boundary with SearcherConfig.Validate)", err))
	}
	return s
}

// Register runs the full two-phase pipeline, estimating the transform that
// maps src onto dst. It is a thin wrapper over the reusable stages: one
// PrepareFrame per cloud (the front-end) and one Align for the pair (KPCE
// through fine-tuning). Streaming callers (internal/stream) drive the same
// stages directly so a frame's front-end runs once even when the frame
// participates in two consecutive pairs; the outputs are identical either
// way because every stage is a deterministic function of its cloud(s) and
// the config.
func Register(src, dst *cloud.Cloud, cfg PipelineConfig) Result {
	start := time.Now()
	ps := PrepareFrame(src, cfg)
	pd := PrepareFrame(dst, cfg)
	res := Align(ps, pd, cfg)

	// Per-cloud front-end stage times (Fig. 4a rows).
	res.Stage.NormalEstimation = ps.NormalTime + pd.NormalTime
	res.Stage.KeypointDetection = ps.KeypointTime + pd.KeypointTime
	res.Stage.DescriptorCalculation = ps.DescriptorTime + pd.DescriptorTime

	// --- Instrumentation roll-up (Fig. 4b split) ---
	// Align already contributed the KPCE feature trees' share; the 3D
	// searchers (front-end indexes plus the lazily-built fine-tuning
	// index) are fresh per Register call, so their cumulative metrics are
	// exactly this pair's.
	for _, s := range append(ps.Searchers(), pd.Searchers()...) {
		m := s.Metrics()
		res.KDSearchTime += m.SearchTime
		res.KDBuildTime += m.BuildTime
		res.NodesVisited += m.NodesVisited
		res.SearchQueries += m.Queries
	}
	ps.Release()
	pd.Release()

	res.Total = time.Since(start)
	return res
}

// kpceTimed runs KPCE and reports the feature-tree search/build times so
// they can be attributed to KD-tree time (KPCE is a KD-tree-search stage
// in the paper's accounting, Fig. 2 shading). The matching itself runs
// through the batched feature-tree path, so the reported search time is
// the wall time of the parallel batches.
func kpceTimed(src, dst *features.Descriptors, cfg KPCEConfig, workers int) ([]Correspondence, time.Duration, time.Duration) {
	out, dstTree, srcTree := kpceMatch(src, dst, cfg, workers)
	var searchT, buildT time.Duration
	if dstTree != nil {
		searchT = dstTree.SearchTime
		buildT = dstTree.BuildTime
	}
	if srcTree != nil {
		searchT += srcTree.SearchTime
		buildT += srcTree.BuildTime
	}
	return out, searchT, buildT
}

// kpceKthNN is the Fig. 7a sparse-injection variant: each source feature
// is matched to its k-th nearest target feature instead of the nearest.
func kpceKthNN(src, dst *features.Descriptors, k int) []Correspondence {
	if src.Count() == 0 || dst.Count() == 0 {
		return nil
	}
	var out []Correspondence
	for i := 0; i < src.Count(); i++ {
		row, d2, ok := bruteKthFeature(dst, src.Row(i), k)
		if !ok {
			continue
		}
		out = append(out, Correspondence{Source: i, Target: row, Dist2: d2})
	}
	return out
}

// bruteKthFeature returns the k-th nearest descriptor row (1-based k),
// falling back to the farthest available when the set is smaller than k.
func bruteKthFeature(d *features.Descriptors, q []float64, k int) (int, float64, bool) {
	n := d.Count()
	if n == 0 {
		return 0, 0, false
	}
	type cand struct {
		row int
		d2  float64
	}
	cands := make([]cand, n)
	for i := 0; i < n; i++ {
		cands[i] = cand{row: i, d2: l2dist2Rows(q, d.Row(i))}
	}
	// Partial selection of the k smallest.
	if k > n {
		k = n
	}
	for i := 0; i < k; i++ {
		min := i
		for j := i + 1; j < n; j++ {
			if cands[j].d2 < cands[min].d2 {
				min = j
			}
		}
		cands[i], cands[min] = cands[min], cands[i]
	}
	return cands[k-1].row, cands[k-1].d2, true
}

func l2dist2Rows(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

func selectSlabPoints(s *cloud.Slab, idx []int) []geom.Vec3 {
	out := make([]geom.Vec3, len(idx))
	for i, j := range idx {
		out[i] = s.At(j)
	}
	return out
}
