package registration

import (
	"time"

	"tigris/internal/cloud"
	"tigris/internal/features"
	"tigris/internal/geom"
	"tigris/internal/kdtree"
	"tigris/internal/obs"
	"tigris/internal/search"
)

// PreparedFrame holds every per-cloud product of the registration
// front-end: the (optionally downsampled) front-end cloud with its
// normals, the search index over it, the detected key-points and their
// descriptors, and — built lazily, because only a pair's *target* needs
// them — the fine-tuning index over the raw cloud and the raw-cloud
// normals point-to-plane ICP reads, each estimated when a match first
// names its point and kept for every later iteration and pair.
//
// The type exists so callers that register a *stream* of frames can
// compute this state once per frame and reuse it when the frame flips
// roles from a pair's source to the next pair's target, instead of
// re-running the whole front-end the way per-pair Register does. All of
// the contained computations are deterministic functions of the cloud
// and the config, so reuse is bit-identical to recomputation for the
// exact search backends.
//
// A PreparedFrame is not safe for concurrent use: its searchers carry
// per-instance metrics, FineTarget mutates lazily-built state, and every
// ICP iteration of an Align that targets the frame may write normals into
// Raw. Detach returns the part of it that can be shared.
type PreparedFrame struct {
	// Raw is the frame's SoA float32 slab (the cloud as given, quantized
	// once on ingest); fine-tuning RPCE always refines with these points.
	Raw *cloud.Slab
	// FE is the front-end slab (== Raw unless VoxelLeaf downsampling is
	// active). Its normal slabs are filled by PrepareFrame.
	FE *cloud.Slab
	// FESearch indexes FE zero-copy; every front-end stage queried it.
	FESearch search.Searcher
	// Keypoints are indices into FE, ordered by response.
	Keypoints []int
	// KeypointPts are the key-point positions (aligned with Keypoints and
	// the descriptor rows).
	KeypointPts []geom.Vec3
	// Desc are the key-point descriptors.
	Desc *features.Descriptors

	// NormalTime / KeypointTime / DescriptorTime are this cloud's shares
	// of the Fig. 4a front-end stages; PrepTotal is the whole front-end
	// wall time including downsampling and index construction.
	NormalTime     time.Duration
	KeypointTime   time.Duration
	DescriptorTime time.Duration
	PrepTotal      time.Duration

	// Builds counts search-index constructions for this frame: 1 after
	// PrepareFrame, 2 once FineTarget has built the raw-cloud index. The
	// streaming engine asserts through this counter that each frame's
	// trees are built exactly once per session.
	Builds int

	fineSearch search.Searcher
	fine       *fineNormals
	// sharesRaw is set on both sides of a Detach: the raw points, and the
	// normals of a front-end that ran on the raw cloud, belong to every
	// frame holding them, so Release hands them to no pool.
	sharesRaw bool
}

// fineNormals is a target frame's raw-cloud normals, estimated on demand:
// which points have one, and what estimating the others takes. It exists
// only for a frame whose front-end ran on a downsampled cloud and whose
// pairs fine-tune point-to-plane — otherwise the normals ICP reads are
// the front-end's own, or it reads none.
type fineNormals struct {
	// search indexes the raw cloud; its slab receives the normals.
	search search.Searcher
	cfg    features.NormalConfig
	// has holds one bit per raw point, set once the point's normal has
	// been estimated; estimated counts the set bits.
	has       []uint64
	estimated int
}

// estimateMissing makes sure the target of every kept query (kept indexes
// nbs) has its normal: the targets no earlier call covered are estimated
// in one batch, at the searcher's current width, and remembered. A normal
// is a function of its own neighborhood alone, so on an exact backend
// each one has the bits a whole-cloud pass would have given it. need is
// the caller's buffer for the list of missing targets, returned for
// reuse.
func (n *fineNormals) estimateMissing(nbs []kdtree.Neighbor, kept []int, need []int) []int {
	for _, qi := range kept {
		ti := nbs[qi].Index
		if word, bit := &n.has[ti>>6], uint64(1)<<(ti&63); *word&bit == 0 {
			*word |= bit
			need = append(need, ti)
		}
	}
	if len(need) > 0 {
		search.TagStage(n.search, search.StageNormals)
		features.EstimateNormalsAt(n.search.Slab(), n.search, n.cfg, need)
		search.TagStage(n.search, search.StageRPCE)
		n.estimated += len(need)
	}
	return need
}

// PrepareFrame runs the per-cloud half of the registration front-end
// (downsample → index → normals → key-points → descriptors) and returns
// the reusable frame state. Register calls it once per cloud; a
// streaming session calls it once per *frame* and reuses the result for
// both roles the frame plays.
func PrepareFrame(c *cloud.Cloud, cfg PipelineConfig) *PreparedFrame {
	return PrepareFrameSlab(cloud.SlabFromCloud(c), cfg)
}

// PrepareFrameSlab is PrepareFrame for callers that already hold the
// frame as an SoA slab: no further quantization or copying happens — the
// search indexes are built zero-copy over the slab, and the slab's normal
// arrays receive the normal-estimation output. The frame takes ownership
// of s (its normals are written in place, and Release hands its columns
// back for later slabs).
func PrepareFrameSlab(s *cloud.Slab, cfg PipelineConfig) *PreparedFrame {
	start := time.Now()
	f := &PreparedFrame{Raw: s, FE: s}
	if cfg.VoxelLeaf > 0 && !cfg.FrontEndOnRaw {
		f.FE = cloud.VoxelDownsampleSlab(s, cfg.VoxelLeaf)
	}
	f.FESearch = newSearcher(f.FE, cfg.Searcher)
	f.Builds++

	// Normal estimation, optionally with shell error injection (§4.2).
	// Each stage tags the searcher first so a trace backend attributes
	// its batches per stage (Fig. 6-style weighting in the co-sim).
	ne := f.FESearch
	if cfg.Inject.NEShell != nil {
		ne = &search.ShellSearcher{Searcher: f.FESearch, R1: cfg.Inject.NEShell[0], R2: cfg.Inject.NEShell[1]}
	}
	search.TagStage(ne, search.StageNormals)
	t0 := time.Now()
	features.EstimateNormals(f.FE, ne, cfg.Normal)
	f.NormalTime = time.Since(t0)

	search.TagStage(f.FESearch, search.StageKeypoints)
	t0 = time.Now()
	f.Keypoints = features.DetectKeypoints(f.FE, f.FESearch, cfg.Keypoint)
	f.KeypointTime = time.Since(t0)

	search.TagStage(f.FESearch, search.StageDescriptors)
	t0 = time.Now()
	f.Desc = features.ComputeDescriptors(f.FE, f.FESearch, f.Keypoints, cfg.Descriptor)
	f.DescriptorTime = time.Since(t0)

	f.KeypointPts = selectSlabPoints(f.FE, f.Keypoints)
	f.PrepTotal = time.Since(start)
	// Telemetry tap: the stage durations above were measured regardless;
	// with a recorder configured they also become latency samples. A nil
	// recorder makes all four calls no-ops.
	cfg.Obs.Observe(obs.StageNormals, f.NormalTime)
	cfg.Obs.Observe(obs.StageKeypoints, f.KeypointTime)
	cfg.Obs.Observe(obs.StageDescriptors, f.DescriptorTime)
	cfg.Obs.Observe(obs.StagePrep, f.PrepTotal)
	return f
}

// FineTarget returns the searcher and cloud RPCE queries when this frame
// is a pair's target. When the front-end ran on the raw cloud the
// front-end index — and its normals — are reused; otherwise (and on a
// detached frame, which has the normals but not the index) a raw-cloud
// index is built on first use and cached for every later pair that
// targets this frame. Point-to-plane fine-tuning additionally reads
// raw-cloud normals, but only those of the points its matches name (about
// 70 % of a frame at stride 3, 40 % at stride 6), so none is estimated
// here: Align's ICP asks for them as its matches settle (targetNormals),
// and each is estimated once.
func (f *PreparedFrame) FineTarget(cfg PipelineConfig) (search.Searcher, *cloud.Slab) {
	if f.FE == f.Raw && f.FESearch != nil {
		return f.FESearch, f.FE
	}
	if f.fineSearch == nil {
		f.fineSearch = newSearcher(f.Raw, cfg.Searcher)
		f.Builds++
	}
	return f.fineSearch, f.Raw
}

// targetNormals returns the on-demand estimator of this frame's raw-cloud
// normals for a pair that fine-tunes under cfg, or nil when there is
// nothing to estimate: the metric reads no normals, or the front-end ran
// on the raw cloud and left its own there. The normal arrays it fills are
// allocated here, so a point-to-plane target always has them. A normal is
// estimated once, under the NormalConfig of the pair that first reads it.
func (f *PreparedFrame) targetNormals(cfg PipelineConfig) *fineNormals {
	if f.FE == f.Raw || cfg.ICP.Metric != PointToPlane {
		return nil
	}
	if f.fine == nil {
		fineSearch, _ := f.FineTarget(cfg)
		f.Raw.EnsureNormals()
		f.fine = &fineNormals{search: fineSearch, has: make([]uint64, (f.Raw.Len()+63)/64)}
	}
	f.fine.cfg = cfg.Normal
	return f.fine
}

// FineNormals reports how many of the raw cloud's normals fine-tuning has
// estimated so far (0 for a frame that was never a point-to-plane target,
// or whose front-end ran on the raw cloud).
func (f *PreparedFrame) FineNormals() int {
	if f.fine == nil {
		return 0
	}
	return f.fine.estimated
}

// Searchers returns every search index this frame has built so far (the
// front-end index, plus the fine-tuning index once FineTarget created
// it), for metrics roll-up.
func (f *PreparedFrame) Searchers() []search.Searcher {
	s := []search.Searcher{f.FESearch}
	if f.fineSearch != nil {
		s = append(s, f.fineSearch)
	}
	return s
}

// SearchMetrics sums the accumulated metrics of this frame's searchers.
func (f *PreparedFrame) SearchMetrics() search.Metrics {
	var m search.Metrics
	for _, s := range f.Searchers() {
		m.Merge(*s.Metrics())
	}
	return m
}

// Detach returns the part of f that Align reads — raw points, key-point
// positions, descriptors — as a frame of its own, with no FESearch, no
// Keypoints, FE only where it is Raw, and nothing f built as a target: the
// loop detector keeps one per observed frame, aligns it as a source as it
// is, and aligns a fresh Detach of it as a target. The point arrays and
// key-point positions are shared with f, not copied: nothing writes them
// after the front-end, so f and its detached frames may be aligned at the
// same time. So are the normals of a front-end that ran on the raw cloud —
// they are what point-to-plane ICP reads (error injection included) and
// no Align writes them; otherwise a detached target estimates its own on
// demand, into arrays f never sees. The descriptors are copied, because
// f.Release recycles f's. What is shared stays out of the pools when
// either frame is released; the rest of each is its own.
func (f *PreparedFrame) Detach() *PreparedFrame {
	if !f.sharesRaw {
		// A detached frame is marked from birth, so concurrent
		// verifications detaching it again only read the mark.
		f.sharesRaw = true
	}
	raw := &cloud.Slab{Xs: f.Raw.Xs, Ys: f.Raw.Ys, Zs: f.Raw.Zs}
	d := &PreparedFrame{
		Raw:         raw,
		KeypointPts: f.KeypointPts,
		Desc:        &features.Descriptors{Dim: f.Desc.Dim, Data: append([]float64(nil), f.Desc.Data...)},
		sharesRaw:   true,
	}
	if f.FE == f.Raw {
		raw.NXs, raw.NYs, raw.NZs = f.Raw.NXs, f.Raw.NYs, f.Raw.NZs
		d.FE = raw
	}
	return d
}

// Release is the end of the frame's life: everything it allocated goes
// back to the pools later frames draw from — the descriptor slab, the
// arrays of both search indexes (search.Recycle), the front-end slab and
// the raw slab's columns, normals included (cloud.Slab.Recycle) — except
// what it shares with a detached frame: the raw points always, and the
// normals too when the front-end ran on the raw cloud. Call it when the
// frame has played its last role in a session; nothing may use the frame,
// or read an array it held, afterwards. A detached frame needs no
// Release, and may have one: it then returns only what it built as a
// target (the raw-cloud index and its own normals).
func (f *PreparedFrame) Release() {
	features.RecycleDescriptors(f.Desc)
	search.Recycle(f.FESearch)
	search.Recycle(f.fineSearch)
	if f.FE != nil && f.FE != f.Raw {
		f.FE.Recycle()
	}
	if raw := f.Raw; raw != nil {
		if f.sharesRaw {
			raw.Xs, raw.Ys, raw.Zs = nil, nil, nil
			if f.FE == raw {
				raw.NXs, raw.NYs, raw.NZs = nil, nil, nil
			}
		}
		raw.Recycle()
	}
	f.Desc, f.FESearch, f.fineSearch, f.fine = nil, nil, nil, nil
	f.Keypoints, f.KeypointPts, f.FE, f.Raw = nil, nil, nil, nil
}

// Align runs the pair-level back half of the pipeline on two prepared
// frames: KPCE in feature space, correspondence rejection, the initial
// estimate with its robustness guards, and ICP fine-tuning against the
// target's raw cloud. It fills every Result field except the per-cloud
// front-end stage times, which the caller composes from the frames'
// prep timings (Register does exactly that). It is AlignFrom with the
// identity as the prior.
func Align(src, dst *PreparedFrame, cfg PipelineConfig) Result {
	return AlignFrom(src, dst, cfg, geom.IdentityTransform())
}

// AlignFrom is Align for a caller that knows roughly how the pair moved:
// when the guards reject the front-end's estimate, ICP starts from prior
// instead of the identity, as LiDAR odometry seeds scan matching with a
// constant-velocity prediction (KISS-ICP, Vizzo et al., RA-L 2023; LOAM,
// Zhang & Singh, RSS 2014). A prior outside the motion bounds
// (PipelineConfig.MaxInitialTranslation) is not used either. An estimate
// that passes the guards is used as Align uses it. It is EstimateInitial
// followed by FineTune.
func AlignFrom(src, dst *PreparedFrame, cfg PipelineConfig, prior geom.Transform) Result {
	return FineTune(src, dst, cfg, EstimateInitial(src, dst, cfg, prior))
}

// EstimateInitial is AlignFrom's initial-estimation phase (paper Fig. 2,
// left): KPCE, rejection and the guarded initial estimate. Its Result
// holds the key-point, correspondence and inlier counts, Initial and
// InitialSource, the two stages' times and KPCE's feature-tree times; hand
// it to FineTune to finish the pair. A caller can read the feature
// evidence in between and choose the ICP config it fine-tunes under.
func EstimateInitial(src, dst *PreparedFrame, cfg PipelineConfig, prior geom.Transform) Result {
	start := time.Now()
	var res Result
	res.SrcKeypoints = len(src.KeypointPts)
	res.DstKeypoints = len(dst.KeypointPts)
	// Every parallel loop below runs at the session's one worker count.
	workers := cfg.Searcher.Parallelism

	// (4) KPCE in feature space.
	t0 := time.Now()
	var corr []Correspondence
	if cfg.Inject.KPCEKthNN > 1 {
		corr = kpceKthNN(src.Desc, dst.Desc, cfg.Inject.KPCEKthNN)
	} else {
		// KPCE's feature trees count toward KD-tree time (Fig. 2 shading);
		// the 3D searchers' roll-up is the caller's job because their
		// metrics span the front-end too.
		corr, res.KDSearchTime, res.KDBuildTime = kpceTimed(src.Desc, dst.Desc, cfg.KPCE, workers)
	}
	res.Stage.KPCE = time.Since(t0)
	res.Correspondences = len(corr)

	// (5) Rejection + initial transform. RANSAC hypothesis scoring is
	// bit-identical at any width.
	t0 = time.Now()
	inliers := rejectCorrespondences(corr, src.KeypointPts, dst.KeypointPts, cfg.Rejection, workers)
	res.Inliers = len(inliers)
	initial, ok := estimateFromCorr(inliers, src.KeypointPts, dst.KeypointPts)
	// Guard against a junk initial estimate: a tiny or low-ratio consensus
	// means the front-end found no reliable matches (e.g. feature-poor
	// scenes), and a wrong initialization is worse for ICP than none —
	// exactly the local-minimum trap the paper's two-phase design exists
	// to avoid (§3.1). So is a motion past the bounds. ICP then starts
	// from the caller's prior, or from the identity when the prior is the
	// identity or out of bounds too.
	res.InitialSource = FromFrontEnd
	if !ok || len(inliers) < 6 || (len(corr) > 0 && float64(len(inliers)) < 0.2*float64(len(corr))) || !withinMotionBounds(initial, cfg) {
		initial, res.InitialSource = prior, FromMotionPrior
		if prior == geom.IdentityTransform() || !withinMotionBounds(prior, cfg) {
			initial, res.InitialSource = geom.IdentityTransform(), FromIdentity
		}
	}
	res.Stage.Rejection = time.Since(t0)
	res.Initial = initial
	// Both correspondence lists are fully consumed; their slabs go back
	// to the pool for the next pair.
	recycleCorr(corr, inliers)
	res.Total = time.Since(start)
	// Telemetry tap for the two stages (no-ops on a nil recorder).
	cfg.Obs.Observe(obs.StageKPCE, res.Stage.KPCE)
	cfg.Obs.Observe(obs.StageRejection, res.Stage.Rejection)
	return res
}

// FineTune is AlignFrom's fine-tuning phase (paper Fig. 2, right): ICP
// from res.Initial against dst's raw cloud, under cfg. res is
// EstimateInitial's Result for the same pair; FineTune returns it
// completed, as AlignFrom returns it.
func FineTune(src, dst *PreparedFrame, cfg PipelineConfig, res Result) Result {
	start := time.Now()
	icpTarget, _ := dst.FineTarget(cfg)
	fine := dst.targetNormals(cfg)
	// The target index may have been built under another config; this
	// pair's caps the RPCE batches, the normal-estimation batches between
	// them and ICP's error accumulation, which takes its width from the
	// target. Exact backends are parallelism-invariant, so this never
	// changes results.
	icpTarget.SetParallelism(cfg.Searcher.Parallelism)
	search.TagStage(icpTarget, search.StageRPCE)
	var rpceSearch search.Searcher = icpTarget
	if cfg.Inject.RPCEKthNN > 1 {
		rpceSearch = &search.KthNNSearcher{Searcher: icpTarget, K: cfg.Inject.RPCEKthNN}
	}
	// Fine-tuning always refines with the raw source points.
	known := dst.FineNormals()
	icpRes := icp(src.Raw, rpceSearch, res.Initial, cfg.ICP, fine)
	res.ICP = icpRes
	res.Stage.RPCE = icpRes.RPCETime
	res.Stage.ErrorMinimization = icpRes.SolveTime
	res.Transform = icpRes.Transform
	if fine != nil {
		res.FineNormals = dst.FineNormals() - known
		res.FineTargetPoints = dst.Raw.Len()
	}
	res.Total += time.Since(start)
	// Telemetry tap for the ICP sub-spans and the whole pair (no-ops on a
	// nil recorder).
	cfg.Obs.Observe(obs.StageRPCE, icpRes.RPCETime)
	cfg.Obs.Observe(obs.StageSolve, icpRes.SolveTime)
	if fine != nil {
		cfg.Obs.Observe(obs.StageFineNormals, icpRes.NormalTime)
	}
	cfg.Obs.Observe(obs.StageAlign, res.Total)
	return res
}

// withinMotionBounds reports whether t is a motion consecutive frames can
// make: cfg.MaxInitialTranslation / MaxInitialRotation, 5 m and 0.6 rad
// when zero, unbounded when negative.
func withinMotionBounds(t geom.Transform, cfg PipelineConfig) bool {
	maxT, maxR := cfg.MaxInitialTranslation, cfg.MaxInitialRotation
	if maxT == 0 {
		maxT = 5
	}
	if maxR == 0 {
		maxR = 0.6
	}
	return !(maxT > 0 && t.TranslationNorm() > maxT) && !(maxR > 0 && t.RotationAngle() > maxR)
}
