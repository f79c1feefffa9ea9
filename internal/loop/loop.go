// Package loop implements place recognition for the SLAM layer: it
// decides when the sensor has returned to somewhere it has been before,
// and verifies the revisit by registering the two frames, so the
// pose-graph back-end (internal/posegraph) only ever receives
// geometrically confirmed constraints.
//
// The detector reuses the machinery the previous PRs built instead of
// growing parallel infrastructure:
//
//   - Each prepared frame's descriptors (internal/features, FPFH by
//     default) are aggregated into one compact frame signature — the
//     mean descriptor (stored quantized to uint8 with a per-signature
//     affine code, an 8x shrink of the retained vector) plus a
//     3-component projection of it.
//   - The 3D projections are indexed through any registered
//     search.Backend (the PR 3 registry) with the backend's default
//     options, so signature retrieval runs on the same pluggable searcher
//     stack as the pipeline's 3D queries.
//   - Candidates pass a temporal gate (no matching against the recent
//     past — consecutive frames always look alike) and are ranked by
//     full-signature distance.
//   - Verification registers the front-ends the caller already computed
//     (the detector keeps what registration.Align reads of each; no frame
//     is prepared again) and accepts the closure only on strong geometric
//     consensus (inlier count and ratio, ICP convergence, bounded
//     relative motion).
//   - ICP's budget follows the feature evidence, read before ICP runs: a
//     candidate without feature consensus can pass only on a tight fit,
//     which converges at once, so it gets looseFitIterations instead of
//     the configured MaxIterations. On slam_circuit's 32 circuits that cap
//     takes verification from 26,700 ICP iterations at the full budget to
//     10,306 and changes no closure (Verify has the measurement).
//
// Everything is deterministic: signatures are fixed-order reductions,
// retrieval uses exact backends' parallelism-invariant results, and
// verification inherits the registration pipeline's bit-identity at any
// Parallelism. The detector records no telemetry of its own: the caller
// times Observe and Verify (internal/stream records them into the
// session's recorder).
package loop

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"tigris/internal/cloud"
	"tigris/internal/features"
	"tigris/internal/geom"
	"tigris/internal/registration"
	"tigris/internal/search"
)

// Config parameterizes a Detector. The zero value selects the
// documented defaults.
type Config struct {
	// Backend is the registry name of the search backend the signature
	// index is built with, at the backend's default options ("" = the
	// pipeline's default, twostage). Any registered backend works; the
	// index holds one 3D point per observed frame.
	Backend string
	// MinSeparation is the temporal gate: a frame only matches frames at
	// least this many indices older (default 15).
	MinSeparation int
	// MaxCandidates bounds how many gated signature neighbors are
	// proposed per frame, best signature distance first (default 2).
	MaxCandidates int
	// Cooldown suppresses proposals for this many frames after an
	// accepted closure, so one revisit does not spend a verification on
	// every frame along it (default MinSeparation/2).
	Cooldown int
}

func (c *Config) defaults() {
	if c.MinSeparation == 0 {
		c.MinSeparation = 15
	}
	if c.MaxCandidates == 0 {
		c.MaxCandidates = 2
	}
	if c.Cooldown == 0 {
		c.Cooldown = c.MinSeparation / 2
	}
}

// The verification gates. No deployment has needed other values, so they
// are not options.
const (
	// minInliers and minInlierRatio are the floors on RANSAC-consistent
	// correspondences, absolute and as a share of all correspondences.
	minInliers     = 12
	minInlierRatio = 0.5
	// maxRMSE rejects verifications whose final ICP RMSE (m) exceeds it.
	maxRMSE = 0.3
	// tightRMSE accepts a verification on ICP evidence alone: a fit this
	// tight is a confirmed revisit even when the sparse key-point features
	// yielded few RANSAC inliers, which happens routinely on low-beam
	// frames.
	tightRMSE = maxRMSE / 3
	// maxDeltaTranslation rejects verified transforms that move further
	// (m): a candidate is supposed to be a near-revisit, so a huge
	// relative motion means the registration locked onto the wrong
	// structure.
	maxDeltaTranslation = 10
	// looseFitIterations is ICP's budget for a candidate without feature
	// consensus (Verify): it must converge within it to a tightRMSE fit.
	// It is the slowest such closure slam_circuit's circuits accept at the
	// full budget (3 iterations) plus two.
	looseFitIterations = 5
)

// Candidate is a proposed loop pair awaiting verification: frame From
// (newer) may be a revisit of frame To (older).
type Candidate struct {
	From, To int
	// SigDist is the full-signature L2 distance that ranked the pair.
	SigDist float64
}

// Closure is a verified loop constraint: Delta registers frame From onto
// frame To, i.e. Pose[From] ≈ Pose[To] ∘ Delta — exactly the shape of a
// posegraph.Edge{I: To, J: From, Z: Delta}.
type Closure struct {
	From, To int
	Delta    geom.Transform
	// Inliers / Correspondences / RMSE are the verification evidence.
	Inliers, Correspondences int
	RMSE                     float64
	SigDist                  float64
}

// Stats counts a detector's work.
type Stats struct {
	// Observed frames, proposed candidates, verification attempts, and
	// accepted closures.
	Observed, Proposed, Verified, Accepted int64
	// ICPIterations sums the ICP iterations every verification ran.
	ICPIterations int64
}

// signature is one frame's place fingerprint.
type signature struct {
	index int
	// q is the quantized mean descriptor.
	q quantizedSignature
	// key is the 3D projection indexed by the search backend.
	key geom.Vec3
}

// dist returns the L2 distance between this signature's (dequantized)
// vector and the query's dequantized vector.
func (s *signature) dist(query []float64) float64 {
	var sum float64
	for i, v := range query {
		d := v - s.q.At(i)
		sum += d * d
	}
	return math.Sqrt(sum)
}

// quantizedSignature is a signature vector quantized to uint8 codes with
// a per-signature affine dequantization (value = Offset + Scale·code):
// 1 byte per dimension instead of 8, with the code range stretched over
// exactly this vector's [min, max]. A SLAM session retains one signature
// per observed frame forever, so the 8x shrink bounds the place
// recognition memory that grows without bound.
type quantizedSignature struct {
	Codes  []uint8
	Offset float64
	Scale  float64
}

// quantizeSignature quantizes v with a per-vector affine code.
func quantizeSignature(v []float64) quantizedSignature {
	q := quantizedSignature{Codes: make([]uint8, len(v))}
	if len(v) == 0 {
		return q
	}
	lo, hi := v[0], v[0]
	for _, x := range v[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	q.Offset = lo
	if hi > lo {
		q.Scale = (hi - lo) / 255
		inv := 255 / (hi - lo)
		for i, x := range v {
			// Round to nearest code; clamp against the float edge cases.
			c := int(math.Round((x - lo) * inv))
			if c < 0 {
				c = 0
			}
			if c > 255 {
				c = 255
			}
			q.Codes[i] = uint8(c)
		}
	}
	return q
}

// At dequantizes dimension i.
func (q quantizedSignature) At(i int) float64 {
	return q.Offset + q.Scale*float64(q.Codes[i])
}

// Dequantize materializes the dequantized vector.
func (q quantizedSignature) Dequantize() []float64 {
	out := make([]float64, len(q.Codes))
	for i := range out {
		out[i] = q.At(i)
	}
	return out
}

// Detector accumulates frame signatures and proposes/verifies loop
// candidates. Methods are safe for concurrent use (a pipelined streaming
// engine observes from its alignment stage while a separate worker
// verifies).
type Detector struct {
	cfg Config

	mu   sync.Mutex
	sigs []signature
	// frames holds what a verification aligns of each frame in the
	// signature index (PreparedFrame.Detach); entries are never written.
	frames map[int]*registration.PreparedFrame
	// searcher indexes sigs[i].key positionally; rebuilt lazily when
	// frames were added since the last proposal.
	searcher search.Searcher
	indexed  int
	lastHit  int // index of the last frame that produced an accepted closure
	stats    Stats
}

// Validate reports whether the configured signature backend exists,
// without constructing a detector — the boundary check (HTTP session
// creation, CLI flags) mirroring registration.SearcherConfig.Validate.
func (c Config) Validate() error {
	if _, err := search.NewByNameSlab(backendName(c), cloud.NewSlab(0), nil); err != nil {
		return fmt.Errorf("loop: %w", err)
	}
	return nil
}

// NewDetector validates the backend selection and returns an empty
// detector.
func NewDetector(cfg Config) (*Detector, error) {
	cfg.defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Detector{cfg: cfg, frames: make(map[int]*registration.PreparedFrame), lastHit: -1 << 30}, nil
}

// backendName resolves an empty Backend the way the pipeline does.
func backendName(cfg Config) string {
	return registration.SearcherConfig{Backend: cfg.Backend}.BackendName()
}

// frameSignature aggregates a descriptor matrix into the frame's
// fingerprint: the mean descriptor row (a fixed-order reduction, so the
// result is independent of any parallelism) and its 3D projection — the
// centroids of the vector's three equal bands, which for FPFH are the
// three Darboux-angle histograms.
func frameSignature(d *features.Descriptors) (mean []float64, key geom.Vec3) {
	if d == nil || d.Dim == 0 || d.Count() == 0 {
		return nil, geom.Vec3{}
	}
	dim := d.Dim
	mean = make([]float64, dim)
	for i := 0; i < d.Count(); i++ {
		row := d.Row(i)
		for j, v := range row {
			mean[j] += v
		}
	}
	inv := 1 / float64(d.Count())
	for j := range mean {
		mean[j] *= inv
	}
	third := dim / 3
	if third == 0 {
		third = 1
	}
	centroid := func(lo, hi int) float64 {
		if hi > dim {
			hi = dim
		}
		var mass, moment float64
		for j := lo; j < hi; j++ {
			mass += mean[j]
			moment += mean[j] * float64(j-lo)
		}
		if mass <= 0 {
			return 0
		}
		return moment / mass
	}
	key = geom.Vec3{
		X: centroid(0, third),
		Y: centroid(third, 2*third),
		Z: centroid(2*third, dim),
	}
	return mean, key
}

// Observe ingests frame index's front-end products: it computes the
// frame's signature from pf.Desc, retains what verification will align,
// and returns the loop candidates the signature index proposes (subject to
// the temporal gate and the cooldown). Frames must be observed in
// increasing index order.
//
// Ownership: the detector keeps pf.Detach() — a copy of the descriptors
// and, by reference, the key-point positions, the raw point arrays and
// (front-end on the raw cloud) its normals. The caller may go on to align
// pf as source or target and Release it, none of which writes those
// arrays (Release keeps them out of the pools); it must not move or
// re-estimate pf.Raw in place.
//
// Signatures are retained uint8-quantized (see quantizedSignature); the
// query side of every ranking is the freshly-computed mean passed
// through the same quantize/dequantize round trip, so both sides of a
// distance carry identical quantization treatment.
func (d *Detector) Observe(index int, pf *registration.PreparedFrame) []Candidate {
	mean, key := frameSignature(pf.Desc)
	var qsig quantizedSignature
	var queryVec []float64
	if mean != nil {
		qsig = quantizeSignature(mean)
		queryVec = qsig.Dequantize()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.Observed++

	var cands []Candidate
	gate := index - d.cfg.MinSeparation
	if mean != nil && index-d.lastHit > d.cfg.Cooldown {
		// The gated prefix of past signatures is eligible. Rebuild the
		// index only when it grew (one tiny build per frame at most; the
		// index holds one point per frame).
		n := 0
		for n < len(d.sigs) && d.sigs[n].index <= gate {
			n++
		}
		if n > 0 {
			if d.searcher == nil || d.indexed != n {
				keys := cloud.NewSlab(n)
				for i := 0; i < n; i++ {
					keys.SetPoint(i, d.sigs[i].key)
				}
				s, err := search.NewByNameSlab(backendName(d.cfg), keys, nil)
				if err != nil {
					// Validated at construction; an error here means the
					// backend stopped accepting its defaults mid-session.
					panic(fmt.Sprintf("loop: %v", err))
				}
				d.searcher = s
				d.indexed = n
			}
			for _, nb := range d.searcher.KNearest(key, d.cfg.MaxCandidates) {
				if nb.Index < 0 || nb.Index >= n {
					continue
				}
				sig := &d.sigs[nb.Index]
				cands = append(cands, Candidate{From: index, To: sig.index, SigDist: sig.dist(queryVec)})
			}
			// Most promising first: the 3D key ranked the retrieval, the
			// full-signature distance ranks the verification order (callers
			// typically stop at the first accepted closure).
			sort.Slice(cands, func(a, b int) bool {
				if cands[a].SigDist != cands[b].SigDist {
					return cands[a].SigDist < cands[b].SigDist
				}
				return cands[a].To < cands[b].To
			})
			d.stats.Proposed += int64(len(cands))
		}
	}

	if mean != nil {
		d.sigs = append(d.sigs, signature{index: index, q: qsig, key: key})
		// Retain only frames that entered the signature index: a
		// signature-less frame (no descriptors) can never be proposed as
		// either side of a closure, so keeping its points would only leak
		// one cloud per degenerate frame.
		d.frames[index] = pf.Detach()
	}
	return cands
}

// Verify aligns the candidate pair's retained front-ends (KPCE, rejection
// and the initial estimate, then ICP against one raw-cloud index over the
// older frame with its normals on demand) and accepts the closure only on
// strong geometric consensus; a candidate naming a frame that was not
// retained is declined. The newer frame is only read and the older one is
// aligned through a Detach of its own, so what the alignment builds lives
// for this verification alone (its release hands the raw-cloud index and
// the normals back) and concurrent verifications may share either frame.
//
// ICP's budget depends on the feature evidence, which is read before ICP
// runs (registration.EstimateInitial, then FineTune). A candidate with
// feature consensus fine-tunes under cfg as given, so its closure is
// registration.Align's bit for bit. One without can pass only on a fit
// tighter than tightRMSE, and gets looseFitIterations: such a fit
// converges at once, and a candidate still moving after that is declined.
// The budget was sized on every circuit slam_circuit draws (its 32 street
// seeds, 64 frames of 16×300 at 40 a lap, 1,225 verifications at DP7,
// whose MaxIterations is 40): uncapped, the 108 closures accepted without
// consensus converged in 2 iterations (106) or 3 (2). A capped ICP run is
// a prefix of the uncapped one, so a candidate that stops inside the cap
// is untouched and one that is cut is declined. At 5, every closure,
// odometry pose and optimized ATE is the uncapped run's, and verification
// ran 10,306 ICP iterations where the full budget ran 26,700.
//
// Candidates with consensus keep MaxIterations. The closures accepted
// with consensus on those circuits took up to 23 iterations (circuit 18,
// frame 60 onto 19) and every other one 13 or fewer, so a budget small
// enough to pay for the declined ones would sit within a couple of
// iterations of a real closure.
//
// cfg governs the pair stages only (KPCE, rejection, ICP, the fine-tuning
// index and its on-demand normals) — callers typically pass their pipeline
// config, possibly pinned to a worker share; exact backends make the
// outcome identical at any Parallelism. The front-end knobs (downsampling,
// key-points, descriptors, a raw-cloud front-end's normals) were fixed
// when each frame was prepared and are not read again.
func (d *Detector) Verify(cand Candidate, cfg registration.PipelineConfig) (Closure, bool) {
	d.mu.Lock()
	from, okFrom := d.frames[cand.From]
	to, okTo := d.frames[cand.To]
	if okFrom && okTo {
		d.stats.Verified++
	}
	d.mu.Unlock()
	if !okFrom || !okTo {
		return Closure{}, false
	}

	target := to.Detach()
	res := registration.EstimateInitial(from, target, cfg, geom.IdentityTransform())
	consensus := featureConsensus(res.Inliers, res.Correspondences)
	if !consensus {
		cfg = looseFit(cfg)
	}
	res = registration.FineTune(from, target, cfg, res)
	target.Release()

	cl := Closure{
		From:            cand.From,
		To:              cand.To,
		Delta:           res.Transform,
		Inliers:         res.Inliers,
		Correspondences: res.Correspondences,
		RMSE:            res.ICP.FinalRMSE,
		SigDist:         cand.SigDist,
	}
	ok := accepts(res, consensus)
	d.mu.Lock()
	d.stats.ICPIterations += int64(res.ICP.Iterations)
	if ok {
		if cand.From > d.lastHit {
			d.lastHit = cand.From
		}
		d.stats.Accepted++
	}
	d.mu.Unlock()
	return cl, ok
}

// featureConsensus reports whether the feature stage agrees broadly on a
// pair: some correspondences, at least minInliers of them RANSAC inliers,
// and at least minInlierRatio of them.
func featureConsensus(inliers, correspondences int) bool {
	return correspondences > 0 && inliers >= minInliers &&
		float64(inliers) >= minInlierRatio*float64(correspondences)
}

// looseFit is cfg with ICP capped at looseFitIterations (an ICP
// MaxIterations of 0 is registration's default of 30).
func looseFit(cfg registration.PipelineConfig) registration.PipelineConfig {
	if m := cfg.ICP.MaxIterations; m == 0 || m > looseFitIterations {
		cfg.ICP.MaxIterations = looseFitIterations
	}
	return cfg
}

// accepts applies the gates to a verification's alignment: ICP converged
// to a fit within maxRMSE and a motion within maxDeltaTranslation, and
// either the feature stage agrees or the fit is tight enough to stand on
// its own.
func accepts(res registration.Result, consensus bool) bool {
	if !res.ICP.Converged || res.ICP.FinalRMSE > maxRMSE {
		return false
	}
	if res.Transform.TranslationNorm() > maxDeltaTranslation {
		return false
	}
	return consensus || !(res.ICP.FinalRMSE > tightRMSE)
}

// Stats snapshots the work counters.
func (d *Detector) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}
