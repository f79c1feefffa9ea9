// Package registration implements the paper's configurable two-phase point
// cloud registration pipeline (Fig. 2): an initial-estimation front-end
// (normals → key-points → descriptors → KPCE → rejection → transform) and
// an ICP fine-tuning phase (RPCE → transform estimation, iterated to
// convergence), together with the KITTI-style accuracy metrics and the
// error-injection experiment harness of §4.2.
package registration

import (
	"math"
	"sort"

	"tigris/internal/features"
	"tigris/internal/geom"
	"tigris/internal/par"
)

// Correspondence pairs a source point index with a target point index.
type Correspondence struct {
	Source, Target int
	// Dist2 is the squared distance in whatever space the correspondence
	// was estimated (feature space for KPCE, 3D for RPCE).
	Dist2 float64
}

// corrSlabs recycles correspondence lists. KPCE emits one correspondence
// list and rejection one inlier list per pair, forever, in a streaming
// session; both are fully consumed inside Align, so a list is drawn at
// the bound its producer knows (source key-points; the list it filters)
// and handed back through recycleCorr.
var corrSlabs = par.NewSlicePool(Correspondence{Source: -1, Target: -1, Dist2: math.NaN()})

// recycleCorr returns the correspondence list and its rejected subset to
// the slab pool once Align has consumed both. The two may share a backing
// array (rejection falls back to the unfiltered set on degenerate data),
// in which case the storage is recycled once.
func recycleCorr(corr, inliers []Correspondence) {
	shared := cap(corr) > 0 && cap(inliers) > 0 && &corr[:1][0] == &inliers[:1][0]
	corrSlabs.Put(corr)
	if !shared {
		corrSlabs.Put(inliers)
	}
}

// KPCEConfig configures Key-Point Correspondence Estimation. The
// reciprocity knob is the Tbl. 1 parameter.
type KPCEConfig struct {
	// Reciprocal keeps only pairs that are mutually nearest in feature
	// space.
	Reciprocal bool
}

// kpceScratch is one KPCE call's query-row staging (the row views handed
// to the batched feature trees). References to descriptor rows are
// cleared before the scratch goes idle so a parked scratch cannot pin
// retired descriptor slabs.
type kpceScratch struct {
	rows, backRows [][]float64
	cand           []int
}

// idleKPCEScratch holds the scratches no KPCE call is using.
var idleKPCEScratch par.FreeList[*kpceScratch]

func (sc *kpceScratch) release() {
	clear(sc.rows)
	clear(sc.backRows)
	idleKPCEScratch.Put(sc)
}

// kpceMatch is the KPCE kernel (paper Fig. 2): forward (and optionally
// backward) feature-space NN matching of source key-point descriptors to
// target ones through batched feature-tree queries. Returned indices are
// positions in the key-point lists, not raw cloud indices. The
// trees are returned so callers can roll their build/search times into
// the pipeline's KD-tree accounting. The correspondence list is assembled
// in source order, bit-identical to per-query sequential matching; it
// is drawn from corrSlabs (see recycleCorr). The batches run on up to
// workers workers (par.Workers).
func kpceMatch(src, dst *features.Descriptors, cfg KPCEConfig, workers int) ([]Correspondence, *features.FeatureTree, *features.FeatureTree) {
	if src.Count() == 0 || dst.Count() == 0 {
		return nil, nil, nil
	}
	dstTree := features.NewFeatureTree(dst)
	var srcTree *features.FeatureTree
	if cfg.Reciprocal {
		srcTree = features.NewFeatureTree(src)
	}
	n := src.Count()
	sc, ok := idleKPCEScratch.Get()
	if !ok {
		sc = new(kpceScratch)
	}
	defer sc.release()
	if cap(sc.rows) < n {
		sc.rows = make([][]float64, n)
	}
	rows := sc.rows[:n]
	for i := range rows {
		rows[i] = src.Row(i)
	}
	matches := dstTree.NearestBatch(rows, workers)

	var backs []features.FeatureMatch
	if cfg.Reciprocal {
		// Back-query only the rows whose forward query matched — the same
		// queries the sequential loop issued. (A forward miss is possible
		// despite dst being non-empty, e.g. a NaN descriptor row.)
		cand := sc.cand[:0]
		for i, m := range matches {
			if m.Row >= 0 {
				cand = append(cand, i)
			}
		}
		sc.cand = cand
		if cap(sc.backRows) < len(cand) {
			sc.backRows = make([][]float64, len(cand))
		}
		backRows := sc.backRows[:len(cand)]
		for ci, i := range cand {
			backRows[ci] = dst.Row(matches[i].Row)
		}
		backs = srcTree.NearestBatch(backRows, workers)
	}

	out := corrSlabs.Get(n)[:0]
	ci := 0
	for i, m := range matches {
		if m.Row < 0 {
			continue
		}
		if cfg.Reciprocal {
			back := backs[ci]
			ci++
			if back.Row != i {
				continue
			}
		}
		out = append(out, Correspondence{Source: i, Target: m.Row, Dist2: m.Dist2})
	}
	// Both match batches are fully consumed; their slabs go back to the
	// feature-tree pool for the next pair.
	features.RecycleMatches(matches)
	if backs != nil {
		features.RecycleMatches(backs)
	}
	return out, dstTree, srcTree
}

// RejectionMethod selects the correspondence rejection algorithm (Tbl. 1).
type RejectionMethod int

const (
	// RejectThreshold drops correspondences whose feature distance exceeds
	// a multiple of the median distance.
	RejectThreshold RejectionMethod = iota
	// RejectRANSAC keeps the largest consensus set under a rigid-transform
	// hypothesis (Fischler & Bolles [19]).
	RejectRANSAC
)

// String implements fmt.Stringer.
func (m RejectionMethod) String() string {
	switch m {
	case RejectThreshold:
		return "Threshold"
	case RejectRANSAC:
		return "RANSAC"
	default:
		return "UnknownRejection"
	}
}

// RejectionConfig parameterizes correspondence rejection.
type RejectionConfig struct {
	Method RejectionMethod
	// RANSACInlierDist is the 3D inlier distance in meters (default 0.5).
	RANSACInlierDist float64
	// Seed makes RANSAC deterministic.
	Seed int64
}

const (
	// distanceRatio is RejectThreshold's cut: keep pairs with feature
	// distance below distanceRatio × median.
	distanceRatio = 2.0
	// ransacIterations is the number of 3-point hypotheses RANSAC draws.
	ransacIterations = 400
)

func (c *RejectionConfig) defaults() {
	if c.RANSACInlierDist == 0 {
		c.RANSACInlierDist = 0.5
	}
}

// rejectCorrespondences filters the key-point correspondences. srcPts and
// dstPts are the 3D key-point positions aligned with the descriptor rows.
// RANSAC scores its hypotheses on up to workers workers (par.Workers; 1
// forces the sequential path). Results are bit-identical at any width:
// samples are drawn sequentially from the deterministic PCG before
// scoring fans out, and the best consensus is reduced with a
// deterministic tie-break.
func rejectCorrespondences(corr []Correspondence, srcPts, dstPts []geom.Vec3, cfg RejectionConfig, workers int) []Correspondence {
	cfg.defaults()
	if len(corr) == 0 {
		return nil
	}
	switch cfg.Method {
	case RejectRANSAC:
		return ransacReject(corr, srcPts, dstPts, cfg, workers)
	default:
		return thresholdReject(corr)
	}
}

// thresholdReject keeps correspondences whose feature distance is below
// distanceRatio × median feature distance.
func thresholdReject(corr []Correspondence) []Correspondence {
	ds := make([]float64, len(corr))
	for i, c := range corr {
		ds[i] = c.Dist2
	}
	sort.Float64s(ds)
	median := ds[len(ds)/2]
	limit := median * distanceRatio * distanceRatio // distances are squared
	out := corrSlabs.Get(len(corr))[:0]
	for _, c := range corr {
		if c.Dist2 <= limit {
			out = append(out, c)
		}
	}
	return out
}

// ransacScratch holds one rejection call's pre-drawn hypothesis samples,
// recycled so steady-state RANSAC allocates nothing proportional to its
// hypotheses.
type ransacScratch struct {
	triples [][3]int32
}

// idleRANSACScratch holds the scratches no rejection call is using.
var idleRANSACScratch par.FreeList[*ransacScratch]

// hypoScore is one worker's running best consensus. count is stored +1 so
// the zero value means "no hypothesis scored yet" (a real hypothesis can
// have consensus 0 on degenerate data).
type hypoScore struct {
	countPlus1 int
	hyp        int
}

// better reports whether (count, hyp) beats s under the deterministic
// reduction order: larger consensus wins, ties go to the lower hypothesis
// index — exactly the first-best-wins rule of the sequential loop.
func (s *hypoScore) better(countPlus1, hyp int) bool {
	return countPlus1 > s.countPlus1 || (countPlus1 == s.countPlus1 && hyp < s.hyp)
}

// ransacReject runs RANSAC over 3-point rigid-transform hypotheses and
// returns the inliers of the best hypothesis (drawn from corrSlabs; see
// recycleCorr).
//
// The hypothesis loop is parallel (the paper-adjacent ROADMAP item): all
// ransacIterations 3-point samples are drawn sequentially from the
// deterministic PCG first — so the random stream never depends on the
// schedule — then hypotheses are estimated and scored on the worker pool,
// each worker reducing its own best consensus, and the per-worker bests
// are merged with the (count, lowest-hypothesis-index) tie-break. The
// selected hypothesis, and therefore the returned inlier set, is
// bit-identical to the sequential loop at any width.
func ransacReject(corr []Correspondence, srcPts, dstPts []geom.Vec3, cfg RejectionConfig, workers int) []Correspondence {
	if len(corr) < 3 {
		return corr
	}
	rng := newPCG(uint64(cfg.Seed)*6364136223846793005 + 1442695040888963407)
	inlierD2 := cfg.RANSACInlierDist * cfg.RANSACInlierDist
	const iters = ransacIterations

	// Phase 1: draw every hypothesis' 3 correspondence indices up front.
	// Degenerate draws (repeated indices) burn their PCG outputs exactly
	// like the sequential loop did and are marked invalid.
	sc, ok := idleRANSACScratch.Get()
	if !ok {
		sc = new(ransacScratch)
	}
	defer idleRANSACScratch.Put(sc)
	if cap(sc.triples) < iters {
		sc.triples = make([][3]int32, iters)
	}
	triples := sc.triples[:iters]
	for h := range triples {
		i0 := int32(rng.next() % uint64(len(corr)))
		i1 := int32(rng.next() % uint64(len(corr)))
		i2 := int32(rng.next() % uint64(len(corr)))
		if i0 == i1 || i1 == i2 || i0 == i2 {
			triples[h] = [3]int32{-1, -1, -1}
			continue
		}
		triples[h] = [3]int32{i0, i1, i2}
	}

	// Phase 2: estimate and score hypotheses on the worker pool.
	score := func(h int) (int, bool) {
		t3 := triples[h]
		if t3[0] < 0 {
			return 0, false
		}
		tr, ok := estimateFromTriple(t3, corr, srcPts, dstPts)
		if !ok {
			return 0, false
		}
		count := 0
		for _, c := range corr {
			if tr.Apply(srcPts[c.Source]).Dist2(dstPts[c.Target]) <= inlierD2 {
				count++
			}
		}
		return count, true
	}
	var best hypoScore
	par.Sharded(iters, par.Workers(workers),
		func(shard *hypoScore, _, h int) {
			if count, ok := score(h); ok && shard.better(count+1, h) {
				*shard = hypoScore{countPlus1: count + 1, hyp: h}
			}
		},
		func(shard *hypoScore) {
			if shard.countPlus1 > 0 && best.better(shard.countPlus1, shard.hyp) {
				best = *shard
			}
		})

	// Phase 3: re-estimate the winning hypothesis and collect its inliers
	// in correspondence order.
	if best.countPlus1 == 0 {
		return corr // no valid hypothesis: keep the unfiltered set
	}
	tr, _ := estimateFromTriple(triples[best.hyp], corr, srcPts, dstPts)
	inliers := corrSlabs.Get(len(corr))[:0]
	for _, c := range corr {
		if tr.Apply(srcPts[c.Source]).Dist2(dstPts[c.Target]) <= inlierD2 {
			inliers = append(inliers, c)
		}
	}
	if len(inliers) < 3 {
		// Degenerate data: fall back to the unfiltered set rather than
		// returning an unusable correspondence list.
		corrSlabs.Put(inliers)
		return corr
	}
	return inliers
}

// estimateFromTriple estimates the rigid transform of one 3-sample
// hypothesis without allocating. It calls the sequential accumulation
// kernel directly — the same kernel estimateRigidTransform dispatches 3
// points to — because routing through the Par wrapper would mark the
// sample arrays as escaping (its chunked branch captures the slices in
// goroutine closures) and heap-allocate every hypothesis.
func estimateFromTriple(t3 [3]int32, corr []Correspondence, srcPts, dstPts []geom.Vec3) (geom.Transform, bool) {
	var src, dst [3]geom.Vec3
	for j, ci := range t3 {
		c := corr[ci]
		src[j] = srcPts[c.Source]
		dst[j] = dstPts[c.Target]
	}
	return estimateRigidSeq(src[:], dst[:])
}

// estimateFromCorr estimates the rigid transform aligning the source side
// of the correspondences onto the target side (Umeyama, see transform.go).
func estimateFromCorr(corr []Correspondence, srcPts, dstPts []geom.Vec3) (geom.Transform, bool) {
	src := make([]geom.Vec3, len(corr))
	dst := make([]geom.Vec3, len(corr))
	for i, c := range corr {
		src[i] = srcPts[c.Source]
		dst[i] = dstPts[c.Target]
	}
	return estimateRigidTransform(src, dst)
}

// pcg is a tiny PCG-XSH-RR deterministic PRNG for RANSAC sampling.
type pcg struct {
	state uint64
}

func newPCG(seed uint64) *pcg { return &pcg{state: seed | 1} }

func (p *pcg) next() uint64 {
	p.state = p.state*6364136223846793005 + 1442695040888963407
	x := p.state
	count := x >> 59
	x ^= x >> 18
	x = (x >> 27) & 0xffffffff
	return (x >> count) | (x << ((32 - count) & 31))
}
