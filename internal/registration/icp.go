package registration

import (
	"time"

	"tigris/internal/cloud"
	"tigris/internal/geom"
	"tigris/internal/kdtree"
	"tigris/internal/par"
	"tigris/internal/search"
	"tigris/internal/twostage"
)

// ICPConfig parameterizes the fine-tuning phase (paper Fig. 2, right):
// Raw-Point Correspondence Estimation alternating with transformation
// estimation until convergence. The convergence criteria are the Tbl. 1
// knobs the paper highlights as impacting both accuracy and compute time;
// the ones no design point varies are constants (maxCorrespondenceDist,
// transformEpsilon). RPCE has no reciprocal gate: Tbl. 1 lists one, and
// no design point turns it on.
type ICPConfig struct {
	// Metric selects point-to-point (SVD) or point-to-plane (LM).
	Metric ErrorMetric
	// MaxIterations bounds ICP iterations (default 30).
	MaxIterations int
	// EuclideanFitnessEpsilon stops when the RMSE improvement between
	// iterations falls below it (default 1e-5).
	EuclideanFitnessEpsilon float64
	// SourceStride subsamples source points during RPCE (1 = use all; the
	// performance-oriented design points use larger strides).
	SourceStride int
}

const (
	// maxCorrespondenceDist drops pairs farther than this during RPCE, in
	// meters.
	maxCorrespondenceDist = 2.0
	// transformEpsilon stops ICP when an iteration's incremental
	// translation (m) and rotation (rad) both fall below it.
	transformEpsilon = 1e-4
)

func (c *ICPConfig) defaults() {
	if c.MaxIterations == 0 {
		c.MaxIterations = 30
	}
	if c.EuclideanFitnessEpsilon == 0 {
		c.EuclideanFitnessEpsilon = 1e-5
	}
	if c.SourceStride == 0 {
		c.SourceStride = 1
	}
}

// ICPResult reports the fine-tuning outcome.
type ICPResult struct {
	// Transform maps source-frame points into the target frame, including
	// the initial guess.
	Transform geom.Transform
	// Iterations actually executed.
	Iterations int
	// FinalRMSE is the last iteration's correspondence RMSE.
	FinalRMSE float64
	// Converged is false when MaxIterations was exhausted.
	Converged bool
	// RPCETime is the wall time spent in correspondence search.
	RPCETime time.Duration
	// SolveTime is the wall time spent in transform estimation.
	SolveTime time.Duration
	// NormalTime is the wall time spent estimating target normals on
	// demand (Align's path only; kept out of RPCETime so that stays the
	// cost of the correspondence search alone).
	NormalTime time.Duration
}

// icpScratch holds every buffer one ICP call cycles through its
// iterations: the strided query set with each query's NN certificate and
// the distance it has moved since (search.BatchNearestTracked), the
// nearest-neighbor results, the list of matched targets still lacking a
// normal, and the gated correspondence slabs. Recycled across calls so a
// streaming session's fine-tuning runs with near-zero steady-state
// allocations. The
// correspondence pairs live in SoA float32 slabs (srcS/dstS) — half the
// bytes of the historical AoS gather — and every downstream reduction
// dequantizes to float64 (see transform_slab.go).
type icpScratch struct {
	qIdx  []int
	qs    []geom.Vec3
	certs []twostage.Cert
	moved []float64
	nbs   []kdtree.Neighbor
	candQ []int
	need  []int
	srcS  cloud.Slab
	dstS  cloud.Slab
}

// idleICPScratch holds the scratches no ICP call is using.
var idleICPScratch par.FreeList[*icpScratch]

// ICP runs iterative closest point from the initial guess. target is the
// searcher indexing the target cloud. With the point-to-plane metric its
// slab must already carry a normal for every point — ICP reads whichever
// ones the matches name and estimates none — and a slab without normal
// arrays is a caller bug that panics; the metric is never quietly
// downgraded to point-to-point. (Align's targets are the exception: their
// raw-cloud normals arrive on demand, see PreparedFrame.FineTarget, which
// is why Align does not come through this entry point.) Each iteration's
// RPCE runs as one tracked NearestBatch against the target, so the
// dominant per-iteration cost parallelizes across the searcher's worker
// pool while the correspondence list keeps its sequential order; the
// per-point error accumulation inside transform estimation and the
// convergence RMSE fan out over the same width (target.Parallelism) with
// bit-identical results at any width (fixed-chunk deterministic
// reductions, see transform.go).
func ICP(src *cloud.Slab, target search.Searcher, initial geom.Transform, cfg ICPConfig) ICPResult {
	return icp(src, target, initial, cfg, nil)
}

// icp is ICP with an optional source of target normals: when fine is
// non-nil, every iteration hands it the matches that survived the gates
// before any of their normals is read, and fine estimates the ones it
// has not estimated yet (point-to-plane only; fine is nil otherwise).
func icp(src *cloud.Slab, target search.Searcher, initial geom.Transform, cfg ICPConfig, fine *fineNormals) ICPResult {
	cfg.defaults()
	res := ICPResult{Transform: initial}
	tslab := target.Slab()
	workers := target.Parallelism()

	sc, ok := idleICPScratch.Get()
	if !ok {
		sc = new(icpScratch)
	}
	defer idleICPScratch.Put(sc)

	// RPCE matches the strided subset of the source; the index set is
	// fixed across iterations and the query positions move with every
	// delta. Only the positions matter, so they are carried as bare
	// float64 points (the accumulated transforms would drift if
	// re-quantized every iteration).
	qIdx := sc.qIdx[:0]
	for i := 0; i < src.Len(); i += cfg.SourceStride {
		qIdx = append(qIdx, i)
	}
	sc.qIdx = qIdx
	if cap(sc.qs) < len(qIdx) {
		sc.qs = make([]geom.Vec3, len(qIdx))
	}
	qs := sc.qs[:len(qIdx)]
	for qi, i := range qIdx {
		qs[qi] = src.At(i)
	}
	moveAll(initial, qs, nil)
	// Every query starts uncertified, so iteration 0 walks them all; a
	// certificate never outlives this call.
	if cap(sc.certs) < len(qs) {
		sc.certs, sc.moved = make([]twostage.Cert, len(qs)), make([]float64, len(qs))
	}
	certs, moved := sc.certs[:len(qs)], sc.moved[:len(qs)]
	clear(certs)
	clear(moved)

	usePlane := cfg.Metric == PointToPlane
	if usePlane && !tslab.HasNormals() {
		panic("registration: point-to-plane ICP over a target slab without normals")
	}

	prevRMSE := -1.0
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		res.Iterations = iter + 1

		// RPCE: for every point in the (moved) source cloud, find its
		// nearest neighbor in the target (paper Fig. 2). A query has moved
		// a few millimetres since the last iteration, so on the two-stage
		// tree most are answered from the leaf set their certificate names
		// without a walk; the answers are those of a walk, bit for bit.
		start := time.Now()
		const maxD2 = maxCorrespondenceDist * maxCorrespondenceDist
		nbs := search.BatchNearestTracked(target, qs, certs, moved, sc.nbs[:0])
		sc.nbs = nbs

		// Candidates that pass the distance gate, in query order.
		candQ := sc.candQ[:0]
		for qi := range qIdx {
			if nbs[qi].Index >= 0 && nbs[qi].Dist2 <= maxD2 {
				candQ = append(candQ, qi)
			}
		}
		sc.candQ = candQ
		// The matches are settled; those whose normal no iteration and no
		// earlier pair has read before get it now, ahead of the gather.
		if fine != nil {
			t0 := time.Now()
			if cap(sc.need) < len(candQ) {
				sc.need = make([]int, 0, len(qIdx))
			}
			sc.need = fine.estimateMissing(nbs, candQ, sc.need[:0])
			d := time.Since(t0)
			res.NormalTime += d
			start = start.Add(d) // keep it out of RPCETime
		}
		// Gather surviving correspondences into the SoA scratch slabs the
		// solvers stream: moved source positions quantize to float32 here
		// (the slab layout's one-time precision step), target positions are
		// already float32-exact.
		srcS, dstS := &sc.srcS, &sc.dstS
		srcS.Reset()
		dstS.Reset()
		if usePlane {
			dstS.EnsureNormals()
		}
		for _, qi := range candQ {
			ti := nbs[qi].Index
			srcS.Append(qs[qi])
			dstS.Append(tslab.At(ti))
			if usePlane {
				dstS.AppendNormal(tslab.NormalAt(ti))
			}
		}
		res.RPCETime += time.Since(start)
		if srcS.Len() < 6 {
			return res // too little overlap to continue
		}

		// Transformation estimation (paper Fig. 2, "Error Minimization").
		start = time.Now()
		var delta geom.Transform
		var ok bool
		if usePlane {
			delta, ok = estimatePointToPlaneSlabPar(srcS, dstS, workers)
		} else {
			delta, ok = estimateRigidTransformSlabPar(srcS, dstS, workers)
		}
		res.SolveTime += time.Since(start)
		if !ok {
			return res
		}

		res.Transform = delta.Compose(res.Transform)
		moveAll(delta, qs, moved)

		rmse := alignmentRMSESlabPar(delta, srcS, dstS, workers)
		res.FinalRMSE = rmse

		// Convergence criteria (Tbl. 1): small incremental motion or small
		// fitness improvement.
		if delta.TranslationNorm() < transformEpsilon && delta.RotationAngle() < transformEpsilon {
			res.Converged = true
			return res
		}
		if prevRMSE >= 0 && prevRMSE-rmse < cfg.EuclideanFitnessEpsilon && rmse <= prevRMSE {
			res.Converged = true
			return res
		}
		prevRMSE = rmse
	}
	return res
}
