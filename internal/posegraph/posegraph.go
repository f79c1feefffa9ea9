// Package posegraph turns the pipeline's pairwise registrations into a
// globally consistent trajectory: the SLAM back-end on top of the
// paper's front-end. Nodes are absolute SE(3) poses, edges are relative
// pose measurements — the odometry deltas a streaming session
// accumulates plus the loop-closure constraints internal/loop verifies —
// and Optimize runs damped Gauss–Newton (Levenberg–Marquardt) over the
// node poses so the loop edges pull the drifted odometry chain back onto
// itself.
//
// # Determinism
//
// The optimizer is bit-identical across runs and across any Parallelism
// setting: per-edge residuals and Jacobians are computed in parallel but
// written positionally into per-edge slots, and the normal equations are
// accumulated from those slots serially in edge order. Combined with the
// exact search backends' parallelism-invariance, this makes the whole
// SLAM stack — odometry, loop closure, optimization — reproducible at
// any worker count, which the stream-layer tests assert end to end.
//
// The solve is dense (internal/linalg.SolveDense on the 6(N−1) normal
// equations), which is exact and plenty for sessions up to a few hundred
// frames; a sparse/Schur solver is the scaling follow-up.
package posegraph

import (
	"errors"
	"fmt"
	"math"
	"time"

	"tigris/internal/geom"
	"tigris/internal/linalg"
	"tigris/internal/par"
)

// Edge is one relative-pose constraint between nodes I and J (I < J for
// odometry, I ≠ J generally): the measurement Z predicts
// X_I⁻¹ ∘ X_J = Z. An odometry step Delta registering frame J onto frame
// I (Pose[J] = Pose[I] ∘ Delta) is exactly Z = Delta, and so is a
// verified loop closure's transform.
type Edge struct {
	I, J int
	Z    geom.Transform
	// TransWeight / RotWeight scale the translational (m) and rotational
	// (rad) residual components; zero values select 1. Loop edges are
	// typically weighted above odometry edges (one accurate global
	// constraint against many locally consistent drifting ones).
	TransWeight float64
	RotWeight   float64
	// Robust applies Huber down-weighting to this edge, so one bad loop
	// closure cannot drag the whole trajectory (odometry edges are
	// normally left quadratic).
	Robust bool
}

// Graph is a pose graph under construction: initial node poses plus the
// edge list. The zero node is the gauge anchor and is never moved.
type Graph struct {
	// Poses are the initial absolute node poses (e.g. the odometry
	// chain). Optimize does not modify them.
	Poses []geom.Transform
	// Edges are the relative-pose constraints, in insertion order (the
	// optimizer's accumulation order — keep it deterministic).
	Edges []Edge
}

// NewGraph starts a graph from initial absolute poses (copied).
func NewGraph(poses []geom.Transform) *Graph {
	return &Graph{Poses: append([]geom.Transform(nil), poses...)}
}

// AddEdge appends a constraint X_I⁻¹ ∘ X_J = Z.
func (g *Graph) AddEdge(e Edge) {
	g.Edges = append(g.Edges, e)
}

// AddOdometry appends the chain edges of consecutive-frame deltas:
// deltas[k] registers frame k+1 onto frame k.
func (g *Graph) AddOdometry(deltas []geom.Transform) {
	for k, d := range deltas {
		g.AddEdge(Edge{I: k, J: k + 1, Z: d})
	}
}

// FromOdometry builds a graph whose initial poses are the composed
// odometry chain starting at origin, with one odometry edge per step.
func FromOdometry(origin geom.Transform, deltas []geom.Transform) *Graph {
	poses := make([]geom.Transform, len(deltas)+1)
	poses[0] = origin
	for k, d := range deltas {
		poses[k+1] = poses[k].Compose(d)
	}
	g := NewGraph(poses)
	g.AddOdometry(deltas)
	return g
}

// Options configures Optimize. Zero values select the documented
// defaults.
type Options struct {
	// Parallelism is the per-edge linearization worker count (<= 0
	// selects par.Slots, 1 forces the sequential path). Results are
	// bit-identical at any setting.
	Parallelism int
}

const (
	// maxIterations bounds outer LM iterations.
	maxIterations = 30
	// initialLambda is the starting LM damping.
	initialLambda = 1e-4
	// costTol stops the run when the relative cost improvement of an
	// accepted step falls below it.
	costTol = 1e-9
	// huberDelta is the robust-kernel threshold on a Robust edge's
	// weighted residual norm.
	huberDelta = 1.0
)

// Result reports an optimization run.
type Result struct {
	// InitialCost / FinalCost are 0.5·Σ‖r‖² before and after.
	InitialCost, FinalCost float64
	// Iterations counts outer LM iterations executed.
	Iterations int
	// Converged is true when the run stopped on the cost tolerance or a zero
	// gradient. It is false when the iteration cap ran out AND when the
	// damping loop stalled (no cost-improving step at any damping level
	// — an ill-conditioned graph), so callers can tell an optimized
	// trajectory from an untouched one.
	Converged bool
	// SolveTime is the optimization's wall time — the solve is a heavy
	// stage like any pipeline stage, so services record it through the
	// same latency histograms (the obs.StagePoseGraph series).
	SolveTime time.Duration
}

// ErrGraph is returned for structurally invalid graphs.
var ErrGraph = errors.New("posegraph: invalid graph")

// residualDim is the per-edge residual size: 3 rotation + 3 translation.
const residualDim = 6

// jacStep is the central-difference step for the per-edge Jacobians. The
// state is a local perturbation around zero every iteration, so a fixed
// step is well-scaled.
const jacStep = 1e-6

// Optimize runs damped Gauss–Newton over all node poses but the first
// and returns the optimized poses (g is not modified). Every edge
// contributes the SE(3) residual r = [wr·Log(R_err), wt·T_err] of
// E = Z⁻¹ ∘ (X_I⁻¹ ∘ X_J), optionally Huber-weighted; the normal
// equations are assembled in edge order from positionally stored
// per-edge blocks, so the result is bit-identical at any Parallelism.
func (g *Graph) Optimize(opts Options) ([]geom.Transform, Result, error) {
	n := len(g.Poses)
	var res Result
	if n == 0 {
		return nil, res, fmt.Errorf("%w: no nodes", ErrGraph)
	}
	for _, e := range g.Edges {
		if e.I < 0 || e.I >= n || e.J < 0 || e.J >= n || e.I == e.J {
			return nil, res, fmt.Errorf("%w: edge %d-%d outside %d nodes", ErrGraph, e.I, e.J, n)
		}
	}
	solveStart := time.Now()
	poses := append([]geom.Transform(nil), g.Poses...)
	if n == 1 || len(g.Edges) == 0 {
		return poses, Result{Converged: true, SolveTime: time.Since(solveStart)}, nil
	}

	ne := len(g.Edges)
	workers := par.Workers(opts.Parallelism)
	dim := 6 * (n - 1) // node 0 is the gauge anchor

	// Per-edge slots, written positionally by the parallel linearization
	// and folded serially in edge order.
	resids := make([][residualDim]float64, ne)
	jacs := make([][residualDim * 12]float64, ne) // d r / d [δI, δJ]
	trialResids := make([][residualDim]float64, ne)
	scales := make([]float64, ne)
	scaled := make([][residualDim]float64, ne)

	h := make([]float64, dim*dim)
	b := make([]float64, dim)
	damped := make([]float64, dim*dim) // H + λ·diag(H), eliminated in place by each attempt
	trial := make([]geom.Transform, n)
	delta := make([]float64, dim) // b, solved in place into the step

	g.evalResiduals(poses, resids, workers)
	lambda := initialLambda
	var cost float64

	for iter := 0; iter < maxIterations; iter++ {
		res.Iterations = iter + 1
		// IRLS: freeze each robust edge's Huber weight at this iteration's
		// linearization point — re-deriving it inside the perturbed
		// residuals would flatten the gradient exactly where the kernel is
		// active and stall the descent.
		g.huberScales(resids, scales, huberDelta)
		cost = scaledCost(resids, scales)
		if iter == 0 {
			res.InitialCost = cost
			res.FinalCost = cost
		}
		g.linearize(poses, scales, jacs, workers)

		// Assemble H = ΣJᵀJ, b = −ΣJᵀr serially in edge order.
		for i := range h {
			h[i] = 0
		}
		for i := range b {
			b[i] = 0
		}
		for ei := range g.Edges {
			for k := 0; k < residualDim; k++ {
				scaled[ei][k] = scales[ei] * resids[ei][k]
			}
			g.accumulate(ei, &scaled[ei], &jacs[ei], h, b, n)
		}

		maxGrad := 0.0
		for _, v := range b {
			if a := math.Abs(v); a > maxGrad {
				maxGrad = a
			}
		}
		if maxGrad < 1e-12 {
			res.Converged = true
			break
		}

		improved := false
		for attempt := 0; attempt < 12; attempt++ {
			// Damped copy: H + λ·diag(H) (Marquardt scaling).
			copy(damped, h)
			for i := 0; i < dim; i++ {
				d := h[i*dim+i]
				if d == 0 {
					d = 1
				}
				damped[i*dim+i] += lambda * d
			}
			copy(delta, b)
			if err := linalg.SolveDense(damped, delta); err != nil {
				lambda *= 10
				continue
			}
			applyDelta(poses, delta, trial)
			g.evalResiduals(trial, trialResids, workers)
			trialCost := scaledCost(trialResids, scales)
			if trialCost < cost {
				copy(poses, trial)
				for ei := range trialResids {
					resids[ei] = trialResids[ei]
				}
				if cost-trialCost <= costTol*(1+cost) {
					res.Converged = true
				}
				cost = trialCost
				lambda = math.Max(lambda*0.3, 1e-12)
				improved = true
				break
			}
			lambda *= 10
			if lambda > 1e14 {
				break
			}
		}
		res.FinalCost = cost
		if !improved {
			// Stalled: no damping level produced an improving step. After
			// real progress that is the numeric floor of a local minimum —
			// terminal convergence; stalling with the initial cost
			// untouched means the solve failed, and is reported as such
			// (a consistent graph never lands here: its zero gradient
			// converges above before any step is attempted).
			res.Converged = cost < res.InitialCost
			break
		}
		if res.Converged {
			break
		}
	}
	res.FinalCost = cost
	res.SolveTime = time.Since(solveStart)
	return poses, res, nil
}

// evalResiduals fills the per-edge raw (weighted, un-robustified)
// residual slots for the given poses, positionally on the worker pool.
func (g *Graph) evalResiduals(poses []geom.Transform, out [][residualDim]float64, workers int) {
	par.For(len(g.Edges), workers, func(_, ei int) {
		e := &g.Edges[ei]
		edgeResidual(e, poses[e.I], poses[e.J], &out[ei])
	})
}

// huberScales derives each edge's frozen IRLS scale from its current
// residual: 1 for quadratic edges, sqrt(δ/‖r‖) where the Huber kernel is
// active on Robust edges.
func (g *Graph) huberScales(resids [][residualDim]float64, scales []float64, huber float64) {
	for ei := range g.Edges {
		scales[ei] = 1
		if !g.Edges[ei].Robust || huber <= 0 {
			continue
		}
		var s2 float64
		for _, v := range resids[ei] {
			s2 += v * v
		}
		if s := math.Sqrt(s2); s > huber {
			scales[ei] = math.Sqrt(huber / s)
		}
	}
}

// scaledCost is 0.5·Σ‖scale·r‖², summed serially in edge order.
func scaledCost(resids [][residualDim]float64, scales []float64) float64 {
	var cost float64
	for ei := range resids {
		s2 := scales[ei] * scales[ei]
		for _, v := range resids[ei] {
			cost += s2 * v * v
		}
	}
	return 0.5 * cost
}

// linearize fills the per-edge Jacobian slots by central differences on
// the 12 local perturbation parameters of each edge's two nodes, with
// the edge's frozen robust scale folded in.
func (g *Graph) linearize(poses []geom.Transform, scales []float64, jacs [][residualDim * 12]float64, workers int) {
	par.For(len(g.Edges), workers, func(_, ei int) {
		e := &g.Edges[ei]
		var plus, minus [residualDim]float64
		for p := 0; p < 12; p++ {
			xi, xj := poses[e.I], poses[e.J]
			if p < 6 {
				xi = perturb(xi, p, jacStep)
			} else {
				xj = perturb(xj, p-6, jacStep)
			}
			edgeResidual(e, xi, xj, &plus)
			xi, xj = poses[e.I], poses[e.J]
			if p < 6 {
				xi = perturb(xi, p, -jacStep)
			} else {
				xj = perturb(xj, p-6, -jacStep)
			}
			edgeResidual(e, xi, xj, &minus)
			inv := scales[ei] / (2 * jacStep)
			for r := 0; r < residualDim; r++ {
				jacs[ei][r*12+p] = (plus[r] - minus[r]) * inv
			}
		}
	})
}

// perturb applies the p-th local perturbation of size eps to a pose:
// p 0–2 translate along the axes, p 3–5 left-multiply an axis rotation.
func perturb(x geom.Transform, p int, eps float64) geom.Transform {
	switch p {
	case 0:
		x.T.X += eps
	case 1:
		x.T.Y += eps
	case 2:
		x.T.Z += eps
	default:
		var w geom.Vec3
		switch p {
		case 3:
			w.X = eps
		case 4:
			w.Y = eps
		default:
			w.Z = eps
		}
		x.R = geom.ExpRotation(w).Mul(x.R)
	}
	return x
}

// edgeResidual writes the weighted 6-dim residual of edge e at node
// poses xi, xj (robust scaling is applied by the caller per IRLS
// iteration).
func edgeResidual(e *Edge, xi, xj geom.Transform, out *[residualDim]float64) {
	// E = Z⁻¹ ∘ (X_I⁻¹ ∘ X_J): identity when the measurement is satisfied.
	err := e.Z.Inverse().Compose(xi.Inverse().Compose(xj))
	rot := geom.LogRotation(err.R)
	wt, wr := e.TransWeight, e.RotWeight
	if wt == 0 {
		wt = 1
	}
	if wr == 0 {
		wr = 1
	}
	out[0] = wr * rot.X
	out[1] = wr * rot.Y
	out[2] = wr * rot.Z
	out[3] = wt * err.T.X
	out[4] = wt * err.T.Y
	out[5] = wt * err.T.Z
}

// accumulate folds one edge's JᵀJ and −Jᵀr contribution into the global
// normal equations. Node 0 has no state columns; its block is skipped.
func (g *Graph) accumulate(ei int, r *[residualDim]float64, jac *[residualDim * 12]float64, h, b []float64, n int) {
	e := &g.Edges[ei]
	dim := 6 * (n - 1)
	// Global column of each of the edge's 12 local params (-1 = fixed).
	var cols [12]int
	for p := 0; p < 12; p++ {
		node := e.I
		local := p
		if p >= 6 {
			node = e.J
			local = p - 6
		}
		if node == 0 {
			cols[p] = -1
			continue
		}
		cols[p] = 6*(node-1) + local
	}
	for a := 0; a < 12; a++ {
		ca := cols[a]
		if ca < 0 {
			continue
		}
		var jtr float64
		for k := 0; k < residualDim; k++ {
			jtr += jac[k*12+a] * r[k]
		}
		b[ca] -= jtr
		for bb := 0; bb < 12; bb++ {
			cb := cols[bb]
			if cb < 0 {
				continue
			}
			var s float64
			for k := 0; k < residualDim; k++ {
				s += jac[k*12+a] * jac[k*12+bb]
			}
			h[ca*dim+cb] += s
		}
	}
}

// applyDelta writes poses ∘ local updates into out: node k>0 moves by
// the 6 params at delta[6(k−1):], node 0 stays fixed.
func applyDelta(poses []geom.Transform, delta []float64, out []geom.Transform) {
	out[0] = poses[0]
	for k := 1; k < len(poses); k++ {
		d := delta[6*(k-1) : 6*k]
		x := poses[k]
		x.T.X += d[0]
		x.T.Y += d[1]
		x.T.Z += d[2]
		x.R = geom.ExpRotation(geom.Vec3{X: d[3], Y: d[4], Z: d[5]}).Mul(x.R)
		out[k] = x
	}
}
