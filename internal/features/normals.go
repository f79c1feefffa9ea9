// Package features implements the registration front-end's geometric
// feature stages (paper Fig. 2 and Tbl. 1):
//
//   - Normal estimation: PlaneSVD and AreaWeighted [35].
//   - Key-point detection: Harris3D [27,61] and a SIFT-style
//     difference-of-densities detector [40,59] (substituting NARF, see
//     DESIGN.md).
//   - Feature descriptors: FPFH [56], SHOT [64], and 3DSC [20].
//
// All stages take a search.Searcher so neighbor lookups route through
// whichever KD-tree variant (and instrumentation) the pipeline selects —
// the property the paper exploits when it attributes >50% of registration
// time to KD-tree search regardless of the chosen algorithms. The
// query-dominated stages issue their lookups through the Searcher's
// batched API and fan the pure per-point math over internal/par, so the
// stage wall times reflect the query-level parallelism the paper's
// two-stage tree is designed to expose.
//
// The stages operate on the SoA float32 slab (cloud.Slab) the pipeline
// shares with its search indexes: neighbor coordinates and normals are
// dequantized per read and all accumulation runs in float64, so results
// are deterministic at any parallelism for the float32-quantized inputs.
package features

import (
	"math"

	"tigris/internal/cloud"
	"tigris/internal/geom"
	"tigris/internal/kdtree"
	"tigris/internal/linalg"
	"tigris/internal/par"
	"tigris/internal/search"
)

// NormalMethod selects the surface normal estimator (Tbl. 1, Normal
// Estimation row).
type NormalMethod int

const (
	// PlaneSVD fits a plane to the neighborhood by taking the smallest
	// eigenvector of the neighborhood covariance (the PCL default).
	PlaneSVD NormalMethod = iota
	// AreaWeighted averages triangle-fan cross products, weighting each
	// face by its area (Klasing et al.'s AreaWeighted variant).
	AreaWeighted
)

// String implements fmt.Stringer.
func (m NormalMethod) String() string {
	switch m {
	case PlaneSVD:
		return "PlaneSVD"
	case AreaWeighted:
		return "AreaWeighted"
	default:
		return "UnknownNormalMethod"
	}
}

// NormalConfig parameterizes normal estimation. SearchRadius is the knob
// the paper sweeps (Tbl. 1) and the one that controls how much radius
// search the stage issues — DP4 uses 0.30 m, DP7 uses 0.75 m (§6.3).
type NormalConfig struct {
	Method NormalMethod
	// SearchRadius is the neighborhood radius in meters (default 0.5).
	SearchRadius float64
	// KNeighbors, when positive, selects k-nearest-neighbor support
	// regions instead of radius regions (the PCL setKSearch mode). The
	// neighborhood then adapts to local density: dense regions get tight
	// fits, sparse regions still find support.
	KNeighbors int
	// Viewpoint orients normals to point toward the sensor. The zero value
	// (origin) is correct for sensor-frame clouds.
	Viewpoint geom.Vec3
	// MinNeighbors below which a point's normal is left as +Z (default 3).
	MinNeighbors int
}

func (c *NormalConfig) defaults() {
	if c.SearchRadius == 0 {
		c.SearchRadius = 0.5
	}
	if c.MinNeighbors == 0 {
		c.MinNeighbors = 3
	}
}

// EstimateNormals fills c's normal slabs for every point using
// neighborhoods from s (which must index the same points). It returns the
// number of points that had too few neighbors for a stable fit.
//
// The queries stream through the searcher's batch API in bounded blocks
// (see forBlocks), each consumed by a parallel sweep fitting the
// per-point normals. Every sweep writes positionally, so the output is
// bit-identical to the sequential per-point loop.
func EstimateNormals(c *cloud.Slab, s search.Searcher, cfg NormalConfig) int {
	cfg.defaults()
	c.EnsureNormals()
	workers := s.Parallelism()
	batch := func(block []geom.Vec3) [][]kdtree.Neighbor {
		if cfg.KNeighbors > 0 {
			return s.KNearestBatch(block, cfg.KNeighbors)
		}
		return s.RadiusBatch(block, cfg.SearchRadius)
	}
	// One scratch per sweep worker, reused for every point the worker
	// fits: the per-point kernels allocate nothing.
	scratch := make([]normalScratch, par.Workers(workers))
	degenerate := make([]int, len(scratch))
	forBlocks(workers, c, batch, func(w, i int, nbs []kdtree.Neighbor) {
		p := c.At(i)
		if len(nbs) < cfg.MinNeighbors {
			c.SetNormal(i, geom.Vec3{Z: 1})
			degenerate[w]++
			return
		}
		sc := &scratch[w]
		sc.gather(nbs, c)
		var n geom.Vec3
		switch cfg.Method {
		case AreaWeighted:
			n = sc.areaWeightedNormal(p)
		default:
			n = sc.planeSVDNormal()
		}
		// Orient toward the viewpoint so normals are consistent across the
		// cloud (required by the Darboux-frame descriptors).
		if n.Dot(cfg.Viewpoint.Sub(p)) < 0 {
			n = n.Neg()
		}
		c.SetNormal(i, n)
	})
	total := 0
	for _, d := range degenerate {
		total += d
	}
	return total
}

// normalScratch is one worker's reusable state for the per-point normal
// kernels: the neighborhood's positions, dequantized once per point, and
// the azimuth-ordered fan AreaWeighted walks. Both grow to the largest
// neighborhood the worker has seen and are then reused as they are.
type normalScratch struct {
	pts   []geom.Vec3
	polar []polarEntry
}

// gather loads the positions of nbs into the scratch, in neighbor order.
func (sc *normalScratch) gather(nbs []kdtree.Neighbor, c *cloud.Slab) {
	sc.pts = sc.pts[:0]
	for _, nb := range nbs {
		sc.pts = append(sc.pts, c.At(nb.Index))
	}
}

// planeSVDNormal returns the smallest-eigenvalue eigenvector of the
// gathered neighborhood's covariance.
func (sc *normalScratch) planeSVDNormal() geom.Vec3 {
	var centroid geom.Vec3
	for _, q := range sc.pts {
		centroid = centroid.Add(q)
	}
	centroid = centroid.Scale(1 / float64(len(sc.pts)))

	var cov geom.Mat3
	for _, q := range sc.pts {
		d := q.Sub(centroid)
		cov = cov.Add(geom.OuterProduct(d, d))
	}
	eig := linalg.EigenSym3(cov)
	return eig.Vectors[0] // smallest eigenvalue => plane normal
}

// areaWeightedNormal sums the cross products of a triangle fan around p
// over the gathered neighborhood. Each cross product's magnitude is twice
// the triangle area, so summing raw cross products weights faces by area,
// which is the essence of Klasing's AreaWeighted estimator.
func (sc *normalScratch) areaWeightedNormal(p geom.Vec3) geom.Vec3 {
	// Order neighbors by azimuth in a provisional tangent plane so the fan
	// is geometrically consistent.
	prov := sc.planeSVDNormal()
	u, v := prov.OrthoBasis()
	ordered := sc.polar[:0]
	for j, q := range sc.pts {
		d := q.Sub(p)
		ordered = append(ordered, polarEntry{slot: j, ang: math.Atan2(d.Dot(v), d.Dot(u))})
	}
	sc.polar = ordered
	sortPolar(ordered)

	var sum geom.Vec3
	for i := range ordered {
		a := sc.pts[ordered[i].slot].Sub(p)
		b := sc.pts[ordered[(i+1)%len(ordered)].slot].Sub(p)
		sum = sum.Add(a.Cross(b))
	}
	n := sum.Normalize()
	if n.Norm() == 0 {
		return prov
	}
	// Keep the same hemisphere as the provisional normal so orientation
	// fixing behaves identically for both methods.
	if n.Dot(prov) < 0 {
		n = n.Neg()
	}
	return n
}

// polarEntry pairs a gathered neighbor's slot with its azimuth in a
// tangent plane.
type polarEntry struct {
	slot int
	ang  float64
}

// sortPolar orders the fan by azimuth with a stable insertion sort:
// equal azimuths keep their neighbor order, which the fan's cross-product
// sum depends on, and fans are tens of entries, where an insertion sort
// beats the general stable sorts.
func sortPolar(p []polarEntry) {
	for i := 1; i < len(p); i++ {
		for j := i; j > 0 && p[j].ang < p[j-1].ang; j-- {
			p[j], p[j-1] = p[j-1], p[j]
		}
	}
}
