package features

import (
	"math"
	"slices"
	"sort"

	"tigris/internal/cloud"
	"tigris/internal/geom"
	"tigris/internal/kdtree"
	"tigris/internal/par"
	"tigris/internal/search"
)

// KeypointMethod selects the key-point detector (Tbl. 1, Key-point
// Detection row). NARF is substituted by the SIFT-style detector; see
// README "Substitutions".
type KeypointMethod int

const (
	// Harris3D extends the Harris corner detector to 3D using the
	// covariance of surface normals in a support region.
	Harris3D KeypointMethod = iota
	// SIFT3D detects blobs as extrema of a difference-of-densities scale
	// space, the point cloud analog of SIFT's difference of Gaussians.
	SIFT3D
)

// String implements fmt.Stringer.
func (m KeypointMethod) String() string {
	switch m {
	case Harris3D:
		return "Harris3D"
	case SIFT3D:
		return "SIFT3D"
	default:
		return "UnknownKeypointMethod"
	}
}

// KeypointConfig parameterizes key-point detection. Scale (SIFT) and
// Radius (Harris) are the Tbl. 1 knobs.
type KeypointConfig struct {
	Method KeypointMethod
	// Radius is the Harris support radius in meters (default 1.0).
	Radius float64
	// Scale is the SIFT base scale in meters (default 0.5).
	Scale float64
	// ResponseQuantile keeps points whose response exceeds this quantile
	// of all responses (default 0.90); the non-max suppression radius is
	// the detector's support radius.
	ResponseQuantile float64
	// MaxKeypoints truncates the final list (0 = unlimited).
	MaxKeypoints int
}

const (
	// harrisK weighs det(C) in the Harris response (see harrisResponses).
	harrisK = 0.04
	// siftOctaves is the number of SIFT octaves above the base scale.
	siftOctaves = 3
)

func (c *KeypointConfig) defaults() {
	if c.Radius == 0 {
		c.Radius = 1.0
	}
	if c.Scale == 0 {
		c.Scale = 0.5
	}
	if c.ResponseQuantile == 0 {
		c.ResponseQuantile = 0.90
	}
}

// DetectKeypoints returns indices into c of the detected key-points,
// ordered by decreasing response. The slab must have normals when the
// Harris detector is selected.
func DetectKeypoints(c *cloud.Slab, s search.Searcher, cfg KeypointConfig) []int {
	cfg.defaults()
	sc, ok := idleKeypointScratch.Get()
	if !ok {
		sc = &keypointScratch{}
	}
	defer idleKeypointScratch.Put(sc)
	sc.responses = slices.Grow(sc.responses[:0], c.Len())[:c.Len()]
	clear(sc.responses)
	var suppressRadius float64
	switch cfg.Method {
	case SIFT3D:
		siftResponses(c, s, cfg, sc.responses)
		suppressRadius = cfg.Scale * 2
	default:
		harrisResponses(c, s, cfg, sc.responses)
		suppressRadius = cfg.Radius
	}
	return selectKeypoints(c, s, sc, suppressRadius, cfg)
}

// keypointScratch is what a detection needs besides its result: the
// per-point responses, the positive ones sorted for the quantile, the
// candidates, the suppression marks and the query of a suppression
// search. A session detects once a frame, so scratches are recycled.
type keypointScratch struct {
	responses, positive []float64
	cand                []int
	suppressed          []bool
	query               []geom.Vec3
}

var idleKeypointScratch par.FreeList[*keypointScratch]

// harrisResponses computes a Harris3D response over the covariance C of
// surface normals in each point's support region. The classic
// det(C) − k·trace(C)² response is degenerate on low-noise data (an edge's
// normal covariance is exactly rank 1, so det = 0 and the response is
// non-positive everywhere); we therefore use the trace-dominant variant
// trace(C) + det(C)/k', which ranks edges and corners above planes using
// the same covariance statistic. PCL's Harris3D offers equivalent
// alternative response functions (NOBLE, CURVATURE) for the same reason.
// res holds one zeroed response per point of c; a point with fewer than
// five neighbors keeps its zero.
func harrisResponses(c *cloud.Slab, s search.Searcher, cfg KeypointConfig, res []float64) {
	forRadiusBlocks(s, c, nil, cfg.Radius, func(_, i int, nbs []kdtree.Neighbor) {
		if len(nbs) < 5 {
			return
		}
		var mean geom.Vec3
		for _, nb := range nbs {
			mean = mean.Add(c.NormalAt(nb.Index))
		}
		mean = mean.Scale(1 / float64(len(nbs)))
		// Six sums, mirrored, are bit for bit the nine that adding up
		// OuterProduct(d, d) gives (see planeSVDNormal).
		var xx, xy, xz, yy, yz, zz float64
		for _, nb := range nbs {
			d := c.NormalAt(nb.Index).Sub(mean)
			xx += d.X * d.X
			xy += d.X * d.Y
			xz += d.X * d.Z
			yy += d.Y * d.Y
			yz += d.Y * d.Z
			zz += d.Z * d.Z
		}
		cov := geom.Mat3{
			xx, xy, xz,
			xy, yy, yz,
			xz, yz, zz,
		}.Scale(1 / float64(len(nbs)))
		res[i] = cov.Trace() + cov.Det()/harrisK
	})
}

// siftResponses builds a difference-of-densities scale space: at each
// scale σ, the Gaussian-weighted neighbor density is computed, and the
// response is the maximum absolute difference between adjacent scales.
// Blob-like structure (curbs, poles, car corners) produces large
// differences; flat regions produce nearly scale-invariant densities.
// res receives one response per point of c.
func siftResponses(c *cloud.Slab, s search.Searcher, cfg KeypointConfig, res []float64) {
	scales := make([]float64, siftOctaves+1)
	for o := range scales {
		scales[o] = cfg.Scale * math.Pow(2, float64(o)*0.5)
	}
	// One scratch density buffer per worker: the worker id is stable
	// within each parallel sweep, so reuse is race-free without the
	// per-point allocation a closure-local buffer would cost.
	scratch := make([][]float64, par.Workers(s.Parallelism()))
	for w := range scratch {
		scratch[w] = make([]float64, len(scales))
	}
	// One search at the largest scale serves every smaller scale.
	forRadiusBlocks(s, c, nil, scales[len(scales)-1], func(w, i int, nbs []kdtree.Neighbor) {
		density := scratch[w]
		for si, sigma := range scales {
			var d float64
			inv := 1 / (2 * sigma * sigma)
			for _, nb := range nbs {
				d += math.Exp(-nb.Dist2 * inv)
			}
			density[si] = d / (sigma * sigma * sigma) // scale normalization
		}
		best := 0.0
		for si := 1; si < len(density); si++ {
			if diff := math.Abs(density[si] - density[si-1]); diff > best {
				best = diff
			}
		}
		res[i] = best
	})
}

// selectKeypoints thresholds sc's responses at the configured quantile
// and applies non-maximum suppression within suppressRadius. Each
// suppression search is a batch of one, answered into a pooled arena and
// handed back once its marks are set.
func selectKeypoints(c *cloud.Slab, s search.Searcher, sc *keypointScratch, suppressRadius float64, cfg KeypointConfig) []int {
	responses := sc.responses
	positive := sc.positive[:0]
	for _, r := range responses {
		if r > 0 {
			positive = append(positive, r)
		}
	}
	sc.positive = positive
	if len(positive) == 0 {
		return nil
	}
	sort.Float64s(positive)
	qIdx := int(cfg.ResponseQuantile * float64(len(positive)))
	if qIdx >= len(positive) {
		qIdx = len(positive) - 1
	}
	threshold := positive[qIdx]

	// Candidates above threshold, strongest first.
	cand := sc.cand[:0]
	for i, r := range responses {
		if r >= threshold && r > 0 {
			cand = append(cand, i)
		}
	}
	sc.cand = cand
	sort.Slice(cand, func(a, b int) bool {
		if responses[cand[a]] != responses[cand[b]] {
			return responses[cand[a]] > responses[cand[b]]
		}
		return cand[a] < cand[b]
	})

	suppressed := slices.Grow(sc.suppressed[:0], len(responses))[:len(responses)]
	sc.suppressed = suppressed
	clear(suppressed)
	query := slices.Grow(sc.query[:0], 1)[:1]
	sc.query = query
	var out []int
	for _, i := range cand {
		if suppressed[i] {
			continue
		}
		out = append(out, i)
		if cfg.MaxKeypoints > 0 && len(out) >= cfg.MaxKeypoints {
			break
		}
		query[0] = c.At(i)
		nbs := s.RadiusBatch(query, suppressRadius)
		for _, nb := range nbs[0] {
			suppressed[nb.Index] = true
		}
		search.RecycleBatch(nbs)
	}
	return out
}
