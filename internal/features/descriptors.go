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

// DescriptorMethod selects the feature descriptor (Tbl. 1, Descriptor
// Calculation row).
type DescriptorMethod int

const (
	// FPFH is the 33-bin Fast Point Feature Histogram [56].
	FPFH DescriptorMethod = iota
	// SHOT is the Signature of Histograms of Orientations [64]
	// (32 spatial sectors × 11 cosine bins = 352 dims).
	SHOT
	// SC3D is the 3D Shape Context [20] over a log-radial spherical grid.
	SC3D
)

// String implements fmt.Stringer.
func (m DescriptorMethod) String() string {
	switch m {
	case FPFH:
		return "FPFH"
	case SHOT:
		return "SHOT"
	case SC3D:
		return "3DSC"
	default:
		return "UnknownDescriptorMethod"
	}
}

// Dim returns the descriptor dimensionality.
func (m DescriptorMethod) Dim() int {
	switch m {
	case FPFH:
		return 33
	case SHOT:
		return shotSpatialBins * shotCosineBins
	case SC3D:
		return scAzimuthBins * scElevationBins * scRadialBins
	default:
		return 0
	}
}

// DescriptorConfig parameterizes descriptor computation. SearchRadius is
// the Tbl. 1 knob.
type DescriptorConfig struct {
	Method DescriptorMethod
	// SearchRadius is the descriptor support radius in meters (default 1.0).
	SearchRadius float64
}

func (c *DescriptorConfig) defaults() {
	if c.SearchRadius == 0 {
		c.SearchRadius = 1.0
	}
}

// Descriptors is a dense row-major matrix of per-key-point feature
// vectors.
type Descriptors struct {
	Dim  int
	Data []float64 // len = Dim * count
}

// Count returns the number of descriptors.
func (d *Descriptors) Count() int {
	if d.Dim == 0 {
		return 0
	}
	return len(d.Data) / d.Dim
}

// Row returns the i-th descriptor vector (a view, not a copy).
func (d *Descriptors) Row(i int) []float64 {
	return d.Data[i*d.Dim : (i+1)*d.Dim]
}

// ComputeDescriptors computes the configured descriptor for each key-point
// index. The cloud must have normals. Neighbor lookups go through s so the
// pipeline's search instrumentation sees this stage's traffic (it is one
// of the three dominant stages of Fig. 4a).
//
// The stage is batched: one RadiusBatch fetches every key-point support
// region, then the pure per-key-point histogram math fans out over
// internal/par. FPFH needs a second level — the SPFHs of every support
// point — which is gathered as its own batch over the deduplicated
// support set, replacing the sequential memoization cache with a
// precomputed table (same values, computed once each, in parallel).
func ComputeDescriptors(c *cloud.Slab, s search.Searcher, keypoints []int, cfg DescriptorConfig) *Descriptors {
	cfg.defaults()
	dim := cfg.Method.Dim()
	out := &Descriptors{Dim: dim, Data: newDescriptorData(dim * len(keypoints))}
	kpPts := make([]geom.Vec3, len(keypoints))
	for ki, pi := range keypoints {
		kpPts[ki] = c.At(pi)
	}
	kpNbs := s.RadiusBatch(kpPts, cfg.SearchRadius)
	workers := s.Parallelism()
	switch cfg.Method {
	case SHOT:
		par.For(len(keypoints), workers, func(_, ki int) {
			shotDescriptor(c, keypoints[ki], cfg.SearchRadius, kpNbs[ki], out.Data[ki*dim:(ki+1)*dim])
		})
	case SC3D:
		par.For(len(keypoints), workers, func(_, ki int) {
			shapeContextDescriptor(c, keypoints[ki], cfg.SearchRadius, kpNbs[ki], out.Data[ki*dim:(ki+1)*dim])
		})
	default:
		table := computeSPFHTable(c, s, keypoints, kpNbs, cfg.SearchRadius)
		par.For(len(keypoints), workers, func(_, ki int) {
			fpfhDescriptor(keypoints[ki], kpNbs[ki], out.Data[ki*dim:(ki+1)*dim], table)
		})
		spfhTables.Put(table)
	}
	// The support regions are fully consumed; hand the batch back so the
	// next frame's radius batches reuse it.
	search.RecycleBatch(kpNbs)
	return out
}

// spfhTable holds the SPFH of every point one frame's FPFH rows read:
// the rows back to back in one slab, found through a dense point-index →
// row map. Tables are recycled across frames (a streaming session fills
// one per frame), so a steady-state frame allocates none of it.
type spfhTable struct {
	slot []int32   // per cloud point: its row, or spfhAbsent
	data []float64 // rows × spfhDim
	need []int     // the support points that are not key-points, ascending
}

const (
	spfhDim            = 3 * fpfhBinsPerAngle
	spfhAbsent   int32 = -1
	spfhWanted   int32 = -2
	spfhTooClose       = 1e-12 // squared distance under which a neighbor is the point itself
)

var spfhTables par.FreeList[*spfhTable]

// row returns the SPFH of point pi (which must be in the table).
func (t *spfhTable) row(pi int) []float64 {
	r := int(t.slot[pi])
	return t.data[r*spfhDim : (r+1)*spfhDim]
}

// computeSPFHTable returns the SPFH of every point an FPFH row will read:
// each key-point itself plus every neighbor its weighting loop touches.
// Key-point SPFHs reuse the neighborhoods the caller already fetched
// (kpNbs is their exact radius result); the remaining support points are
// deduplicated and taken in ascending index order so their batch is
// issued in a deterministic order, and every SPFH is computed exactly
// once (the sequential implementation memoized the same values in a cache
// keyed by index). The caller returns the table to spfhTables when done.
func computeSPFHTable(c *cloud.Slab, s search.Searcher, keypoints []int, kpNbs [][]kdtree.Neighbor, radius float64) *spfhTable {
	t, ok := spfhTables.Get()
	if !ok {
		t = &spfhTable{}
	}
	if cap(t.slot) < c.Len() {
		t.slot = make([]int32, c.Len())
	}
	t.slot = t.slot[:c.Len()]
	for i := range t.slot {
		t.slot[i] = spfhAbsent
	}
	for ki, pi := range keypoints {
		t.slot[pi] = int32(ki)
	}
	for ki, pi := range keypoints {
		for _, nb := range kpNbs[ki] {
			if nb.Index == pi || nb.Dist2 < spfhTooClose {
				continue
			}
			if t.slot[nb.Index] == spfhAbsent {
				t.slot[nb.Index] = spfhWanted
			}
		}
	}
	t.need = t.need[:0]
	for idx, sl := range t.slot {
		if sl == spfhWanted {
			t.slot[idx] = int32(len(keypoints) + len(t.need))
			t.need = append(t.need, idx)
		}
	}
	rows := (len(keypoints) + len(t.need)) * spfhDim
	if cap(t.data) < rows {
		t.data = make([]float64, rows)
	}
	t.data = t.data[:rows]

	par.For(len(keypoints), s.Parallelism(), func(_, ki int) {
		spfh(t.row(keypoints[ki]), c, keypoints[ki], kpNbs[ki])
	})
	// The support set can approach the whole cloud when key-points are
	// dense, so stream it in bounded blocks like the full-cloud stages:
	// only the SPFH rows persist, each block's neighbor lists are
	// released after its sweep.
	if len(t.need) > 0 { // a fresh table's empty list is nil, which names every point
		forRadiusBlocks(s, c, t.need, radius, func(_, i int, nbs []kdtree.Neighbor) {
			spfh(t.row(i), c, i, nbs)
		})
	}
	return t
}

// --- FPFH ---------------------------------------------------------------

const fpfhBinsPerAngle = 11

// darbouxBins computes the three FPFH pair features (α, φ, θ) between a
// source point/normal and a target point/normal, following Rusu et al.,
// and returns the bins they fall in. θ is atan2(w·nt, u·nt), and its bin
// comes from thetaBin, which takes the arctangent only where its key
// cannot decide.
func darbouxBins(ps, ns, pt, nt geom.Vec3) (alpha, phi, theta int, ok bool) {
	d := pt.Sub(ps)
	dist := d.Norm()
	if dist < 1e-12 {
		return 0, 0, 0, false
	}
	dn := d.Scale(1 / dist)
	u := ns
	v := dn.Cross(u)
	vn := v.Norm()
	if vn < 1e-12 {
		return 0, 0, 0, false
	}
	v = v.Scale(1 / vn) // v.Normalize(), its norm taken once
	w := u.Cross(v)
	return binUnit(v.Dot(nt)), binUnit(u.Dot(dn)), thetaBin(w.Dot(nt), u.Dot(nt)), true
}

// spfh fills h (spfhDim long) with the Simplified Point Feature Histogram
// of point pi over the prefetched radius neighborhood nbs: the
// concatenated (α, φ, θ) histograms.
func spfh(h []float64, c *cloud.Slab, pi int, nbs []kdtree.Neighbor) {
	clear(h)
	p := c.At(pi)
	n := c.NormalAt(pi)
	count := 0
	for _, nb := range nbs {
		if nb.Index == pi {
			continue
		}
		alpha, phi, theta, ok := darbouxBins(p, n, c.At(nb.Index), c.NormalAt(nb.Index))
		if !ok {
			continue
		}
		h[alpha]++
		h[fpfhBinsPerAngle+phi]++
		h[2*fpfhBinsPerAngle+theta]++
		count++
	}
	if count > 0 {
		inv := 100 / float64(count) // percentage normalization, as in PCL
		for i := range h {
			h[i] *= inv
		}
	}
}

// binUnit maps [-1, 1] to one of the 11 bins.
func binUnit(v float64) int {
	b := int((v + 1) / 2 * fpfhBinsPerAngle)
	if b < 0 {
		b = 0
	}
	if b >= fpfhBinsPerAngle {
		b = fpfhBinsPerAngle - 1
	}
	return b
}

// binAngle maps [-π, π] to one of the 11 bins.
func binAngle(v float64) int {
	b := int((v + math.Pi) / (2 * math.Pi) * fpfhBinsPerAngle)
	if b < 0 {
		b = 0
	}
	if b >= fpfhBinsPerAngle {
		b = fpfhBinsPerAngle - 1
	}
	return b
}

// thetaEdgeKeys are the diamond keys of binAngle's inner bin edges,
// -π + e·2π/11 for e = 1…10, from the edges' sines and cosines.
var thetaEdgeKeys = func() (keys [fpfhBinsPerAngle - 1]float64) {
	for e := range keys {
		edge := -math.Pi + float64(e+1)*2*math.Pi/fpfhBinsPerAngle
		keys[e] = diamondKey(math.Sin(edge), math.Cos(edge))
	}
	return keys
}()

// thetaBin is binAngle(math.Atan2(y, x)), decided by the diamond key of
// (x, y) where that key lies keyGuard or more from every bin edge's key:
// the bin is then the count of edges below it. Within the guard of an edge,
// or where the key is NaN (a non-finite |x|+|y|), it takes the arctangent.
func thetaBin(y, x float64) int {
	k := diamondKey(y, x)
	b := 0
	for b < len(thetaEdgeKeys) && thetaEdgeKeys[b] < k {
		b++
	}
	if (b == 0 || k-thetaEdgeKeys[b-1] >= keyGuard) && (b == len(thetaEdgeKeys) || thetaEdgeKeys[b]-k >= keyGuard) {
		return b
	}
	return binAngle(math.Atan2(y, x))
}

// fpfhDescriptor computes FPFH(p) = SPFH(p) + Σ_k SPFH(k)/ω_k over the
// prefetched neighborhood, with ω_k the distance weight. table holds the
// SPFH of every index the loop reads (see computeSPFHTable).
func fpfhDescriptor(pi int, nbs []kdtree.Neighbor, row []float64, table *spfhTable) {
	copy(row, table.row(pi))
	var wsum float64
	var acc [spfhDim]float64
	for _, nb := range nbs {
		if nb.Index == pi || nb.Dist2 < spfhTooClose {
			continue
		}
		w := 1 / math.Sqrt(nb.Dist2)
		h := table.row(nb.Index)
		for i := range acc {
			acc[i] += w * h[i]
		}
		wsum += w
	}
	if wsum > 0 {
		for i := range row {
			row[i] += acc[i] / wsum
		}
	}
}

// --- SHOT ---------------------------------------------------------------

const (
	shotAzimuthBins   = 8
	shotElevationBins = 2
	shotRadialBins    = 2
	shotSpatialBins   = shotAzimuthBins * shotElevationBins * shotRadialBins // 32
	shotCosineBins    = 11
)

// shotLRF builds the repeatable local reference frame of SHOT over the
// prefetched radius neighborhood: the eigenvectors of the
// distance-weighted covariance with sign disambiguation toward the
// majority of neighbors.
func shotLRF(c *cloud.Slab, pi int, radius float64, nbs []searchNeighbor) (x, y, z geom.Vec3) {
	p := c.At(pi)
	var cov geom.Mat3
	var wsum float64
	for _, nb := range nbs {
		d := c.At(nb.Index).Sub(p)
		w := radius - math.Sqrt(nb.Dist2)
		if w <= 0 {
			continue
		}
		cov = cov.Add(geom.OuterProduct(d, d).Scale(w))
		wsum += w
	}
	if wsum <= 0 {
		return geom.Vec3{X: 1}, geom.Vec3{Y: 1}, geom.Vec3{Z: 1}
	}
	cov = cov.Scale(1 / wsum)
	eig := linalg.EigenSym3(cov)
	// Largest eigenvalue first for x, smallest for z.
	x = eig.Vectors[2]
	z = eig.Vectors[0]
	// Sign disambiguation: point each axis toward the majority side.
	var sx, sz int
	for _, nb := range nbs {
		d := c.At(nb.Index).Sub(p)
		if d.Dot(x) >= 0 {
			sx++
		} else {
			sx--
		}
		if d.Dot(z) >= 0 {
			sz++
		} else {
			sz--
		}
	}
	if sx < 0 {
		x = x.Neg()
	}
	if sz < 0 {
		z = z.Neg()
	}
	y = z.Cross(x)
	return x, y, z
}

// shotDescriptor fills row with the SHOT signature over the prefetched
// neighborhood: the support sphere is split into azimuth × elevation ×
// radial sectors; each sector holds an 11-bin histogram of cos(angle
// between the neighbor normal and the key-point normal).
func shotDescriptor(c *cloud.Slab, pi int, radius float64, nbs []searchNeighbor, row []float64) {
	x, y, z := shotLRF(c, pi, radius, nbs)
	p := c.At(pi)
	n := c.NormalAt(pi)
	total := 0.0
	for _, nb := range nbs {
		if nb.Index == pi {
			continue
		}
		d := c.At(nb.Index).Sub(p)
		r := d.Norm()
		if r < 1e-12 || r > radius {
			continue
		}
		lx, ly, lz := d.Dot(x), d.Dot(y), d.Dot(z)
		az := math.Atan2(ly, lx) // [-π, π]
		azBin := int((az + math.Pi) / (2 * math.Pi) * shotAzimuthBins)
		if azBin >= shotAzimuthBins {
			azBin = shotAzimuthBins - 1
		}
		elBin := 0
		if lz >= 0 {
			elBin = 1
		}
		radBin := 0
		if r > radius/2 {
			radBin = 1
		}
		spatial := (radBin*shotElevationBins+elBin)*shotAzimuthBins + azBin
		cosAngle := c.NormalAt(nb.Index).Dot(n)
		cosBin := binUnitN(cosAngle, shotCosineBins)
		row[spatial*shotCosineBins+cosBin]++
		total++
	}
	if total > 0 {
		// L2 normalization (SHOT normalizes the whole signature).
		var norm float64
		for _, v := range row {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		for i := range row {
			row[i] /= norm
		}
	}
}

// binUnitN maps [-1, 1] into one of nbins bins.
func binUnitN(v float64, nbins int) int {
	b := int((v + 1) / 2 * float64(nbins))
	if b < 0 {
		b = 0
	}
	if b >= nbins {
		b = nbins - 1
	}
	return b
}

// --- 3DSC ---------------------------------------------------------------

const (
	scAzimuthBins   = 8
	scElevationBins = 4
	scRadialBins    = 5
)

// shapeContextDescriptor fills row with the 3D Shape Context over the
// prefetched neighborhood: a log-radial spherical histogram of neighbor
// positions in a normal-aligned frame, each contribution weighted by the
// inverse local density as in Frome et al.
func shapeContextDescriptor(c *cloud.Slab, pi int, radius float64, nbs []searchNeighbor, row []float64) {
	p := c.At(pi)
	n := c.NormalAt(pi)
	u, v := n.OrthoBasis()
	rmin := radius / 20
	logSpan := math.Log(radius / rmin)
	total := 0.0
	for _, nb := range nbs {
		if nb.Index == pi {
			continue
		}
		d := c.At(nb.Index).Sub(p)
		r := d.Norm()
		if r < 1e-12 || r > radius {
			continue
		}
		// Radial bin on a log scale (inner sphere collapses to bin 0).
		radBin := 0
		if r > rmin {
			radBin = int(math.Log(r/rmin) / logSpan * scRadialBins)
			if radBin >= scRadialBins {
				radBin = scRadialBins - 1
			}
		}
		lz := d.Dot(n)
		lx := d.Dot(u)
		ly := d.Dot(v)
		az := math.Atan2(ly, lx)
		azBin := int((az + math.Pi) / (2 * math.Pi) * scAzimuthBins)
		if azBin >= scAzimuthBins {
			azBin = scAzimuthBins - 1
		}
		el := math.Acos(clamp(lz/r, -1, 1)) // [0, π]
		elBin := int(el / math.Pi * scElevationBins)
		if elBin >= scElevationBins {
			elBin = scElevationBins - 1
		}
		idx := (radBin*scElevationBins+elBin)*scAzimuthBins + azBin
		// Weight by shell volume so outer (larger) shells don't dominate.
		w := 1 / (1 + r*r)
		row[idx] += w
		total += w
	}
	if total > 0 {
		for i := range row {
			row[i] /= total
		}
	}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// searchNeighbor aliases the KD-tree result type for readability in this
// file's signatures.
type searchNeighbor = kdtree.Neighbor
