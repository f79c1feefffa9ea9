// Package features implements the registration front-end's geometric
// feature stages (paper Fig. 2 and Tbl. 1):
//
//   - Normal estimation: PlaneSVD and AreaWeighted [35].
//   - Key-point detection: Harris3D [27,61] and a SIFT-style
//     difference-of-densities detector [40,59] (substituting NARF, see
//     README "Substitutions").
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
//
// Angles that decide only an order or a bin are not computed on the
// AreaWeighted and FPFH paths: the AreaWeighted fan is sorted, and FPFH's
// θ is binned, by a diamond pseudo-angle (diamondKey), and math.Atan2 runs
// only where that key is too close to a neighbor's or to a bin edge to
// certify the answer. Every order and bin is the one atan2 gives, bit for
// bit. SHOT and 3DSC still bin their azimuths from atan2.
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
// Support regions are radius regions only: Tbl. 1 also lists k-nearest
// regions (PCL's setKSearch), which no design point uses.
type NormalConfig struct {
	Method NormalMethod
	// SearchRadius is the neighborhood radius in meters (default 0.5).
	SearchRadius float64
	// Viewpoint orients normals to point toward the sensor. The zero value
	// (origin) is correct for sensor-frame clouds.
	Viewpoint geom.Vec3
}

// minNeighbors is the neighborhood size below which a point's normal is
// left as +Z and counted degenerate.
const minNeighbors = 3

func (c *NormalConfig) defaults() {
	if c.SearchRadius == 0 {
		c.SearchRadius = 0.5
	}
}

// EstimateNormals fills c's normal slabs for every point using
// neighborhoods from s (which must index the same points). It returns the
// number of points that had too few neighbors for a stable fit.
//
// The queries stream through the searcher's batch API in bounded blocks
// (see forRadiusBlocks), each consumed by a parallel sweep fitting the
// per-point normals. Every sweep writes positionally, so the output is
// bit-identical to the sequential per-point loop.
func EstimateNormals(c *cloud.Slab, s search.Searcher, cfg NormalConfig) int {
	return estimateNormals(c, s, cfg, nil)
}

// EstimateNormalsAt is EstimateNormals for the points idx names and no
// others: it runs the same queries through the same per-point fit, so on
// an exact searcher each listed point ends with exactly the bits
// EstimateNormals would leave there, whatever else is or is not in the
// list, and every other normal is left as it was (zero, if c had no
// normal slabs yet). idx may be empty, unsorted and may repeat points;
// the count returned is of distinct listed points with too few
// neighbors. This is what lets fine-tuning estimate only the target
// normals ICP reads (registration.PreparedFrame.FineTarget).
func EstimateNormalsAt(c *cloud.Slab, s search.Searcher, cfg NormalConfig, idx []int) int {
	if len(idx) == 0 {
		// An empty list names no point; a nil one would name them all.
		c.EnsureNormals()
		return 0
	}
	return estimateNormals(c, s, cfg, idx)
}

// estimateNormals fits the normals of the points idx names (every point
// when idx is nil): the one kernel behind both entry points.
func estimateNormals(c *cloud.Slab, s search.Searcher, cfg NormalConfig, idx []int) int {
	cfg.defaults()
	c.EnsureNormals()
	sw := takeNormalSweep(s.Parallelism())
	// Each point once: two workers fitting the same point would both
	// write its slot, and the degenerate tally counts points.
	idx = sw.distinct(idx, c.Len())
	forRadiusBlocks(s, c, idx, cfg.SearchRadius, func(w, i int, nbs []kdtree.Neighbor) {
		sc := &sw.scratch[w]
		p := c.At(i)
		if len(nbs) < minNeighbors {
			c.SetNormal(i, geom.Vec3{Z: 1})
			sc.degenerate++
			return
		}
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
	for w := range sw.scratch {
		total += sw.scratch[w].degenerate
	}
	idleNormalSweeps.Put(sw)
	return total
}

// normalSweep is what one estimateNormals call works out of: a scratch
// per sweep worker, reused for every point the worker fits, so the
// per-point kernels allocate nothing. Idle sweeps wait in a par.FreeList
// rather than being made per call — fine-tuning calls once per ICP
// iteration, and a scratch regrown each time was most of what that cost
// in allocation.
type normalSweep struct {
	scratch []normalScratch
	// seen and uniq back distinct: one mark per slab point, all clear
	// between calls, and the de-duplicated index list.
	seen []uint64
	uniq []int
}

var idleNormalSweeps par.FreeList[*normalSweep]

// takeNormalSweep returns an idle sweep (or a fresh one) with a scratch
// for each of workers workers and the degenerate tallies at zero.
func takeNormalSweep(workers int) *normalSweep {
	sw, ok := idleNormalSweeps.Get()
	if !ok {
		sw = new(normalSweep)
	}
	for len(sw.scratch) < par.Workers(workers) {
		sw.scratch = append(sw.scratch, normalScratch{})
	}
	for w := range sw.scratch {
		sw.scratch[w].degenerate = 0
	}
	return sw
}

// distinct returns idx without its repeats, in first-occurrence order, in
// the sweep's own buffer (nil, which names every point once, stays nil).
// n is the slab length.
func (sw *normalSweep) distinct(idx []int, n int) []int {
	if idx == nil {
		return nil
	}
	if words := (n + 63) / 64; len(sw.seen) < words {
		sw.seen = make([]uint64, words)
	}
	uniq := sw.uniq[:0]
	for _, i := range idx {
		if word, bit := &sw.seen[i>>6], uint64(1)<<(i&63); *word&bit == 0 {
			*word |= bit
			uniq = append(uniq, i)
		}
	}
	for _, i := range uniq {
		sw.seen[i>>6] = 0
	}
	sw.uniq = uniq
	return uniq
}

// normalScratch is one worker's reusable state for the per-point normal
// kernels: the neighborhood's positions, dequantized once per point, their
// coordinates in AreaWeighted's tangent plane, the azimuth-ordered fan it
// walks with the two buffers its sort works through, and the worker's
// tally of degenerate neighborhoods. The slices grow to the largest
// neighborhood the worker has seen and are then reused as they are.
type normalScratch struct {
	pts        []geom.Vec3
	tangent    []tangentCoord
	polar      []polarEntry
	polarTmp   []polarEntry
	sectorEnd  []int32
	degenerate int
}

// tangentCoord is a neighbor's (y, x) in a tangent plane, in atan2's
// argument order.
type tangentCoord struct{ y, x float64 }

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

	// The covariance is symmetric and d.X*d.Y == d.Y*d.X exactly, so the
	// six distinct sums, mirrored, are bit for bit the nine that adding
	// up OuterProduct(d, d) gives.
	var xx, xy, xz, yy, yz, zz float64
	for _, q := range sc.pts {
		d := q.Sub(centroid)
		xx += d.X * d.X
		xy += d.X * d.Y
		xz += d.X * d.Z
		yy += d.Y * d.Y
		yz += d.Y * d.Z
		zz += d.Z * d.Z
	}
	eig := linalg.EigenSym3(geom.Mat3{
		xx, xy, xz,
		xy, yy, yz,
		xz, yz, zz,
	})
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
	sc.tangent = sc.tangent[:0]
	for _, q := range sc.pts {
		d := q.Sub(p)
		sc.tangent = append(sc.tangent, tangentCoord{y: d.Dot(v), x: d.Dot(u)})
	}
	sc.orderFan()

	ordered := sc.polar
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

// orderFan fills sc.polar with the slots of sc.tangent in the stable order
// of their azimuths atan2(y, x) — without the arctangent wherever a
// cheaper key certifies that order. Entries are sorted by their diamond
// key, and only runs of keys closer than keyGuard take math.Atan2 to settle
// their order (settleTies). A fan with a non-finite coordinate gets NaN
// keys and some permutation of its slots, which is all it needs: the
// normal of a neighborhood holding a NaN or infinite point is NaN in any
// order.
func (sc *normalScratch) orderFan() {
	fan := sc.polar[:0]
	for j, t := range sc.tangent {
		fan = append(fan, polarEntry{slot: j, key: diamondKey(t.y, t.x)})
	}
	sc.polar = fan
	sc.sortPolar()
	sc.settleTies()
}

// keyGuard is the key gap at and above which the diamond key certifies an
// order: two computed keys that far apart belong to azimuths at least that
// far apart (the key grows no faster than the angle), and the key's and
// math.Atan2's own errors are a few 1e-16 each, a millionth of it.
const keyGuard = 1e-9

// diamondKey returns the pseudo-angle of (x, y) on the unit diamond,
// |y|/(|x|+|y|) carried into [-2, 2]: 2 minus it where x's sign bit is
// set, negated where y's is. In exact arithmetic it is strictly monotone
// in the azimuth θ = atan2(y, x), with dkey/dθ in [½, 1]; as computed it
// errs by a few 1e-16 and keeps math.Atan2's conventions at the ends: the
// origin keys ±0 or ±2 where atan2 gives ±0 or ±π, and so does a point
// where atan2's own y/x underflows. The key is NaN where |x|+|y| is not
// finite (a NaN, an infinity or an overflowing sum), so that it certifies
// nothing there.
func diamondKey(y, x float64) float64 {
	s := math.Abs(x) + math.Abs(y)
	switch {
	case s == 0:
		s = 1
	case s > math.MaxFloat64:
		return math.NaN()
	}
	t := math.Abs(y) / s
	// 2 − t where x's sign bit is set, t where not: the bit moved to
	// 2.0's exponent bit gives 2 or 0, and |0 − t| is t exactly.
	t = math.Abs(math.Float64frombits(math.Float64bits(x)>>63<<62) - t)
	key := math.Copysign(t, y)
	if key == -2 && y != 0 && math.Atan2(y, x) > 0 {
		// Both negative, and y/x underflowing to +0 inside math.Atan2,
		// which then answers +π for this hair above −π: follow it there.
		key = 2
	}
	return key
}

// polarEntry pairs a gathered neighbor's slot with its sort key in a
// tangent plane: a diamond key, or, where the key cannot decide, the
// azimuth.
type polarEntry struct {
	slot int
	key  float64
}

// settleTies gives the key-sorted fan (sc.polar) its azimuth order: every
// maximal run of entries whose neighboring keys are less than keyGuard
// apart takes its azimuths and is re-sorted by (azimuth, slot). Entries in
// different runs are certified apart, so those runs are the only places
// the key order can differ from the stable azimuth order — and the runs
// are common, the points of a facade column lying on one line through p.
func (sc *normalScratch) settleTies() {
	fan := sc.polar
	for lo := 0; lo < len(fan); {
		hi := lo + 1
		for hi < len(fan) && fan[hi].key-fan[hi-1].key < keyGuard {
			hi++
		}
		if run := fan[lo:hi]; len(run) > 1 {
			for i := range run {
				t := sc.tangent[run[i].slot]
				run[i].key = math.Atan2(t.y, t.x)
			}
			for i := 1; i < len(run); i++ {
				e := run[i]
				j := i
				for ; j > 0 && (e.key < run[j-1].key || e.key == run[j-1].key && e.slot < run[j-1].slot); j-- {
					run[j] = run[j-1]
				}
				run[j] = e
			}
		}
		lo = hi
	}
}

// fanInsertionRun is the fan length up to which sortPolar is a bare
// insertion sort, and the run length it seeds its merge passes with above
// that.
const fanInsertionRun = 12

// sortPolar orders the worker's fan (sc.polar) by key, stably: equal keys
// keep their neighbor order, which the fan's cross-product sum depends on.
// The insertion sort this replaces was O(k²) and a quarter of an
// AreaWeighted normal on a raw LiDAR cloud, whose fans average 35 entries
// and reach past 100. A fan longer than fanInsertionRun is first dealt, in
// order, into as many equal sectors of the diamond key's range [-2, 2] as
// it has entries — a counting pass, O(k), after which entries are at or
// next to their place whenever keys are spread — and then merge-sorted
// from short insertion-sorted runs, which bounds the whole at O(k log k)
// however the keys cluster. Sectors are monotone in the key and both
// passes are stable, and the stable order of NaN-free keys is unique: the
// result is the insertion sort's, entry for entry.
func (sc *normalScratch) sortPolar() {
	p := sc.polar
	n := len(p)
	if n <= fanInsertionRun {
		insertionSortPolar(p)
		return
	}
	if cap(sc.polarTmp) < n {
		sc.polarTmp = make([]polarEntry, cap(p))
		sc.sectorEnd = make([]int32, cap(p)+1)
	}
	sc.dealSectors()
	for lo := 0; lo < n; lo += fanInsertionRun {
		insertionSortPolar(p[lo:min(lo+fanInsertionRun, n)])
	}
	src, dst := p, sc.polarTmp[:n]
	for width := fanInsertionRun; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := min(lo+width, n), min(lo+2*width, n)
			l, r := lo, mid
			for k := lo; k < hi; k++ {
				// Take from the right run only when it is strictly
				// smaller: ties go to the left, which came first.
				if r < hi && (l == mid || src[r].key < src[l].key) {
					dst[k] = src[r]
					r++
				} else {
					dst[k] = src[l]
					l++
				}
			}
		}
		src, dst = dst, src
	}
	if &src[0] != &p[0] {
		copy(p, src)
	}
}

// insertionSortPolar is the stable sort of a short run.
func insertionSortPolar(run []polarEntry) {
	for i := 1; i < len(run); i++ {
		e := run[i]
		j := i
		for ; j > 0 && e.key < run[j-1].key; j-- {
			run[j] = run[j-1]
		}
		run[j] = e
	}
}

// dealSectors reorders sc.polar by sector: entry order is kept within a
// sector, and sector s holds the keys of [-2 + s·4/n, -2 + (s+1)·4/n).
func (sc *normalScratch) dealSectors() {
	p := sc.polar
	n := len(p)
	scale := float64(n) / 4
	sector := func(key float64) int {
		s := int((key + 2) * scale)
		// Also where a NaN's conversion lands: anywhere, but in range.
		if !(s >= 0) {
			return 0
		}
		return min(s, n-1)
	}
	end := sc.sectorEnd[:n+1]
	clear(end)
	for i := range p {
		end[sector(p[i].key)+1]++
	}
	for s := 1; s <= n; s++ {
		end[s] += end[s-1]
	}
	// end[s] is now where sector s starts, and moves to where it ends as
	// the sector fills.
	tmp := sc.polarTmp[:n]
	for i := range p {
		s := sector(p[i].key)
		tmp[end[s]] = p[i]
		end[s]++
	}
	copy(p, tmp)
}
