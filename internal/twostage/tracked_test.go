package twostage

import (
	"math"
	"math/rand"
	"testing"

	"tigris/internal/geom"
	"tigris/internal/kdtree"
)

// branchyScanNearest is the NN leaf kernel scanNearest replaced, kept as
// its reference: a float comparison and a branch per point.
func branchyScanNearest(t *Tree, l leafRun, q geom.Vec3, bound float64) (at int, d2 float64, writes int32) {
	xs, ys, zs := t.coordinates(l)
	at = -1
	for i, x := range xs {
		dx := q.X - float64(x)
		dy := q.Y - float64(ys[i])
		dz := q.Z - float64(zs[i])
		if d := dx*dx + dy*dy + dz*dz; d < bound {
			bound, at = d, i
			writes++
		}
	}
	if at >= 0 {
		at += int(l.lo)
	}
	return at, bound, writes
}

// kernelTree is a tree that is one leaf run over pts, in the order given
// and behind pad points the run does not cover, so positions are offset.
func kernelTree(pts [][3]float32) (*Tree, leafRun) {
	const pad = 3
	t := &Tree{}
	for i := 0; i < pad; i++ {
		t.lx, t.ly, t.lz = append(t.lx, -7), append(t.ly, -7), append(t.lz, -7)
	}
	for _, p := range pts {
		t.lx, t.ly, t.lz = append(t.lx, p[0]), append(t.ly, p[1]), append(t.lz, p[2])
	}
	return t, leafRun{pad, int32(pad + len(pts))}
}

// TestNearestKernelMatchesBranchyKernel: the branch-free kernel returns
// the branchy kernel's position, distance bits and write count at every
// bound, and its leaf minimum is the branchy kernel's answer with no bound
// — on random leaves, leaves with duplicates, leaves of one point repeated,
// leaves holding ±Inf and NaN coordinates of either sign, and queries on
// points, at ±Inf and at NaN.
func TestNearestKernelMatchesBranchyKernel(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	inf := float32(math.Inf(1))
	nan, negNaN := float32(math.NaN()), math.Float32frombits(0xffc00001)
	random := func(n int) [][3]float32 {
		pts := make([][3]float32, n)
		for i := range pts {
			pts[i] = [3]float32{float32(r.NormFloat64()), float32(r.NormFloat64()), float32(r.NormFloat64())}
		}
		return pts
	}
	dups := random(24)
	for i := 8; i < len(dups); i++ {
		dups[i] = dups[r.Intn(i)]
	}
	same := make([][3]float32, 9)
	for i := range same {
		same[i] = [3]float32{1, 2, 3}
	}
	odd := random(20)
	odd[2][0], odd[5][1], odd[9][2] = inf, -inf, inf
	odd[11][0], odd[14][1], odd[17] = nan, negNaN, [3]float32{nan, nan, nan}
	leaves := map[string][][3]float32{
		"empty":      nil,
		"one":        random(1),
		"random":     random(32),
		"duplicates": dups,
		"coincident": same,
		"nonfinite":  odd,
		"allnan":     {{nan, 0, 0}, {0, negNaN, 0}},
		"allinf":     {{inf, 0, 0}, {0, -inf, 0}},
	}
	qNaN, qNegNaN := math.NaN(), math.Float64frombits(0xfff8000000000001)
	for name, pts := range leaves {
		tree, l := kernelTree(pts)
		queries := []geom.Vec3{
			{}, geom.V3(1, 2, 3), geom.V3(math.Inf(1), 0, 0), geom.V3(0, math.Inf(-1), 0),
			geom.V3(qNaN, 0, 0), geom.V3(0, 0, qNegNaN), geom.V3(1e300, -1e300, 0),
		}
		for _, p := range pts {
			queries = append(queries, geom.V3(float64(p[0]), float64(p[1]), float64(p[2])))
		}
		for i := 0; i < 16; i++ {
			queries = append(queries, geom.V3(r.NormFloat64(), r.NormFloat64(), r.NormFloat64()))
		}
		for _, q := range queries {
			bounds := []float64{math.MaxFloat64, math.Inf(1), 0, 0.5, r.Float64() * 4, math.SmallestNonzeroFloat64}
			for _, p := range pts { // ties with the bound itself
				dx, dy, dz := q.X-float64(p[0]), q.Y-float64(p[1]), q.Z-float64(p[2])
				if d := dx*dx + dy*dy + dz*dz; d == d {
					bounds = append(bounds, d)
				}
			}
			wantLowAt, wantLow, _ := branchyScanNearest(tree, l, q, math.MaxFloat64)
			for _, bound := range bounds {
				at, d2, writes, lowAt, low := tree.scanNearest(l, q, bound)
				wantAt, wantD2, wantWrites := branchyScanNearest(tree, l, q, bound)
				if at != wantAt || math.Float64bits(d2) != math.Float64bits(wantD2) || writes != wantWrites {
					t.Fatalf("%s q=%v bound=%v: (%d, %v, %d), branchy kernel (%d, %v, %d)", name, q, bound, at, d2, writes, wantAt, wantD2, wantWrites)
				}
				if lowAt != wantLowAt || math.Float64bits(low) != math.Float64bits(wantLow) {
					t.Fatalf("%s q=%v bound=%v: leaf minimum (%d, %v), unbounded branchy kernel (%d, %v)", name, q, bound, lowAt, low, wantLowAt, wantLow)
				}
			}
		}
	}
}

// trackedCloud renders one of the fuzzer's clouds: uniform, with
// duplicates, planar (every z the same, so distances tie on a plane),
// clustered (tight blobs, so leaves hold near-equal distances), or a grid
// of integer coordinates (exact ties everywhere).
func trackedCloud(r *rand.Rand, n int, kind uint8) []geom.Vec3 {
	pts := make([]geom.Vec3, n)
	centers := make([]geom.Vec3, 1+r.Intn(4))
	for i := range centers {
		centers[i] = geom.V3(r.Float64()*20-10, r.Float64()*20-10, r.Float64()*4)
	}
	for i := range pts {
		switch kind % 5 {
		case 0:
			pts[i] = geom.V3(r.Float64()*20-10, r.Float64()*20-10, r.Float64()*4)
		case 1:
			if i > 0 && r.Intn(3) == 0 {
				pts[i] = pts[r.Intn(i)]
			} else {
				pts[i] = geom.V3(r.Float64()*20-10, r.Float64()*20-10, r.Float64()*4)
			}
		case 2:
			pts[i] = geom.V3(r.Float64()*20-10, r.Float64()*20-10, 1.5)
		case 3:
			c := centers[r.Intn(len(centers))]
			pts[i] = c.Add(geom.V3(r.NormFloat64()*0.05, r.NormFloat64()*0.05, r.NormFloat64()*0.05))
		default:
			pts[i] = geom.V3(float64(r.Intn(8)), float64(r.Intn(8)), float64(r.Intn(3)))
		}
	}
	return pts
}

// rigidStep moves every query by one rigid motion: a rotation by angle
// about a random axis through a random center, then a translation of the
// given length.
func rigidStep(r *rand.Rand, qs []geom.Vec3, moved []float64, angle, shift float64) {
	axis := geom.V3(r.NormFloat64(), r.NormFloat64(), r.NormFloat64())
	if axis.Norm() == 0 {
		axis = geom.V3(0, 0, 1)
	}
	axis = axis.Scale(1 / axis.Norm())
	c := geom.V3(r.Float64()*20-10, r.Float64()*20-10, r.Float64()*4)
	dir := geom.V3(r.NormFloat64(), r.NormFloat64(), r.NormFloat64())
	if n := dir.Norm(); n > 0 {
		dir = dir.Scale(shift / n)
	}
	sin, cos := math.Sincos(angle)
	for i, q := range qs {
		p := q.Sub(c)
		// Rodrigues' rotation of p about axis.
		rot := p.Scale(cos).Add(axis.Cross(p).Scale(sin)).Add(axis.Scale(axis.Dot(p) * (1 - cos)))
		move(qs, moved, i, rot.Add(c).Add(dir))
	}
}

// move puts query i at p and charges the distance to its budget, as ICP's
// pass over its queries does.
func move(qs []geom.Vec3, moved []float64, i int, p geom.Vec3) {
	d := p.Sub(qs[i])
	moved[i] += math.Sqrt(d.X*d.X + d.Y*d.Y + d.Z*d.Z)
	qs[i] = p
}

// edgeStep moves each query along a random direction by the distance at
// which its certificate's check turns from passing to failing, found by
// bisection, and then nudged to one side of it or the other.
func edgeStep(r *rand.Rand, tree *Tree, qs []geom.Vec3, certs []Cert, moved []float64) {
	for i, q := range qs {
		c := certs[i]
		slack := c.reach - moved[i]*(1+certRel)
		if !(slack > 0) {
			continue
		}
		dir := geom.V3(r.NormFloat64(), r.NormFloat64(), r.NormFloat64())
		if dir.Norm() == 0 {
			continue
		}
		dir = dir.Scale(1 / dir.Norm())
		passes := func(m float64) bool {
			nb, ok := tree.nearestIn(c.set, q.Add(dir.Scale(m)), nil)
			return ok && math.Sqrt(nb.Dist2) < c.reach-(moved[i]+m)*(1+certRel)
		}
		lo, hi := 0.0, slack
		if !passes(lo) {
			continue
		}
		for k := 0; k < 80 && lo < hi; k++ {
			mid := lo + (hi-lo)/2
			if passes(mid) {
				lo = mid
			} else {
				hi = mid
			}
		}
		m := lo
		if r.Intn(2) == 0 {
			m = hi
		}
		move(qs, moved, i, q.Add(dir.Scale(m)))
	}
}

// FuzzTrackedNearest: queries that move as ICP's do, through sequences of
// rigid motions — none, millimetres, metres — of moves to the very edge
// of each query's certificate, and of jumps to non-finite positions and
// back, are answered by NearestTracked exactly as a fresh Nearest answers
// them (index and distance bits), with one query counted per call.
func FuzzTrackedNearest(f *testing.F) {
	for kind := uint8(0); kind < 5; kind++ {
		f.Add(int64(kind)+1, uint16(300), kind, uint8(8))
	}
	f.Add(int64(9), uint16(0), uint8(0), uint8(4))
	f.Add(int64(10), uint16(1), uint8(1), uint8(1))
	f.Add(int64(11), uint16(700), uint8(3), uint8(32))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, kind, leaf uint8) {
		r := rand.New(rand.NewSource(seed))
		pts := trackedCloud(r, int(n%1200), kind)
		tree := BuildWithLeafSize(pts, 1+int(leaf%64))
		qs := make([]geom.Vec3, 48)
		for i := range qs {
			switch {
			case len(pts) > 0 && i%3 == 0:
				qs[i] = tree.Slab().At(r.Intn(len(pts))) // on a point
			case len(pts) > 0:
				qs[i] = pts[r.Intn(len(pts))].Add(geom.V3(r.NormFloat64()*0.3, r.NormFloat64()*0.3, r.NormFloat64()*0.3))
			default:
				qs[i] = geom.V3(r.NormFloat64(), r.NormFloat64(), r.NormFloat64())
			}
		}
		certs, moved := make([]Cert, len(qs)), make([]float64, len(qs))
		var parked []geom.Vec3 // positions of queries sent off to non-finite ones
		for step := 0; step < 14; step++ {
			for i, q := range qs {
				var st Stats
				got, gotOK := tree.NearestTracked(q, &certs[i], &moved[i], &st)
				want, wantOK := tree.Nearest(q, nil)
				if gotOK != wantOK || got.Index != want.Index || math.Float64bits(got.Dist2) != math.Float64bits(want.Dist2) {
					t.Fatalf("step %d query %d at %v: tracked (%+v, %v), fresh walk (%+v, %v)", step, i, q, got, gotOK, want, wantOK)
				}
				if st.Queries != 1 {
					t.Fatalf("step %d query %d: counted %d queries", step, i, st.Queries)
				}
			}
			switch r.Intn(7) {
			case 0: // no motion
				rigidStep(r, qs, moved, 0, 0)
			case 1: // an ICP iteration's millimetres
				rigidStep(r, qs, moved, r.NormFloat64()*2e-3, r.Float64()*5e-3)
			case 2: // centimetres to metres
				rigidStep(r, qs, moved, r.NormFloat64()*0.05, r.Float64()*r.Float64()*3)
			case 3, 4:
				edgeStep(r, tree, qs, certs, moved)
			case 5: // off to non-finite positions
				if parked == nil {
					parked = append([]geom.Vec3(nil), qs...)
					bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
					for i := range qs {
						if r.Intn(3) == 0 {
							p := qs[i]
							p.X = bad[r.Intn(len(bad))]
							move(qs, moved, i, p)
						}
					}
				}
			default: // and back
				if parked != nil {
					for i := range qs {
						move(qs, moved, i, parked[i])
					}
					parked = nil
				}
			}
		}
	})
}

// TestTrackedNearestCounts: a tracked call counts one query, whichever
// way it is answered, and counts the distances it computed: a certified
// answer only its set's (the leaf set's points, or the one top-tree
// point), a failed check its set's and then the walk's, an uncertified
// query the walk's alone. The three cases must all occur.
func TestTrackedNearestCounts(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	pts := randPoints(r, 3000)
	tree := Build(pts, 6)
	qs := make([]geom.Vec3, 400)
	for i := range qs {
		qs[i] = pts[r.Intn(len(pts))].Add(geom.V3(r.NormFloat64()*0.2, r.NormFloat64()*0.2, 0))
	}
	certs, moved := make([]Cert, len(qs)), make([]float64, len(qs))
	var certified, failed, walked int
	for step := 0; step < 6; step++ {
		for i, q := range qs {
			c, m := certs[i], moved[i]
			var walk Stats
			tree.Nearest(q, &walk)
			want := Stats{Queries: 1}
			path := &walked
			if slack := c.reach - m*(1+certRel); slack > 0 {
				var set Stats
				nb, ok := tree.nearestIn(c.set, q, &set)
				want.TopNodesVisited, want.LeafPointsViewed = set.TopNodesVisited, set.LeafPointsViewed
				path = &certified
				if !ok || !(math.Sqrt(nb.Dist2) < slack) {
					want.Merge(walk)
					want.Queries = 1
					path = &failed
				}
			} else {
				want = walk
			}
			var got Stats
			tree.NearestTracked(q, &certs[i], &moved[i], &got)
			if got != want {
				t.Fatalf("step %d query %d: counted %+v, want %+v", step, i, got, want)
			}
			*path++
		}
		rigidStep(r, qs, moved, r.NormFloat64()*0.01, r.Float64()*0.05)
	}
	if certified == 0 || failed == 0 || walked == 0 {
		t.Fatalf("%d certified, %d failed checks, %d uncertified walks: the workload misses a case", certified, failed, walked)
	}
}

// TestCertificateBoundsEveryOtherPoint: the gap a walk proves is a lower
// bound on the distance to every point outside the certified set, and the
// set holds the answer — checked against every point of the cloud.
func TestCertificateBoundsEveryOtherPoint(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	pts := scanCloud(r, 2000)
	for _, h := range []int{0, 1, 4, 7, HeightForLeafSize(len(pts), 1)} {
		tree := Build(pts, h)
		slab := tree.Slab()
		inSet := make([]bool, len(pts))
		for _, q := range scanQueries(r, slab)[len(pts)-200 : len(pts)+200] {
			w := tree.walk(q, true, nil, nil)
			if w.best.Index < 0 {
				t.Fatalf("h=%d q=%v: no answer", h, q)
			}
			clear(inSet)
			if w.set.IsLeaf() {
				for _, pi := range tree.Leaves()[w.set.LeafID()] {
					inSet[pi] = true
				}
			} else {
				inSet[tree.nodes[w.set].Point] = true
			}
			if !inSet[w.best.Index] {
				t.Fatalf("h=%d q=%v: answer %d is not in the certified set", h, q, w.best.Index)
			}
			for i := range pts {
				if d2 := slab.Dist2(q, i); !inSet[i] && d2 < w.gap2 {
					t.Fatalf("h=%d q=%v: point %d outside the set at %v, under the gap %v", h, q, i, d2, w.gap2)
				}
			}
			if want, _ := kdtree.BruteNearestSlab(slab, q); want.Dist2 != w.best.Dist2 {
				t.Fatalf("h=%d q=%v: walk found %v, oracle %v", h, q, w.best, want)
			}
		}
	}
}
