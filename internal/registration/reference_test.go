package registration

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"tigris/internal/cloud"
	"tigris/internal/geom"
	"tigris/internal/par"
)

// The point-to-plane solve and the RMSE pass run straight-line kernels
// (transform_slab.go). This file keeps the forms they replaced — Apply
// per point, the Jacobian row folded by nested loops into a full 6×6, a
// solve that copies its inputs, and a chunked reduction that always
// collects its partials — as the oracle the kernels must match bit for
// bit.

// lmTrace is how a reference solve went: trials whose cost fell, trials
// whose cost did not (each raises λ), and whether an iteration found no
// improving step at all.
type lmTrace struct {
	accepted, rejected int
	stalled            bool
}

func refReduceChunks[P any](n, workers int, eval func(lo, hi int) P, fold func(acc, p P) P) P {
	if n <= accumChunk {
		return eval(0, n)
	}
	workers = par.Workers(workers)
	parts := make([]P, (n+accumChunk-1)/accumChunk)
	par.ForChunks(n, workers, accumChunk, func(_, lo, hi int) {
		parts[lo/accumChunk] = eval(lo, hi)
	})
	acc := parts[0]
	for _, p := range parts[1:] {
		acc = fold(acc, p)
	}
	return acc
}

// refSolveDense is Gaussian elimination with partial pivoting on copies
// of its inputs.
func refSolveDense(a, b []float64) ([]float64, error) {
	n := len(b)
	m := append([]float64(nil), a...)
	x := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		pivot := col
		maxAbs := math.Abs(m[col*n+col])
		for r := col + 1; r < n; r++ {
			if abs := math.Abs(m[r*n+col]); abs > maxAbs {
				maxAbs = abs
				pivot = r
			}
		}
		if maxAbs < 1e-300 {
			return nil, errors.New("singular")
		}
		if pivot != col {
			for c := 0; c < n; c++ {
				m[col*n+c], m[pivot*n+c] = m[pivot*n+c], m[col*n+c]
			}
			x[col], x[pivot] = x[pivot], x[col]
		}
		inv := 1 / m[col*n+col]
		for r := col + 1; r < n; r++ {
			f := m[r*n+col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m[r*n+c] -= f * m[col*n+c]
			}
			x[r] -= f * x[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		s := x[r]
		for c := r + 1; c < n; c++ {
			s -= m[r*n+c] * x[c]
		}
		x[r] = s / m[r*n+r]
	}
	return x, nil
}

type refNormalEq struct {
	jtj [36]float64
	jtr [6]float64
}

func (p refNormalEq) add(o refNormalEq) refNormalEq {
	for i := range p.jtj {
		p.jtj[i] += o.jtj[i]
	}
	for i := range p.jtr {
		p.jtr[i] += o.jtr[i]
	}
	return p
}

func refPlaneCost(t geom.Transform, src, dst *cloud.Slab, workers int) float64 {
	return refReduceChunks(src.Len(), workers,
		func(lo, hi int) float64 {
			var s float64
			for i := lo; i < hi; i++ {
				r := t.Apply(src.At(i)).Sub(dst.At(i)).Dot(dst.NormalAt(i))
				s += r * r
			}
			return s
		},
		func(a, b float64) float64 { return a + b })
}

func refEstimatePointToPlane(src, dst *cloud.Slab, workers int) (geom.Transform, bool, lmTrace) {
	var tr lmTrace
	if src.Len() != dst.Len() || !dst.HasNormals() || src.Len() < 6 {
		return geom.IdentityTransform(), false, tr
	}
	cur := geom.IdentityTransform()
	lambda := 1e-4
	cost := refPlaneCost(cur, src, dst, workers)
	for iter := 0; iter < 6; iter++ {
		eq := refReduceChunks(src.Len(), workers,
			func(lo, hi int) refNormalEq {
				var p refNormalEq
				for i := lo; i < hi; i++ {
					s := cur.Apply(src.At(i))
					n := dst.NormalAt(i)
					r := s.Sub(dst.At(i)).Dot(n)
					c := s.Cross(n)
					row := [6]float64{c.X, c.Y, c.Z, n.X, n.Y, n.Z}
					for a := 0; a < 6; a++ {
						p.jtr[a] += row[a] * r
						for b := a; b < 6; b++ {
							p.jtj[a*6+b] += row[a] * row[b]
						}
					}
				}
				return p
			},
			refNormalEq.add)
		jtj, jtr := eq.jtj, eq.jtr
		for a := 0; a < 6; a++ {
			for b := 0; b < a; b++ {
				jtj[a*6+b] = jtj[b*6+a]
			}
		}
		var neg [6]float64
		for a := 0; a < 6; a++ {
			neg[a] = -jtr[a]
		}
		improved := false
		for attempt := 0; attempt < 8; attempt++ {
			damped := jtj
			for a := 0; a < 6; a++ {
				d := jtj[a*6+a]
				if d == 0 {
					d = 1
				}
				damped[a*6+a] += lambda * d
			}
			delta, err := refSolveDense(damped[:], neg[:])
			if err != nil {
				lambda *= 10
				continue
			}
			trial := twistToTransform(delta).Compose(cur)
			trialCost := refPlaneCost(trial, src, dst, workers)
			if trialCost < cost {
				tr.accepted++
				cur = trial
				cost = trialCost
				lambda = math.Max(lambda*0.3, 1e-12)
				improved = true
				if vecNorm6(delta) < 1e-10 {
					return cur, true, tr
				}
				break
			}
			tr.rejected++
			lambda *= 10
		}
		if !improved {
			tr.stalled = true
			break
		}
	}
	return cur, true, tr
}

func refAlignmentRMSE(t geom.Transform, src, dst *cloud.Slab, workers int) float64 {
	if src.Len() == 0 {
		return 0
	}
	s := refReduceChunks(src.Len(), workers,
		func(lo, hi int) float64 {
			var p float64
			for i := lo; i < hi; i++ {
				p += t.Apply(src.At(i)).Dist2(dst.At(i))
			}
			return p
		},
		func(a, b float64) float64 { return a + b })
	return math.Sqrt(s / float64(src.Len()))
}

// transformBits and vecBits are the bit patterns of every entry, so ==
// on them tells ±0 apart and matches NaNs by payload.
func transformBits(t geom.Transform) (b [12]uint64) {
	for i, v := range t.R {
		b[i] = math.Float64bits(v)
	}
	tb := vecBits(t.T)
	copy(b[9:], tb[:])
	return b
}

func vecBits(v geom.Vec3) [3]uint64 {
	return [3]uint64{math.Float64bits(v.X), math.Float64bits(v.Y), math.Float64bits(v.Z)}
}

// planeFixture is n float32 correspondences on a few planes: dst is the
// source moved by a small rigid motion (angle in radians about a tilted
// axis, translation shift), plus noise of the given deviation, and
// carries the planes' normals. With parallel set every normal is the
// same one, so the normal equations see one direction only.
func planeFixture(n int, seed int64, angle, shift, noise float64, parallel bool) (src, dst *cloud.Slab) {
	r := rand.New(rand.NewSource(seed))
	motion := geom.Transform{
		R: geom.AxisAngle(geom.Vec3{X: 0.3, Y: -0.5, Z: 1}.Normalize(), angle),
		T: geom.Vec3{X: shift, Y: -0.6 * shift, Z: 0.3 * shift},
	}
	planes := []geom.Vec3{{Z: 1}, {X: 1}, {Y: 1}, geom.Vec3{X: 1, Y: 1, Z: 1}.Normalize()}
	src, dst = cloud.NewSlab(0), cloud.NewSlab(0)
	dst.EnsureNormals()
	for i := 0; i < n; i++ {
		nrm := planes[0]
		if !parallel {
			nrm = planes[i%len(planes)]
		}
		u, v := nrm.OrthoBasis()
		p := u.Scale(r.Float64()*20 - 10).Add(v.Scale(r.Float64()*20 - 10)).Add(nrm.Scale(float64(i % 3)))
		q := motion.Apply(p).Add(geom.Vec3{X: r.NormFloat64(), Y: r.NormFloat64(), Z: r.NormFloat64()}.Scale(noise))
		src.Append(p)
		dst.Append(q)
		dst.AppendNormal(motion.ApplyDirection(nrm))
	}
	return src, dst
}

// checkAgainstReference holds estimatePointToPlaneSlabPar, the RMSE pass
// at its answer and moveAll to the reference forms, bit for bit, and
// returns the reference solve's trace.
func checkAgainstReference(t *testing.T, name string, src, dst *cloud.Slab, workers int) lmTrace {
	t.Helper()
	want, wantOK, tr := refEstimatePointToPlane(src, dst, workers)
	got, gotOK := estimatePointToPlaneSlabPar(src, dst, workers)
	if gotOK != wantOK || transformBits(got) != transformBits(want) {
		t.Fatalf("%s, %d workers: point-to-plane = %v, %v; reference %v, %v", name, workers, got, gotOK, want, wantOK)
	}
	wantRMSE := refAlignmentRMSE(want, src, dst, workers)
	if gotRMSE := alignmentRMSESlabPar(want, src, dst, workers); math.Float64bits(gotRMSE) != math.Float64bits(wantRMSE) {
		t.Fatalf("%s, %d workers: RMSE = %v, reference %v", name, workers, gotRMSE, wantRMSE)
	}
	pts := src.Points()
	moveAll(want, pts, nil)
	for i, p := range pts {
		if q := want.Apply(src.At(i)); vecBits(p) != vecBits(q) {
			t.Fatalf("%s: moveAll moved point %d to %v, Apply to %v", name, i, p, q)
		}
	}
	return tr
}

func TestPointToPlaneBitIdenticalToReference(t *testing.T) {
	// Below the solver's minimum, one chunk less one, exactly one, one
	// more, and three chunks and a point.
	for _, n := range []int{5, accumChunk - 1, accumChunk, accumChunk + 1, 3*accumChunk + 1} {
		src, dst := planeFixture(n, int64(n), 0.05, 0.4, 0.01, false)
		for _, workers := range []int{1, 2, 4} {
			checkAgainstReference(t, "planes", src, dst, workers)
		}
	}

	// Parallel normals: the equations see one direction, the other five
	// are held by the damping alone, and trials are refused until λ has
	// grown.
	src, dst := planeFixture(3*accumChunk+1, 3, 0.05, 2, 0.01, true)
	for _, workers := range []int{1, 2, 4} {
		if tr := checkAgainstReference(t, "parallel normals", src, dst, workers); tr.rejected == 0 {
			t.Errorf("parallel normals at %d workers: trace %+v, want refused trials (λ escalating)", workers, tr)
		}
	}

	// A stalled solve: the pairs already coincide, the cost is 0 and no
	// trial can lower it.
	src, _ = planeFixture(accumChunk+1, 5, 0, 0, 0, false)
	dst = src.Clone()
	dst.EnsureNormals()
	for i := 0; i < dst.Len(); i++ {
		dst.SetNormal(i, geom.Vec3{X: 0.6, Z: 0.8})
	}
	for _, workers := range []int{1, 2, 4} {
		if tr := checkAgainstReference(t, "stalled", src, dst, workers); !tr.stalled || tr.accepted != 0 {
			t.Errorf("coincident pairs at %d workers: trace %+v, want a stall with no step taken", workers, tr)
		}
	}
}

// FuzzPointToPlane holds the kernels to the reference on fixtures the
// fuzzer shapes: size, seed, motion, noise, normals and worker count.
func FuzzPointToPlane(f *testing.F) {
	f.Add(uint16(40), int64(1), 0.05, 0.4, 0.01, false, uint8(1))
	f.Add(uint16(accumChunk+1), int64(2), 0.3, 2.0, 0.05, true, uint8(2))
	f.Add(uint16(6), int64(3), 0.0, 0.0, 0.0, false, uint8(4))
	f.Fuzz(func(t *testing.T, n uint16, seed int64, angle, shift, noise float64, parallel bool, workers uint8) {
		size := int(n) % (2*accumChunk + 2)
		src, dst := planeFixture(size, seed, angle, shift, noise, parallel)
		checkAgainstReference(t, "fuzz", src, dst, 1+int(workers)%4)
	})
}

// BenchmarkEstimatePointToPlane times one LM solve over 6,200 pairs, the
// size of a DP5 frame's correspondence set (stride 3 over a 32×600
// frame), at one worker.
func BenchmarkEstimatePointToPlane(b *testing.B) {
	src, dst := planeFixture(6200, 11, 0.05, 0.4, 0.01, false)
	b.ReportAllocs()
	for b.Loop() {
		estimatePointToPlaneSlabPar(src, dst, 1)
	}
}
