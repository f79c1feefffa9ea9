package cloud

import (
	"fmt"

	"tigris/internal/geom"
)

// Slab is the structure-of-arrays float32 point store: three contiguous
// per-axis coordinate slices, plus parallel normal slabs when normals
// have been estimated. It is the native representation of the search,
// feature, and ICP hot paths.
//
// Rationale (ROADMAP item 4, paper §search acceleration): the pipeline
// is memory-bound, so layout and precision are first-order performance
// levers. AoS []geom.Vec3 costs 24 B/point and interleaves the axes;
// the slab costs 12 B/point and keeps each axis contiguous, so per-axis
// split comparisons during KD-tree construction and traversal become
// sequential streams and leaf scans touch half the bytes.
//
// Precision contract: coordinates are quantized to float32 exactly once,
// on ingest. Every consumer dequantizes with At and performs all
// arithmetic in float64, so distances, accumulators, and transforms
// behave exactly as they would on an AoS cloud whose coordinates happen
// to be float32-representable. That makes determinism per precision
// trivial: the same slab yields bit-identical results at any
// Parallelism, and geom.Vec3.Quantize32 reproduces the stored values for
// oracles and golden tests.
type Slab struct {
	Xs, Ys, Zs []float32
	// NXs/NYs/NZs carry per-point normals: either all nil or all
	// len(Xs) long (populated by normal estimation).
	NXs, NYs, NZs []float32
}

// NewSlab returns a slab of n zeroed points (no normals).
func NewSlab(n int) *Slab {
	return &Slab{
		Xs: make([]float32, n),
		Ys: make([]float32, n),
		Zs: make([]float32, n),
	}
}

// SlabFromPoints quantizes an AoS point slice into a fresh slab.
func SlabFromPoints(pts []geom.Vec3) *Slab {
	s := NewSlab(len(pts))
	for i, p := range pts {
		s.Xs[i] = float32(p.X)
		s.Ys[i] = float32(p.Y)
		s.Zs[i] = float32(p.Z)
	}
	return s
}

// SlabFromCloud quantizes a cloud (points and, when present, normals)
// into a fresh slab.
func SlabFromCloud(c *Cloud) *Slab {
	s := SlabFromPoints(c.Points)
	if c.HasNormals() {
		s.EnsureNormals()
		for i, n := range c.Normals {
			s.NXs[i] = float32(n.X)
			s.NYs[i] = float32(n.Y)
			s.NZs[i] = float32(n.Z)
		}
	}
	return s
}

// Len returns the number of points.
func (s *Slab) Len() int { return len(s.Xs) }

// At dequantizes point i. All arithmetic downstream runs in float64 on
// these values, so results are independent of how the caller batches or
// parallelizes its reads.
func (s *Slab) At(i int) geom.Vec3 {
	return geom.Vec3{X: float64(s.Xs[i]), Y: float64(s.Ys[i]), Z: float64(s.Zs[i])}
}

// SetPoint quantizes p into slot i.
func (s *Slab) SetPoint(i int, p geom.Vec3) {
	s.Xs[i] = float32(p.X)
	s.Ys[i] = float32(p.Y)
	s.Zs[i] = float32(p.Z)
}

// HasNormals reports whether the normal slabs are populated.
func (s *Slab) HasNormals() bool {
	return s.NXs != nil && len(s.NXs) == len(s.Xs)
}

// EnsureNormals allocates zeroed normal slabs if absent.
func (s *Slab) EnsureNormals() {
	if s.HasNormals() {
		return
	}
	n := s.Len()
	s.NXs = make([]float32, n)
	s.NYs = make([]float32, n)
	s.NZs = make([]float32, n)
}

// NormalAt dequantizes normal i (call only when HasNormals).
func (s *Slab) NormalAt(i int) geom.Vec3 {
	return geom.Vec3{X: float64(s.NXs[i]), Y: float64(s.NYs[i]), Z: float64(s.NZs[i])}
}

// SetNormal quantizes n into normal slot i (call only when HasNormals).
func (s *Slab) SetNormal(i int, n geom.Vec3) {
	s.NXs[i] = float32(n.X)
	s.NYs[i] = float32(n.Y)
	s.NZs[i] = float32(n.Z)
}

// Reset truncates the slab to zero points, keeping the backing arrays so
// appends reuse their capacity. Normal slabs are truncated too (and stay
// active: a slab that had normals still HasNormals after Reset).
func (s *Slab) Reset() {
	s.Xs, s.Ys, s.Zs = s.Xs[:0], s.Ys[:0], s.Zs[:0]
	if s.NXs != nil {
		s.NXs, s.NYs, s.NZs = s.NXs[:0], s.NYs[:0], s.NZs[:0]
	}
}

// Append quantizes p onto the end of the slab. Callers that also append
// normals must keep the two in lockstep (AppendNormal after every
// Append).
func (s *Slab) Append(p geom.Vec3) {
	s.Xs = append(s.Xs, float32(p.X))
	s.Ys = append(s.Ys, float32(p.Y))
	s.Zs = append(s.Zs, float32(p.Z))
}

// AppendNormal quantizes n onto the end of the normal slabs.
func (s *Slab) AppendNormal(n geom.Vec3) {
	s.NXs = append(s.NXs, float32(n.X))
	s.NYs = append(s.NYs, float32(n.Y))
	s.NZs = append(s.NZs, float32(n.Z))
}

// Points materializes the dequantized points as a fresh AoS slice — an
// O(n) copy for diagnostics, tests, and tools; hot paths read At or the
// axis slices directly.
func (s *Slab) Points() []geom.Vec3 {
	pts := make([]geom.Vec3, s.Len())
	for i := range pts {
		pts[i] = s.At(i)
	}
	return pts
}

// Clone returns a deep copy.
func (s *Slab) Clone() *Slab {
	out := &Slab{
		Xs: append([]float32(nil), s.Xs...),
		Ys: append([]float32(nil), s.Ys...),
		Zs: append([]float32(nil), s.Zs...),
	}
	if s.HasNormals() {
		out.NXs = append([]float32(nil), s.NXs...)
		out.NYs = append([]float32(nil), s.NYs...)
		out.NZs = append([]float32(nil), s.NZs...)
	}
	return out
}

// TransformInPlace moves every point by t and rotates the normals,
// computing in float64 and re-quantizing the results.
func (s *Slab) TransformInPlace(t geom.Transform) {
	for i := range s.Xs {
		s.SetPoint(i, t.Apply(s.At(i)))
	}
	if s.HasNormals() {
		for i := range s.NXs {
			s.SetNormal(i, t.ApplyDirection(s.NormalAt(i)))
		}
	}
}

// Validate checks structural invariants: equal-length axis slices,
// finite coordinates, and normal slabs either absent or parallel.
func (s *Slab) Validate() error {
	if len(s.Ys) != len(s.Xs) || len(s.Zs) != len(s.Xs) {
		return fmt.Errorf("slab: axis slices differ: %d/%d/%d", len(s.Xs), len(s.Ys), len(s.Zs))
	}
	hasN := s.NXs != nil || s.NYs != nil || s.NZs != nil
	if hasN && (len(s.NXs) != len(s.Xs) || len(s.NYs) != len(s.Xs) || len(s.NZs) != len(s.Xs)) {
		return fmt.Errorf("slab: normal slabs not parallel: %d/%d/%d for %d points",
			len(s.NXs), len(s.NYs), len(s.NZs), len(s.Xs))
	}
	for i := range s.Xs {
		if !s.At(i).IsFinite() {
			return fmt.Errorf("slab: non-finite point %d: %v", i, s.At(i))
		}
	}
	return nil
}

// Dist2 returns the squared float64 distance between q and point i —
// the hot-path kernel shared by every search structure. The dequantized
// float64 arithmetic keeps results bit-identical to computing
// q.Dist2(s.At(i)).
func (s *Slab) Dist2(q geom.Vec3, i int) float64 {
	dx := q.X - float64(s.Xs[i])
	dy := q.Y - float64(s.Ys[i])
	dz := q.Z - float64(s.Zs[i])
	return dx*dx + dy*dy + dz*dz
}
