// Package geom provides the 3D geometric primitives used throughout Tigris:
// vectors, 3×3 and 4×4 matrices, quaternions, and rigid-body transforms.
//
// Point cloud registration (paper §2.2) estimates a 4×4 homogeneous
// transformation matrix M = [R t; 0 1] with a 3×3 rotation R and a 3×1
// translation t; this package supplies those types and the operations the
// pipeline needs (composition, inversion, application to points, and
// rotation-angle extraction for the KITTI error metrics).
package geom

import (
	"fmt"
	"math"
)

// Vec3 is a point or direction in 3D Cartesian space.
type Vec3 struct {
	X, Y, Z float64
}

// V3 constructs a Vec3.
func V3(x, y, z float64) Vec3 { return Vec3{x, y, z} }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s·v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Neg returns -v.
func (v Vec3) Neg() Vec3 { return Vec3{-v.X, -v.Y, -v.Z} }

// Dot returns the dot product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v×w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Norm2 returns the squared Euclidean length of v.
func (v Vec3) Norm2() float64 { return v.Dot(v) }

// Dist returns the Euclidean distance between v and w.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// Dist2 returns the squared Euclidean distance between v and w. KD-tree
// search compares squared distances to avoid square roots on the hot path.
func (v Vec3) Dist2(w Vec3) float64 {
	dx, dy, dz := v.X-w.X, v.Y-w.Y, v.Z-w.Z
	return dx*dx + dy*dy + dz*dz
}

// Normalize returns v scaled to unit length. The zero vector is returned
// unchanged so callers need not special-case degenerate inputs.
func (v Vec3) Normalize() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Component returns the axis-indexed coordinate: 0→X, 1→Y, 2→Z.
// KD-tree construction cycles through split axes by index.
func (v Vec3) Component(axis int) float64 {
	switch axis {
	case 0:
		return v.X
	case 1:
		return v.Y
	default:
		return v.Z
	}
}

// Quantize32 rounds each component through float32 and back, producing
// the exact value an SoA float32 slab (internal/cloud.Slab) would store
// and dequantize. Search structures quantize their points on ingest, so
// oracles and golden tests snap their inputs with this to stay
// bit-identical with the trees.
func (v Vec3) Quantize32() Vec3 {
	return Vec3{
		X: float64(float32(v.X)),
		Y: float64(float32(v.Y)),
		Z: float64(float32(v.Z)),
	}
}

// IsFinite reports whether all components are finite numbers.
func (v Vec3) IsFinite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

// String implements fmt.Stringer.
func (v Vec3) String() string {
	return fmt.Sprintf("(%.4g, %.4g, %.4g)", v.X, v.Y, v.Z)
}

// OrthoBasis returns two unit vectors u, t such that {v̂, u, t} form a
// right-handed orthonormal basis. Used by the descriptor calculations to
// build local reference frames (SHOT, 3DSC).
func (v Vec3) OrthoBasis() (Vec3, Vec3) {
	n := v.Normalize()
	// Pick the axis least aligned with n to avoid degeneracy.
	ref := Vec3{1, 0, 0}
	if math.Abs(n.X) > math.Abs(n.Y) {
		ref = Vec3{0, 1, 0}
	}
	u := n.Cross(ref).Normalize()
	t := n.Cross(u)
	return u, t
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

// Aabb is an axis-aligned bounding box. Each non-leaf KD-tree node
// corresponds to one (paper §4.1); pruning tests a query hypersphere
// against it.
type Aabb struct {
	Min, Max Vec3
}

// EmptyAabb returns an inverted box that Extend can grow from.
func EmptyAabb() Aabb {
	inf := math.Inf(1)
	return Aabb{Min: Vec3{inf, inf, inf}, Max: Vec3{-inf, -inf, -inf}}
}

// Extend grows the box to contain p.
func (b *Aabb) Extend(p Vec3) {
	b.Min.X = math.Min(b.Min.X, p.X)
	b.Min.Y = math.Min(b.Min.Y, p.Y)
	b.Min.Z = math.Min(b.Min.Z, p.Z)
	b.Max.X = math.Max(b.Max.X, p.X)
	b.Max.Y = math.Max(b.Max.Y, p.Y)
	b.Max.Z = math.Max(b.Max.Z, p.Z)
}

// Size returns the box extent along each axis.
func (b Aabb) Size() Vec3 { return b.Max.Sub(b.Min) }
