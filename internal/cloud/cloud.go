// Package cloud provides the point cloud container and the basic
// manipulations the registration pipeline needs: rigid transformation,
// voxel-grid downsampling, bounding boxes, and a simple ASCII interchange
// format modeled on PCD.
//
// A point cloud (paper §2.1) is a collection of <x,y,z> points in a 3D
// Cartesian frame; normals and other per-point metadata are carried in
// parallel slices so the hot search paths can operate on the bare
// coordinates.
package cloud

import (
	"fmt"
	"math"

	"tigris/internal/geom"
	"tigris/internal/par"
)

// Cloud is a point cloud frame. Points is always populated; Normals is
// either nil or exactly len(Points) long (populated by the Normal
// Estimation stage).
type Cloud struct {
	Points  []geom.Vec3
	Normals []geom.Vec3
}

// New returns an empty cloud with capacity for n points.
func New(n int) *Cloud {
	return &Cloud{Points: make([]geom.Vec3, 0, n)}
}

// FromPoints wraps a point slice in a Cloud without copying.
func FromPoints(pts []geom.Vec3) *Cloud {
	return &Cloud{Points: pts}
}

// Len returns the number of points.
func (c *Cloud) Len() int { return len(c.Points) }

// HasNormals reports whether per-point normals are populated.
func (c *Cloud) HasNormals() bool {
	return c.Normals != nil && len(c.Normals) == len(c.Points)
}

// Clone returns a deep copy of the cloud.
func (c *Cloud) Clone() *Cloud {
	out := &Cloud{Points: make([]geom.Vec3, len(c.Points))}
	copy(out.Points, c.Points)
	if c.Normals != nil {
		out.Normals = make([]geom.Vec3, len(c.Normals))
		copy(out.Normals, c.Normals)
	}
	return out
}

// Transform returns a new cloud with every point moved by t (Eq. 1 of the
// paper: X' = R·X + T) and normals rotated.
func (c *Cloud) Transform(t geom.Transform) *Cloud {
	out := &Cloud{Points: make([]geom.Vec3, len(c.Points))}
	for i, p := range c.Points {
		out.Points[i] = t.Apply(p)
	}
	if c.HasNormals() {
		out.Normals = make([]geom.Vec3, len(c.Normals))
		for i, n := range c.Normals {
			out.Normals[i] = t.ApplyDirection(n)
		}
	}
	return out
}

// Bounds returns the axis-aligned bounding box of the cloud.
func (c *Cloud) Bounds() geom.Aabb {
	b := geom.EmptyAabb()
	for _, p := range c.Points {
		b.Extend(p)
	}
	return b
}

// voxelKey identifies one cell of the downsampling grid.
type voxelKey struct {
	X, Y, Z int32
}

// voxelCell accumulates the points that fell in one cell.
type voxelCell struct {
	sum   geom.Vec3
	count int
}

// voxelGrid is the scratch one downsampling pass fills: the cells in
// order of their first point, and the key → cell index that finds them.
// A frame's grid is dead once its centroids are written out, so grids are
// recycled across calls (a streaming session downsamples every frame);
// clearing the map keeps its buckets.
type voxelGrid struct {
	index map[voxelKey]int32
	cells []voxelCell
}

var voxelGrids par.FreeList[*voxelGrid]

// VoxelDownsampleSlab returns a new slab with at most one point per cubic
// voxel of the given edge length: the centroid of the points that fell in
// the cell, in order of each cell's first point. A point whose cell index
// does not fit in int32 on some axis (a huge coordinate, or a tiny leaf)
// is a cell of its own. Registration front-ends
// routinely downsample dense LiDAR frames before key-point detection; the
// leaf size is one of the pipeline's parametric knobs. Cell keys are
// computed from the dequantized coordinates, centroids accumulate in
// float64, and the result is re-quantized into a fresh slab (its columns
// drawn from the ones released slabs handed back). Normals are
// not carried over (the front-end estimates them on the downsampled
// cloud).
func VoxelDownsampleSlab(s *Slab, leaf float64) *Slab {
	if leaf <= 0 || s.Len() == 0 {
		return s.Clone()
	}
	g, ok := voxelGrids.Get()
	if !ok {
		g = &voxelGrid{index: make(map[voxelKey]int32, s.Len()/4+1)}
	}
	inv := 1 / leaf
	for i := 0; i < s.Len(); i++ {
		p := s.At(i)
		x, okX := voxelIndex(p.X, inv)
		y, okY := voxelIndex(p.Y, inv)
		z, okZ := voxelIndex(p.Z, inv)
		ci := int32(len(g.cells))
		if okX && okY && okZ {
			k := voxelKey{X: x, Y: y, Z: z}
			if seen, ok := g.index[k]; ok {
				ci = seen
			} else {
				g.index[k] = ci
			}
		}
		if ci == int32(len(g.cells)) {
			g.cells = append(g.cells, voxelCell{})
		}
		c := &g.cells[ci]
		c.sum = c.sum.Add(p)
		c.count++
	}
	out := takeSlab(len(g.cells))
	for i, c := range g.cells {
		out.SetPoint(i, c.sum.Scale(1/float64(c.count)))
	}
	clear(g.index)
	g.cells = g.cells[:0]
	voxelGrids.Put(g)
	return out
}

// voxelIndex returns floor(x·inv), the cell index of coordinate x, and
// whether it fits a voxelKey field. Converting a float outside int32's
// range is implementation-defined in Go, and on amd64 sends every such
// value to one index, so a point whose index does not fit (or is NaN)
// has no key: it is a cell of its own, never merged.
func voxelIndex(x, inv float64) (int32, bool) {
	f := math.Floor(x * inv)
	if !(f >= math.MinInt32 && f <= math.MaxInt32) {
		return 0, false
	}
	return int32(f), true
}

// Validate checks what everything below ingest relies on: a normals slice
// that is either nil or parallel to the points, and coordinates and
// normals that are finite as float32 — the precision every slab and index
// holds them at, where 1e300 is +Inf and a NaN is unordered against every
// split plane a search prunes on.
func (c *Cloud) Validate() error {
	if c.Normals != nil && len(c.Normals) != len(c.Points) {
		return fmt.Errorf("cloud: %d normals for %d points", len(c.Normals), len(c.Points))
	}
	for i, p := range c.Points {
		if !finite32(p) {
			return fmt.Errorf("cloud: point %d is not finite in float32: %v", i, p)
		}
	}
	for i, n := range c.Normals {
		if !finite32(n) {
			return fmt.Errorf("cloud: normal %d is not finite in float32: %v", i, n)
		}
	}
	return nil
}

// finite32 reports whether v stays finite when quantized to float32.
func finite32(v geom.Vec3) bool {
	return geom.Vec3{X: float64(float32(v.X)), Y: float64(float32(v.Y)), Z: float64(float32(v.Z))}.IsFinite()
}
