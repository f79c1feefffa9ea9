package cloud

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"tigris/internal/geom"
)

func randCloud(r *rand.Rand, n int) *Cloud {
	c := New(n)
	for i := 0; i < n; i++ {
		c.Points = append(c.Points, geom.Vec3{
			X: r.Float64()*40 - 20,
			Y: r.Float64()*40 - 20,
			Z: r.Float64()*4 - 2,
		})
	}
	return c
}

func TestCloneIndependence(t *testing.T) {
	c := FromPoints([]geom.Vec3{{X: 1}, {Y: 2}})
	c.Normals = []geom.Vec3{{Z: 1}, {Z: 1}}
	d := c.Clone()
	d.Points[0].X = 99
	d.Normals[0].Z = 99
	if c.Points[0].X != 1 || c.Normals[0].Z != 1 {
		t.Error("clone shares storage with original")
	}
}

func TestTransformRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	c := randCloud(r, 200)
	tr := geom.Transform{R: geom.RotZ(0.4), T: geom.Vec3{X: 1, Y: -2, Z: 3}}
	back := c.Transform(tr).Transform(tr.Inverse())
	for i := range c.Points {
		if c.Points[i].Dist(back.Points[i]) > 1e-9 {
			t.Fatalf("round trip moved point %d", i)
		}
	}
}

func TestNormalsRotateNotTranslate(t *testing.T) {
	c := FromPoints([]geom.Vec3{{X: 1, Y: 2, Z: 3}})
	c.Normals = []geom.Vec3{{Z: 1}}
	tr := geom.Transform{R: geom.Identity3(), T: geom.Vec3{X: 100, Y: 100, Z: 100}}
	out := c.Transform(tr)
	if out.Normals[0] != (geom.Vec3{Z: 1}) {
		t.Errorf("pure translation changed normal: %v", out.Normals[0])
	}
}

func TestBounds(t *testing.T) {
	c := FromPoints([]geom.Vec3{{X: -1, Y: 2, Z: 0}, {X: 3, Y: -4, Z: 5}})
	b := c.Bounds()
	if b.Min != (geom.Vec3{X: -1, Y: -4, Z: 0}) || b.Max != (geom.Vec3{X: 3, Y: 2, Z: 5}) {
		t.Errorf("bounds = %+v", b)
	}
}

func TestVoxelDownsampleReduces(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	c := SlabFromCloud(randCloud(r, 5000))
	d := VoxelDownsampleSlab(c, 2.0)
	if d.Len() >= c.Len() {
		t.Fatalf("downsample did not reduce: %d -> %d", c.Len(), d.Len())
	}
	if d.Len() == 0 {
		t.Fatal("downsample removed everything")
	}
	// Every output point must lie within the original bounds (centroids of
	// cell members cannot escape the hull of the inputs).
	b := FromPoints(c.Points()).Bounds()
	for _, p := range d.Points() {
		grown := b
		if grown.Extend(p); grown != b {
			t.Fatalf("downsampled point %v escaped bounds", p)
		}
	}
}

func TestVoxelDownsampleOnePerCell(t *testing.T) {
	c := SlabFromPoints([]geom.Vec3{
		{X: 0.1, Y: 0.1, Z: 0.1},
		{X: 0.2, Y: 0.3, Z: 0.4}, // same unit cell
		{X: 1.5, Y: 0.1, Z: 0.1}, // different cell
	})
	d := VoxelDownsampleSlab(c, 1.0)
	if d.Len() != 2 {
		t.Fatalf("expected 2 cells, got %d", d.Len())
	}
	// First output is the centroid of the two co-located points, to
	// float32 precision.
	want := geom.Vec3{X: 0.15, Y: 0.2, Z: 0.25}
	if d.At(0).Dist(want) > 1e-7 {
		t.Errorf("cell centroid = %v, want %v", d.At(0), want)
	}
}

// TestVoxelDownsampleOutOfRangeCells: a point whose cell index does not
// fit in int32 on some axis is a cell of its own. Before, such indices
// converted to one implementation-defined key and the points merged into
// a centroid far from all of them (on amd64, (0, 0, 0)). Cells in range
// merge as before, alongside.
func TestVoxelDownsampleOutOfRangeCells(t *testing.T) {
	mid := geom.Vec3{X: (float64(float32(0.1)) + float64(float32(0.2))) / 2}.Quantize32()
	for _, tc := range []struct {
		name string
		pts  []geom.Vec3
		leaf float64
		want []geom.Vec3
	}{
		{"±1e30 at 0.3", []geom.Vec3{{X: 1e30}, {X: -1e30}}, 0.3,
			[]geom.Vec3{{X: float64(float32(1e30))}, {X: float64(float32(-1e30))}}},
		{"±3 at 1e-9", []geom.Vec3{{X: 3}, {X: -3}}, 1e-9,
			[]geom.Vec3{{X: 3}, {X: -3}}},
		{"in range", []geom.Vec3{{X: 0.1}, {X: 0.2}, {X: 1}}, 0.3,
			[]geom.Vec3{mid, {X: 1}}},
		{"mixed", []geom.Vec3{{X: 0.1}, {Y: 1e30}, {X: 0.2}, {Y: 1e30}, {Z: -1e30}}, 0.3,
			[]geom.Vec3{mid, {Y: float64(float32(1e30))}, {Y: float64(float32(1e30))}, {Z: float64(float32(-1e30))}}},
	} {
		d := VoxelDownsampleSlab(SlabFromPoints(tc.pts), tc.leaf)
		got := d.Points()
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d cells %v, want %d %v", tc.name, len(got), got, len(tc.want), tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: cell %d = %v, want %v", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}

func TestVoxelDownsampleDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	c := SlabFromCloud(randCloud(r, 1000))
	a := VoxelDownsampleSlab(c, 1.5)
	b := VoxelDownsampleSlab(c, 1.5)
	if a.Len() != b.Len() {
		t.Fatal("non-deterministic length")
	}
	for i := 0; i < a.Len(); i++ {
		if a.At(i) != b.At(i) {
			t.Fatal("non-deterministic ordering")
		}
	}
}

func TestVoxelDownsampleNoopLeaf(t *testing.T) {
	c := SlabFromPoints([]geom.Vec3{{X: 1}, {X: 2}})
	d := VoxelDownsampleSlab(c, 0)
	if d.Len() != 2 {
		t.Fatal("leaf<=0 should clone")
	}
}

func TestValidate(t *testing.T) {
	good := FromPoints([]geom.Vec3{{X: 1}})
	if err := good.Validate(); err != nil {
		t.Errorf("valid cloud rejected: %v", err)
	}
	bad := FromPoints([]geom.Vec3{{X: math.NaN()}})
	if err := bad.Validate(); err == nil {
		t.Error("NaN point accepted")
	}
	huge := FromPoints([]geom.Vec3{{X: 1e300}})
	if err := huge.Validate(); err == nil {
		t.Error("a coordinate that is +Inf as float32 accepted")
	}
	mismatched := FromPoints([]geom.Vec3{{X: 1}, {X: 2}})
	mismatched.Normals = []geom.Vec3{{Z: 1}}
	if err := mismatched.Validate(); err == nil {
		t.Error("mismatched normals accepted")
	}
	mismatched.Normals = []geom.Vec3{{Z: 1}, {Z: math.Inf(1)}}
	if err := mismatched.Validate(); err == nil {
		t.Error("non-finite normal accepted")
	}
}

func TestIORoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	c := randCloud(r, 500)
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != c.Len() {
		t.Fatalf("length %d -> %d", c.Len(), back.Len())
	}
	for i := range c.Points {
		if c.Points[i].Dist(back.Points[i]) > 1e-7 {
			t.Fatalf("point %d: %v -> %v", i, c.Points[i], back.Points[i])
		}
	}
	if back.HasNormals() {
		t.Error("round trip invented normals")
	}
}

func TestIORoundTripWithNormals(t *testing.T) {
	c := FromPoints([]geom.Vec3{{X: 1, Y: 2, Z: 3}})
	c.Normals = []geom.Vec3{{X: 0, Y: 0, Z: 1}}
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.HasNormals() || back.Normals[0] != c.Normals[0] {
		t.Errorf("normals lost: %+v", back.Normals)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"NOT-A-CLOUD",
		"TIGRIS-CLOUD v1\nPOINTS abc\nFIELDS xyz\nDATA ascii\n",
		"TIGRIS-CLOUD v1\nPOINTS 1\nFIELDS wat\nDATA ascii\n1 2 3\n",
		"TIGRIS-CLOUD v1\nPOINTS 1\nFIELDS xyz\nDATA binary\n1 2 3\n",
		"TIGRIS-CLOUD v1\nPOINTS 2\nFIELDS xyz\nDATA ascii\n1 2 3\n", // truncated
		"TIGRIS-CLOUD v1\nPOINTS 1\nFIELDS xyz\nDATA ascii\n1 2\n",   // short row
		"TIGRIS-CLOUD v1\nPOINTS -5\nFIELDS xyz\nDATA ascii\n",
		// Not finite at the float32 precision the indexes are built over.
		"TIGRIS-CLOUD v1\nPOINTS 1\nFIELDS xyz\nDATA ascii\nNaN 2 3\n",
		"TIGRIS-CLOUD v1\nPOINTS 1\nFIELDS xyz\nDATA ascii\n1 1e300 3\n", // +Inf as float32
		"TIGRIS-CLOUD v1\nPOINTS 1\nFIELDS xyz\nDATA ascii\n1 2 -Inf\n",
		"TIGRIS-CLOUD v1\nPOINTS 1\nFIELDS xyznormal\nDATA ascii\n1 2 3 0 1e300 1\n",
	}
	for i, s := range cases {
		if _, err := Read(strings.NewReader(s)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestIOEmptyCloud(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, New(0)); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 0 {
		t.Errorf("empty cloud round trip gained points: %d", back.Len())
	}
}

// TestReadPointCountBoundary: a header may declare exactly maxIOPoints
// points (such a frame fails only on its missing body), not one more.
func TestReadPointCountBoundary(t *testing.T) {
	const head = "TIGRIS-CLOUD v1\nPOINTS %d\nFIELDS xyz\nDATA ascii\n"
	readers := map[string]func(string) error{
		"Read":     func(s string) error { _, err := Read(strings.NewReader(s)); return err },
		"ReadSlab": func(s string) error { _, err := ReadSlab(strings.NewReader(s)); return err },
	}
	for name, read := range readers {
		if err := read(fmt.Sprintf(head, maxIOPoints)); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: POINTS %d with no body: %v, want the missing body", name, maxIOPoints, err)
		}
		if err := read(fmt.Sprintf(head, maxIOPoints+1)); err == nil || !strings.Contains(err.Error(), "unreasonable point count") {
			t.Errorf("%s: POINTS %d: %v, want an unreasonable count", name, maxIOPoints+1, err)
		}
	}
}

// TestVoxelIndexRange: cell indices from MinInt32 to MaxInt32 have a key,
// one past either end has none.
func TestVoxelIndexRange(t *testing.T) {
	for _, tc := range []struct {
		x    float64
		want bool
	}{
		{math.MaxInt32, true},
		{math.MinInt32, true},
		{math.MaxInt32 + 1, false},
		{math.MinInt32 - 1, false},
	} {
		got, ok := voxelIndex(tc.x, 1)
		if ok != tc.want || (ok && float64(got) != tc.x) {
			t.Errorf("voxelIndex(%v, 1) = %d, %v; want %v", tc.x, got, ok, tc.want)
		}
	}
}

// hostileHeader is a 73-byte frame whose header claims 10⁸ points with
// normals: trusted, it buys 4.8 GB of AoS capacity before the reader
// finds the body is one line long.
const hostileHeader = "TIGRIS-CLOUD v1\nPOINTS 100000000\nFIELDS xyznormal\nDATA ascii\n1 2 3 0 0 1\n"

func TestReadDoesNotTrustPointCount(t *testing.T) {
	if len(hostileHeader) != 73 {
		t.Fatalf("hostile frame is %d bytes", len(hostileHeader))
	}
	readers := map[string]func() error{
		"Read":     func() error { _, err := Read(strings.NewReader(hostileHeader)); return err },
		"ReadSlab": func() error { _, err := ReadSlab(strings.NewReader(hostileHeader)); return err },
	}
	for name, read := range readers {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := read()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s accepted a one-point body claiming 10⁸ points", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
			t.Errorf("%s allocated %.1f MB before refusing a %d-byte frame", name, float64(grew)/(1<<20), len(hostileHeader))
		}
	}
}

// frameWithNormals is a Write-encoded frame of n random points and unit
// normals, the shape of a front-end's output.
func frameWithNormals(n int) []byte {
	r := rand.New(rand.NewSource(11))
	c := randCloud(r, n)
	c.Normals = make([]geom.Vec3, n)
	for i := range c.Normals {
		c.Normals[i] = geom.Vec3{X: r.NormFloat64(), Y: r.NormFloat64(), Z: r.NormFloat64()}.Normalize()
	}
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestReadersMatchReference also holds Read to slices of exactly the
// frame's length, and ReadSlab to pooled columns at most three eighths
// longer (par.SlicePool's size classes), a frame longer than maxPrealloc
// included.
func TestReadersMatchReference(t *testing.T) {
	for _, n := range []int{0, 1, 1000, maxPrealloc + 3, 2*maxPrealloc + 5} {
		body := frameWithNormals(n)
		want, err := referenceRead(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		c, err := Read(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		sameCloud(t, c, want)
		s, err := ReadSlab(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		sameSlab(t, s, SlabFromCloud(want))
		for name, k := range map[string]int{"Points": cap(c.Points), "Normals": cap(c.Normals)} {
			if k != n {
				t.Errorf("%d points: %s has capacity %d", n, name, k)
			}
		}
		for name, k := range map[string]int{
			"Xs": cap(s.Xs), "Ys": cap(s.Ys), "Zs": cap(s.Zs),
			"NXs": cap(s.NXs), "NYs": cap(s.NYs), "NZs": cap(s.NZs),
		} {
			if k < n || 8*(k-n) > 3*n {
				t.Errorf("%d points: %s has capacity %d", n, name, k)
			}
		}
	}
}

// TestReadSlabAllocatesTheSlab holds ReadSlab to a fixed handful of
// allocations whatever the frame's size: the scanner and its buffer, the
// header's strings, the slab and its columns — nothing per point.
func TestReadSlabAllocatesTheSlab(t *testing.T) {
	body := frameWithNormals(20_000)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ReadSlab(bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 30 {
		t.Errorf("ReadSlab made %.0f allocations for a 20,000-point frame, want ≤ 30", allocs)
	}
}

// TestReadSlabRecyclesItsScanBuffer holds a warmed ReadSlab whose slab is
// handed back to well under the 64 KiB scanner buffer a frame once cost:
// the buffer, like the columns, is drawn from a pool and returned on
// every path out of the reader.
func TestReadSlabRecyclesItsScanBuffer(t *testing.T) {
	body := frame20k()
	read := func() {
		s, err := ReadSlab(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		s.Recycle()
	}
	read()
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		read()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Errorf("a warmed ReadSlab of a 20,000-point frame allocates %d bytes, want < %d", per, 64<<10)
	}
}

// frame20k is a Write-encoded 20,000-point frame without normals, the
// shape and size of a pushed 32×600 LiDAR frame.
func frame20k() []byte {
	var buf bytes.Buffer
	if err := Write(&buf, randCloud(rand.New(rand.NewSource(3)), 20_000)); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// BenchmarkReadSlab times what a pushed frame costs before the pipeline
// sees it; BenchmarkReferenceReadThenSlab is the same frame through the
// reference reader and the AoS cloud.
func BenchmarkReadSlab(b *testing.B) {
	body := frame20k()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ReadSlab(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReferenceReadThenSlab(b *testing.B) {
	body := frame20k()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		c, err := referenceRead(bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		SlabFromCloud(c)
	}
}
