package cloud

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzRead exercises the TIGRIS-CLOUD parser with hostile inputs: it must
// never panic; Read and ReadSlab must accept exactly what referenceRead
// accepts, Read with the same error text and the same values bit for bit,
// ReadSlab with SlabFromCloud of the reference's cloud; and anything
// accepted must be a valid slab (finite at the float32 precision the
// indexes are built over) and survive a write/read round trip.
func FuzzRead(f *testing.F) {
	f.Add("TIGRIS-CLOUD v1\nPOINTS 1\nFIELDS xyz\nDATA ascii\n1 2 3\n")
	f.Add("TIGRIS-CLOUD v1\nPOINTS 2\nFIELDS xyznormal\nDATA ascii\n1 2 3 0 0 1\n4 5 6 0 1 0\n")
	f.Add("TIGRIS-CLOUD v1\nPOINTS 0\nFIELDS xyz\nDATA ascii\n")
	f.Add("")
	f.Add("TIGRIS-CLOUD v1\nPOINTS -1\nFIELDS xyz\nDATA ascii\n")
	f.Add("TIGRIS-CLOUD v1\nPOINTS 999999999999\nFIELDS xyz\nDATA ascii\n")
	f.Add("TIGRIS-CLOUD v1\nPOINTS 1\nFIELDS xyz\nDATA ascii\nNaN Inf -Inf\n")
	f.Add("TIGRIS-CLOUD v1\nPOINTS 1\nFIELDS xyz\nDATA ascii\n1 1e300 3\n")
	f.Add("TIGRIS-CLOUD v1\nPOINTS 1\nFIELDS xyznormal\nDATA ascii\n1 2 3 0 NaN 1\n")
	f.Add("garbage\nmore garbage\n")
	// The tokenizer's edges: line ends, every ASCII space, Unicode spaces
	// (only strings.Fields splits on them), the number grammar's borders,
	// values past float32, blank lines, and what follows the last point.
	f.Add("TIGRIS-CLOUD v1\r\nPOINTS 2\r\nFIELDS xyz\r\nDATA ascii\r\n1 2 3\r\n4 5 6\r\n")
	f.Add("TIGRIS-CLOUD v1\nPOINTS 1\nFIELDS xyz\nDATA ascii\n\t1\t2\t3\t\n")
	f.Add("TIGRIS-CLOUD v1\nPOINTS 1\nFIELDS xyz\nDATA ascii\n1\v2\f3\n")
	f.Add("TIGRIS-CLOUD v1\nPOINTS 1\nFIELDS xyz\nDATA ascii\n1\u00a02 3\n")
	f.Add("TIGRIS-CLOUD v1\nPOINTS 1\nFIELDS xyz\nDATA ascii\n1 2 3\u00a04\n")
	f.Add("TIGRIS-CLOUD v1\nPOINTS 1\nFIELDS xyz\nDATA ascii\n\u00a0\n1 2 3\n")
	f.Add("TIGRIS-CLOUD v1\nPOINTS 1\nFIELDS xyz\nDATA ascii\n1 2 \xff3\n")
	f.Add("TIGRIS-CLOUD v1\nPOINTS 1\nFIELDS xyz\nDATA ascii\n1 2 3\u0085\n")
	f.Add("TIGRIS-CLOUD v1\nPOINTS 1\nFIELDS xyz\nDATA ascii\n+.5 -.5 5.\n")
	f.Add("TIGRIS-CLOUD v1\nPOINTS 1\nFIELDS xyz\nDATA ascii\n1e 2 3\n")
	f.Add("TIGRIS-CLOUD v1\nPOINTS 1\nFIELDS xyz\nDATA ascii\n-0 -0.0e5 0\n")
	f.Add("TIGRIS-CLOUD v1\nPOINTS 1\nFIELDS xyz\nDATA ascii\n0x1p-3 2 3\n")
	f.Add("TIGRIS-CLOUD v1\nPOINTS 1\nFIELDS xyz\nDATA ascii\n1_0 2 3\n")
	f.Add("TIGRIS-CLOUD v1\nPOINTS 1\nFIELDS xyz\nDATA ascii\n12345678901234567 0.12345678901234567 1.2345678901234567e-20\n")
	f.Add("TIGRIS-CLOUD v1\nPOINTS 1\nFIELDS xyz\nDATA ascii\n3.4028236e38 2 3\n")
	f.Add("TIGRIS-CLOUD v1\nPOINTS 1\nFIELDS xyznormal\nDATA ascii\n1 2 3 0 3.4028236e38 1\n")
	f.Add("TIGRIS-CLOUD v1\n\nPOINTS 2\n \nFIELDS xyz\nDATA ascii\n\n1 2 3\n\t\n\n4 5 6\n")
	f.Add("TIGRIS-CLOUD v1\nPOINTS 1\nFIELDS xyz\nDATA ascii\n1 2 3\njunk after the last point\n")
	f.Add("TIGRIS-CLOUD v1\nPOINTS 1\nFIELDS xyz\nDATA ascii\n1 2 3 4\n")
	f.Add("TIGRIS-CLOUD v1\nPOINTS 1\nFIELDS xyz\nDATA ascii\nx 2\n")

	f.Fuzz(func(t *testing.T, input string) {
		want, werr := referenceRead(strings.NewReader(input))
		c, err := Read(strings.NewReader(input))
		s, serr := ReadSlab(strings.NewReader(input))
		if (err == nil) != (werr == nil) || (serr == nil) != (werr == nil) {
			t.Fatalf("decisions differ: reference %v, Read %v, ReadSlab %v", werr, err, serr)
		}
		if werr != nil {
			if err.Error() != werr.Error() {
				t.Fatalf("Read refuses with %q, the reference with %q", err, werr)
			}
			return
		}
		sameCloud(t, c, want)
		sameSlab(t, s, SlabFromCloud(want))
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted cloud is not a valid slab: %v", err)
		}
		// Accepted clouds must round-trip.
		var buf bytes.Buffer
		if err := Write(&buf, c); err != nil {
			t.Fatalf("accepted cloud failed to serialize: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if back.Len() != c.Len() {
			t.Fatalf("round trip changed length: %d -> %d", c.Len(), back.Len())
		}
	})
}

// sameCloud fails unless got and want hold the same points and normals,
// bit for bit.
func sameCloud(t *testing.T, got, want *Cloud) {
	t.Helper()
	if got.Len() != want.Len() || got.HasNormals() != want.HasNormals() || (got.Normals == nil) != (want.Normals == nil) {
		t.Fatalf("shape: %d points (normals %v), want %d (normals %v)", got.Len(), got.HasNormals(), want.Len(), want.HasNormals())
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i, p := range want.Points {
		q := got.Points[i]
		if !same(q.X, p.X) || !same(q.Y, p.Y) || !same(q.Z, p.Z) {
			t.Fatalf("point %d: %v, want %v", i, q, p)
		}
	}
	for i, n := range want.Normals {
		m := got.Normals[i]
		if !same(m.X, n.X) || !same(m.Y, n.Y) || !same(m.Z, n.Z) {
			t.Fatalf("normal %d: %v, want %v", i, m, n)
		}
	}
}

// sameSlab fails unless got and want hold the same columns, bit for bit.
func sameSlab(t *testing.T, got, want *Slab) {
	t.Helper()
	cols := func(s *Slab) [6][]float32 { return [6][]float32{s.Xs, s.Ys, s.Zs, s.NXs, s.NYs, s.NZs} }
	g, w := cols(got), cols(want)
	for c := range w {
		if len(g[c]) != len(w[c]) || (g[c] == nil) != (w[c] == nil) {
			t.Fatalf("column %d: %d values (nil %v), want %d (nil %v)", c, len(g[c]), g[c] == nil, len(w[c]), w[c] == nil)
		}
		for i := range w[c] {
			if math.Float32bits(g[c][i]) != math.Float32bits(w[c][i]) {
				t.Fatalf("column %d value %d: %v, want %v", c, i, g[c][i], w[c][i])
			}
		}
	}
}
