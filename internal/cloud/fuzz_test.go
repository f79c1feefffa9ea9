package cloud

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRead exercises the TIGRIS-CLOUD parser with hostile inputs: it must
// never panic, and anything it accepts must be a valid slab (finite at the
// float32 precision the indexes are built over) and survive a write/read
// round trip.
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

	f.Fuzz(func(t *testing.T, input string) {
		c, err := Read(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := SlabFromCloud(c).Validate(); err != nil {
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
