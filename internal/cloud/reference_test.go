package cloud

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"tigris/internal/geom"
)

// referenceRead is the reader Read replaced, kept as the oracle: every
// line through strings.TrimSpace and strings.Fields, every field through
// strconv.ParseFloat, and the header's count trusted for the capacity.
// Read must accept exactly what it accepts, with the same values bit for
// bit, and ReadSlab must return SlabFromCloud of its cloud.
func referenceRead(r io.Reader) (*Cloud, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)

	line, err := nextLine(sc)
	if err != nil {
		return nil, err
	}
	if line != magicLine {
		return nil, fmt.Errorf("cloud: bad magic %q", line)
	}

	var n int
	if line, err = nextLine(sc); err != nil {
		return nil, err
	}
	if _, err := fmt.Sscanf(line, "POINTS %d", &n); err != nil {
		return nil, fmt.Errorf("cloud: bad POINTS line %q: %w", line, err)
	}
	if n < 0 || n > maxIOPoints {
		return nil, fmt.Errorf("cloud: unreasonable point count %d", n)
	}

	if line, err = nextLine(sc); err != nil {
		return nil, err
	}
	var fields string
	if _, err := fmt.Sscanf(line, "FIELDS %s", &fields); err != nil {
		return nil, fmt.Errorf("cloud: bad FIELDS line %q: %w", line, err)
	}
	withNormals := false
	switch fields {
	case fieldsXYZ:
	case fieldsXYZN:
		withNormals = true
	default:
		return nil, fmt.Errorf("cloud: unknown fields %q", fields)
	}

	if line, err = nextLine(sc); err != nil {
		return nil, err
	}
	if line != "DATA ascii" {
		return nil, fmt.Errorf("cloud: unsupported data line %q", line)
	}

	// Capped here only so the oracle itself can be fed hostile headers;
	// the values and the decisions do not depend on the capacity.
	c := &Cloud{Points: make([]geom.Vec3, 0, min(n, maxPrealloc))}
	if withNormals {
		c.Normals = make([]geom.Vec3, 0, min(n, maxPrealloc))
	}
	for i := 0; i < n; i++ {
		if line, err = nextLine(sc); err != nil {
			return nil, fmt.Errorf("cloud: point %d: %w", i, err)
		}
		parts := strings.Fields(line)
		want := 3
		if withNormals {
			want = 6
		}
		if len(parts) != want {
			return nil, fmt.Errorf("cloud: point %d has %d fields, want %d", i, len(parts), want)
		}
		vals := make([]float64, want)
		for j, s := range parts {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("cloud: point %d field %d: %w", i, j, err)
			}
			vals[j] = v
		}
		c.Points = append(c.Points, geom.Vec3{X: vals[0], Y: vals[1], Z: vals[2]})
		if withNormals {
			c.Normals = append(c.Normals, geom.Vec3{X: vals[3], Y: vals[4], Z: vals[5]})
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}
