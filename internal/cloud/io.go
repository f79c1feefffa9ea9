package cloud

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"tigris/internal/geom"
)

// The ASCII interchange format is a minimal PCD-style layout:
//
//	TIGRIS-CLOUD v1
//	POINTS <n>
//	FIELDS xyz | xyznormal
//	DATA ascii
//	x y z [nx ny nz]
//	...
//
// It exists so the example binaries can persist and reload frames, and so
// users can export synthetic sequences for external inspection.

const (
	magicLine   = "TIGRIS-CLOUD v1"
	fieldsXYZ   = "xyz"
	fieldsXYZN  = "xyznormal"
	maxIOPoints = 100_000_000
)

// Write serializes the cloud to w in the ASCII format above.
func Write(w io.Writer, c *Cloud) error {
	bw := bufio.NewWriter(w)
	fields := fieldsXYZ
	if c.HasNormals() {
		fields = fieldsXYZN
	}
	if _, err := fmt.Fprintf(bw, "%s\nPOINTS %d\nFIELDS %s\nDATA ascii\n", magicLine, c.Len(), fields); err != nil {
		return err
	}
	for i, p := range c.Points {
		if c.HasNormals() {
			n := c.Normals[i]
			if _, err := fmt.Fprintf(bw, "%.9g %.9g %.9g %.9g %.9g %.9g\n", p.X, p.Y, p.Z, n.X, n.Y, n.Z); err != nil {
				return err
			}
		} else {
			if _, err := fmt.Fprintf(bw, "%.9g %.9g %.9g\n", p.X, p.Y, p.Z); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Read parses a cloud previously produced by Write. A frame that does not
// pass Validate — a coordinate or normal that is not finite as float32 —
// is an error, not a cloud.
func Read(r io.Reader) (*Cloud, error) {
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

	c := &Cloud{Points: make([]geom.Vec3, 0, n)}
	if withNormals {
		c.Normals = make([]geom.Vec3, 0, n)
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

// nextLine returns the next non-empty line.
func nextLine(sc *bufio.Scanner) (string, error) {
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" {
			return line, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}
