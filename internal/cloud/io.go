package cloud

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
	"unsafe"

	"tigris/internal/geom"
	"tigris/internal/par"
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
	// maxPrealloc caps the points a reader allocates for before it has
	// read them: the header's count is the sender's claim, and a 73-byte
	// body claiming 10⁸ points must not buy gigabytes. A longer frame
	// doubles (grownCapacity) up to the declared count, so one read in
	// full holds no more slack than its columns' size class (ReadSlab).
	maxPrealloc = 1 << 16
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
	p := newReader(r)
	defer p.release()
	if err := p.header(); err != nil {
		return nil, err
	}
	c := &Cloud{Points: make([]geom.Vec3, 0, p.capacity())}
	if p.want == 6 {
		c.Normals = make([]geom.Vec3, 0, p.capacity())
	}
	var v [6]float64
	for i := 0; i < p.n; i++ {
		if err := p.point(i, v[:p.want]); err != nil {
			return nil, err
		}
		if i == cap(c.Points) {
			k := p.grownCapacity(i)
			c.Points = grown(c.Points, k)
			if p.want == 6 {
				c.Normals = grown(c.Normals, k)
			}
		}
		c.Points = append(c.Points, geom.Vec3{X: v[0], Y: v[1], Z: v[2]})
		if p.want == 6 {
			c.Normals = append(c.Normals, geom.Vec3{X: v[3], Y: v[4], Z: v[5]})
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// ReadSlab parses the same format straight into a float32 slab: each
// value is the float32 of Read's float64, so the slab is exactly
// SlabFromCloud(Read(r)), normals included, and nothing Read refuses is
// accepted — a point or a normal that is not finite as float32 included.
// The slab is the only allocation that grows with the frame, and its
// columns come from the ones released slabs handed back (Slab.Recycle),
// so they may hold up to three eighths more than the frame.
func ReadSlab(r io.Reader) (*Slab, error) {
	p := newReader(r)
	defer p.release()
	if err := p.header(); err != nil {
		return nil, err
	}
	k := p.capacity()
	s := &Slab{Xs: columns.Get(k)[:0], Ys: columns.Get(k)[:0], Zs: columns.Get(k)[:0]}
	if p.want == 6 {
		s.NXs, s.NYs, s.NZs = columns.Get(k)[:0], columns.Get(k)[:0], columns.Get(k)[:0]
	}
	s, err := p.readSlab(s, k)
	if err != nil {
		s.Recycle()
		return nil, err
	}
	return s, nil
}

// readSlab fills s, whose columns each hold at least k points, with the
// body's points and checks them.
func (p *reader) readSlab(s *Slab, k int) (*Slab, error) {
	var v [6]float64
	for i := 0; i < p.n; i++ {
		if err := p.point(i, v[:p.want]); err != nil {
			return s, err
		}
		if i == k {
			k = p.grownCapacity(i)
			s.Xs, s.Ys, s.Zs = grownColumn(s.Xs, k), grownColumn(s.Ys, k), grownColumn(s.Zs, k)
			if p.want == 6 {
				s.NXs, s.NYs, s.NZs = grownColumn(s.NXs, k), grownColumn(s.NYs, k), grownColumn(s.NZs, k)
			}
		}
		s.Xs = append(s.Xs, float32(v[0]))
		s.Ys = append(s.Ys, float32(v[1]))
		s.Zs = append(s.Zs, float32(v[2]))
		if p.want == 6 {
			s.NXs = append(s.NXs, float32(v[3]))
			s.NYs = append(s.NYs, float32(v[4]))
			s.NZs = append(s.NZs, float32(v[5]))
		}
	}
	for i := range s.Xs {
		if pt := s.At(i); !pt.IsFinite() {
			return s, fmt.Errorf("cloud: point %d is not finite in float32: %v", i, pt)
		}
	}
	for i := range s.NXs {
		if nv := s.NormalAt(i); !nv.IsFinite() {
			return s, fmt.Errorf("cloud: normal %d is not finite in float32: %v", i, nv)
		}
	}
	return s, nil
}

// grownColumn moves c into a pooled column with room for k points and
// hands c's array back.
func grownColumn(c []float32, k int) []float32 {
	t := columns.Get(k)[:len(c)]
	copy(t, c)
	columns.Put(c)
	return t
}

// reader is the one tokenizer behind Read and ReadSlab: the header, then
// one point per non-blank line, parsed in place from the scanner's
// buffer.
type reader struct {
	sc   *bufio.Scanner
	buf  []byte // the scanner's first buffer, drawn from scanBufs
	n    int    // points the header declares
	want int    // fields per point: 3, or 6 with normals
}

// scanBufs holds the idle 64 KiB buffers readers scan with, so a session
// that ingests a frame per push scans every frame in the same few. A
// line longer than the buffer makes the scanner move to a larger one of
// its own (up to the 16 MiB token limit); that one is left to the
// collector.
var scanBufs par.FreeList[[]byte]

// newReader returns a reader over r; release hands its buffer back.
func newReader(r io.Reader) reader {
	buf, ok := scanBufs.Get()
	if !ok {
		buf = make([]byte, 0, 64*1024)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(buf, 16*1024*1024)
	return reader{sc: sc, buf: buf}
}

// release hands the scanner's buffer back; nothing may scan afterwards.
// Nothing read keeps a view of it: header lines are copies and parse
// errors carry copies of their fields.
func (p *reader) release() {
	scanBufs.Put(p.buf[:0])
	p.sc, p.buf = nil, nil
}

// header reads the header.
func (p *reader) header() error {
	line, err := nextLine(p.sc)
	if err != nil {
		return err
	}
	if line != magicLine {
		return fmt.Errorf("cloud: bad magic %q", line)
	}

	if line, err = nextLine(p.sc); err != nil {
		return err
	}
	if _, err := fmt.Sscanf(line, "POINTS %d", &p.n); err != nil {
		return fmt.Errorf("cloud: bad POINTS line %q: %w", line, err)
	}
	if p.n < 0 || p.n > maxIOPoints {
		return fmt.Errorf("cloud: unreasonable point count %d", p.n)
	}

	if line, err = nextLine(p.sc); err != nil {
		return err
	}
	var fields string
	if _, err := fmt.Sscanf(line, "FIELDS %s", &fields); err != nil {
		return fmt.Errorf("cloud: bad FIELDS line %q: %w", line, err)
	}
	switch fields {
	case fieldsXYZ:
		p.want = 3
	case fieldsXYZN:
		p.want = 6
	default:
		return fmt.Errorf("cloud: unknown fields %q", fields)
	}

	if line, err = nextLine(p.sc); err != nil {
		return err
	}
	if line != "DATA ascii" {
		return fmt.Errorf("cloud: unsupported data line %q", line)
	}
	return nil
}

// capacity is the number of points to allocate for up front.
func (p *reader) capacity() int { return min(p.n, maxPrealloc) }

// grownCapacity is the capacity to grow to once read points fill it:
// double, but never past the declared count, so a frame read in full
// holds no slack.
func (p *reader) grownCapacity(read int) int { return min(p.n, 2*read) }

// grown copies s into a new slice of capacity k.
func grown[T any](s []T, k int) []T {
	t := make([]T, len(s), k)
	copy(t, s)
	return t
}

// point parses point i, the next non-blank line, into v (want values).
func (p *reader) point(i int, v []float64) error {
	for p.sc.Scan() {
		nf, bad, err := parseLine(p.sc.Bytes(), v)
		if nf == 0 {
			continue
		}
		if nf != len(v) {
			return fmt.Errorf("cloud: point %d has %d fields, want %d", i, nf, len(v))
		}
		if err != nil {
			return fmt.Errorf("cloud: point %d field %d: %w", i, bad, err)
		}
		return nil
	}
	if err := p.sc.Err(); err != nil {
		return fmt.Errorf("cloud: point %d: %w", i, err)
	}
	return fmt.Errorf("cloud: point %d: %w", i, io.ErrUnexpectedEOF)
}

// asciiSpace marks the bytes strings.Fields splits an ASCII line on.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// parseLine splits line into fields as strings.Fields does and parses
// the first len(v) of them into v. It returns the number of fields (0
// for a blank line), and the index and error of the first field that is
// not a number. A field goes to strconv.ParseFloat on a view of the
// buffer, which allocates only for an error. A line holding a byte
// outside ASCII takes parseFieldsSlow: only strings.Fields knows which
// Unicode spaces split it.
func parseLine(line []byte, v []float64) (nf, bad int, err error) {
	for i := 0; i < len(line); {
		c := line[i]
		if asciiSpace[c] {
			i++
			continue
		}
		if c >= utf8.RuneSelf {
			return parseFieldsSlow(line, v)
		}
		j := i
		for ; j < len(line) && !asciiSpace[line[j]]; j++ {
			if line[j] >= utf8.RuneSelf {
				return parseFieldsSlow(line, v)
			}
		}
		if nf < len(v) && err == nil {
			x, perr := strconv.ParseFloat(unsafe.String(&line[i], j-i), 64)
			if perr != nil {
				bad, err = nf, perr
			}
			v[nf] = x
		}
		nf++
		i = j
	}
	return nf, bad, err
}

// parseFieldsSlow is parseLine by strings.Fields and strconv.ParseFloat,
// for a line that is not pure ASCII.
func parseFieldsSlow(line []byte, v []float64) (nf, bad int, err error) {
	parts := strings.Fields(string(line))
	for j, s := range parts {
		if j == len(v) {
			break
		}
		x, perr := strconv.ParseFloat(s, 64)
		if perr != nil {
			return len(parts), j, perr
		}
		v[j] = x
	}
	return len(parts), 0, nil
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
