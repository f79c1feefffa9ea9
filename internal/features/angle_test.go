package features

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"tigris/internal/geom"
)

// refFanOrder is the fan order the diamond keys must reproduce: each
// entry's azimuth math.Atan2(y, x), stably sorted.
func refFanOrder(coords []tangentCoord) []int {
	fan := make([]polarEntry, len(coords))
	for i, c := range coords {
		fan[i] = polarEntry{slot: i, key: math.Atan2(c.y, c.x)}
	}
	refSortPolar(fan)
	slots := make([]int, len(fan))
	for i, e := range fan {
		slots[i] = e.slot
	}
	return slots
}

// finiteFan reports whether every |x|+|y| of coords is finite, the fans
// whose order the diamond keys certify.
func finiteFan(coords []tangentCoord) bool {
	for _, c := range coords {
		if !(math.Abs(c.x)+math.Abs(c.y) <= math.MaxFloat64) {
			return false
		}
	}
	return true
}

// checkNonFiniteFan: orderFan on a fan with a non-finite |x|+|y| still
// lists every slot once — whose order does not matter, as the normal of
// such a fan is NaN in any order.
func checkNonFiniteFan(t *testing.T, name string, sc *normalScratch, coords []tangentCoord) {
	t.Helper()
	sc.tangent = append(sc.tangent[:0], coords...)
	sc.orderFan()
	seen := make([]bool, len(coords))
	for _, e := range sc.polar {
		if e.slot < 0 || e.slot >= len(coords) || seen[e.slot] {
			t.Fatalf("%s (%d entries): slot %d out of range or listed twice", name, len(coords), e.slot)
		}
		seen[e.slot] = true
	}
	if len(sc.polar) != len(coords) {
		t.Fatalf("%s: %d entries ordered, want %d", name, len(sc.polar), len(coords))
	}
}

// checkFanOrder holds orderFan on coords to refFanOrder, entry for entry.
func checkFanOrder(t *testing.T, name string, sc *normalScratch, coords []tangentCoord) {
	t.Helper()
	want := refFanOrder(coords)
	sc.tangent = append(sc.tangent[:0], coords...)
	sc.orderFan()
	if len(sc.polar) != len(want) {
		t.Fatalf("%s: %d entries ordered, want %d", name, len(sc.polar), len(want))
	}
	for i, e := range sc.polar {
		if e.slot != want[i] {
			t.Fatalf("%s (%d entries): entry %d is slot %d %+v, atan2 order has slot %d %+v",
				name, len(coords), i, e.slot, coords[e.slot], want[i], coords[want[i]])
		}
	}
}

// yForKey returns a y for which diamondKey(y, 1) is exactly key (a small
// positive key), found by stepping y an ulp at a time.
func yForKey(t *testing.T, key float64) float64 {
	t.Helper()
	y := key * (1 + key)
	for step := 0; step < 1<<16; step++ {
		k := diamondKey(y, 1)
		switch {
		case k == key:
			return y
		case k < key:
			y = math.Nextafter(y, math.Inf(1))
		default:
			y = math.Nextafter(y, 0)
		}
	}
	t.Fatalf("no y keys exactly %v", key)
	return 0
}

// TestFanKeyOrderMatchesAtan2: the key-sorted, tie-settled fan is the
// stable azimuth order on inputs built to break it — collinear columns,
// coincident points, the query point itself under every signed-zero pair,
// key gaps at and an ulp around keyGuard, subnormals — and on random fans
// of every length up to 300. Fans with infinities, NaNs or overflowing
// sums, whose keys are NaN, are held to listing every slot once.
func TestFanKeyOrderMatchesAtan2(t *testing.T) {
	r := rand.New(rand.NewSource(75))
	var sc normalScratch
	negZero := math.Copysign(0, -1)
	zeros := []float64{0, negZero}

	// The query point itself, at each signed-zero pair, among neighbors on
	// the axes (signed zeros again) and off them.
	var self []tangentCoord
	for _, y := range zeros {
		for _, x := range zeros {
			self = append(self, tangentCoord{y, x})
		}
	}
	for _, z := range zeros {
		self = append(self, tangentCoord{z, 1}, tangentCoord{z, -1}, tangentCoord{1, z}, tangentCoord{-1, z})
	}
	self = append(self, tangentCoord{0.5, 0.5}, tangentCoord{-0.5, -0.5}, tangentCoord{0.5, -0.5}, tangentCoord{-0.5, 0.5})
	for n := 1; n <= len(self); n++ {
		checkFanOrder(t, "signed zeros", &sc, self[:n])
		for rep := 0; rep < 20; rep++ {
			shuffled := append([]tangentCoord(nil), self[:n]...)
			r.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			checkFanOrder(t, "signed zeros, shuffled", &sc, shuffled)
		}
	}
	long := append([]tangentCoord(nil), self...)
	for len(long) < 120 {
		long = append(long, self[r.Intn(len(self))])
	}
	checkFanOrder(t, "signed zeros, 120 entries", &sc, long)

	// Facade columns: points on a few lines through the query point, as a
	// provisional plane's basis projects them, so azimuths that should
	// tie differ in their last bits; plus coincident copies.
	for trial := 0; trial < 200; trial++ {
		prov := geom.Vec3{X: r.NormFloat64(), Y: r.NormFloat64(), Z: r.NormFloat64()}.Normalize()
		u, v := prov.OrthoBasis()
		p := geom.Vec3{X: r.Float64() * 20, Y: r.Float64() * 20, Z: r.Float64()}
		var coords []tangentCoord
		for line := 1 + r.Intn(4); line > 0; line-- {
			dir := geom.Vec3{X: r.NormFloat64(), Y: r.NormFloat64(), Z: r.NormFloat64()}
			if r.Intn(2) == 0 {
				dir = prov.Cross(dir) // in the tangent plane
			}
			for k := 2 + r.Intn(30); k > 0; k-- {
				d := dir.Scale(float64(r.Intn(40)-20) * 0.05)
				q := p.Add(d)
				for copies := 1 + r.Intn(2); copies > 0; copies-- {
					d := q.Sub(p)
					coords = append(coords, tangentCoord{d.Dot(v), d.Dot(u)})
				}
			}
		}
		checkFanOrder(t, "facade columns", &sc, coords)
	}

	// Key gaps exactly at the guard and an ulp either side of it, between
	// the positive x axis (key +0) and one neighbor, with and without other
	// entries between.
	for _, gap := range []float64{math.Nextafter(keyGuard, 0), keyGuard, math.Nextafter(keyGuard, 1)} {
		y := yForKey(t, gap)
		for _, coords := range [][]tangentCoord{
			{{y, 1}, {0, 1}},
			{{0, 1}, {y, 1}},
			{{y, 1}, {0, 1}, {negZero, 1}, {y, 1}, {2 * y, 1}},
			{{y / 2, 1}, {y, 1}, {0, 1}, {y, 1}},
		} {
			checkFanOrder(t, "guard gap", &sc, coords)
		}
	}

	// Non-finite coordinates and overflowing sums certify nothing: the
	// fan is still a permutation of its slots.
	inf, nan := math.Inf(1), math.NaN()
	for _, coords := range [][]tangentCoord{
		{{inf, 1}, {1, 1}, {-1, 1}, {1, -inf}, {-inf, -inf}},
		{{nan, 1}, {1, 1}, {0, nan}, {-1, 0}},
		{{1, 1}, {math.MaxFloat64, math.MaxFloat64}, {-math.MaxFloat64, math.MaxFloat64}, {0, -1}},
		{{1.5e308, -1e308}, {1, 2}, {2, 1}, {1, 2}},
	} {
		checkNonFiniteFan(t, "non-finite", &sc, coords)
		long := append([]tangentCoord(nil), coords...)
		for len(long) < 80 {
			long = append(long, tangentCoord{r.NormFloat64(), r.NormFloat64()})
		}
		checkNonFiniteFan(t, "non-finite, 80 entries", &sc, long)
	}

	// Subnormals, alone and beside normal numbers.
	tiny := math.SmallestNonzeroFloat64
	sub := []tangentCoord{
		{tiny, tiny}, {tiny, -tiny}, {-tiny, tiny}, {tiny, 0}, {0, tiny}, {-tiny, negZero},
		{3 * tiny, 1e-310}, {1e-310, 3 * tiny}, {tiny, 1}, {1, tiny}, {-tiny, -1}, {2.2e-308, -1e-320},
		// y/x underflows to +0 and math.Atan2 answers +π, not −π.
		{-5.9e-236, -5.8e256}, {-tiny, -1e300}, {-1e-200, -1e200}, {1e-200, -1e200}, {-1e-200, 1e200},
	}
	checkFanOrder(t, "subnormals", &sc, sub)
	for rep := 0; rep < 50; rep++ {
		shuffled := append([]tangentCoord(nil), sub...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		checkFanOrder(t, "subnormals, shuffled", &sc, shuffled)
	}

	// Random fans: spread, clustered in azimuth, and on small integers
	// (exact ties and collinear points everywhere).
	for n := 0; n <= 300; n++ {
		spread := make([]tangentCoord, n)
		clustered := make([]tangentCoord, n)
		integer := make([]tangentCoord, n)
		c := r.Float64() * 2 * math.Pi
		for i := 0; i < n; i++ {
			spread[i] = tangentCoord{r.NormFloat64(), r.NormFloat64()}
			a, m := c+(r.Float64()-0.5)*1e-8, r.Float64()
			clustered[i] = tangentCoord{m * math.Sin(a), m * math.Cos(a)}
			integer[i] = tangentCoord{float64(r.Intn(7) - 3), float64(r.Intn(7) - 3)}
		}
		checkFanOrder(t, "random", &sc, spread)
		checkFanOrder(t, "clustered", &sc, clustered)
		checkFanOrder(t, "integer", &sc, integer)
	}
}

// TestNonFiniteNeighborGivesNaNNormal: a neighborhood holding a NaN or
// infinite point has a NaN AreaWeighted normal, which is why its fan's
// order is left open.
func TestNonFiniteNeighborGivesNaNNormal(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	var sc normalScratch
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for axis := 0; axis < 3; axis++ {
			for _, n := range []int{5, 40} {
				sc.pts = sc.pts[:0]
				for i := 0; i < n; i++ {
					sc.pts = append(sc.pts, geom.Vec3{X: r.Float64(), Y: r.Float64(), Z: 0.01 * r.Float64()})
				}
				q := &sc.pts[1+r.Intn(n-1)]
				switch axis {
				case 0:
					q.X = bad
				case 1:
					q.Y = bad
				case 2:
					q.Z = bad
				}
				if got := sc.areaWeightedNormal(sc.pts[0]); !math.IsNaN(got.Norm()) {
					t.Errorf("%v in axis %d of %d points: normal %v, want a NaN", bad, axis, n, got)
				}
			}
		}
	}
}

// FuzzFanOrder reads a fan out of the fuzzer's bytes: every seventeen
// bytes one (y, x), the first byte choosing how it is made (raw float64
// bits, NaNs and infinities included; small integers, so that ties and
// collinear points are common; a multiple of a shared direction; a signed
// zero), the rest the bits. The order must be the stable azimuth order
// wherever every |x|+|y| is finite, and a permutation of the slots where
// not.
func FuzzFanOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 17*40))
	seed := make([]byte, 17*200)
	rand.New(rand.NewSource(2)).Read(seed)
	f.Add(seed)
	var sc normalScratch
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 17*512 {
			data = data[:17*512]
		}
		var coords []tangentCoord
		for ; len(data) >= 17; data = data[17:] {
			a := binary.LittleEndian.Uint64(data[1:9])
			b := binary.LittleEndian.Uint64(data[9:17])
			var c tangentCoord
			switch data[0] % 4 {
			case 0:
				c = tangentCoord{math.Float64frombits(a), math.Float64frombits(b)}
			case 1:
				c = tangentCoord{float64(int64(a%9) - 4), float64(int64(b%9) - 4)}
			case 2:
				s := float64(int64(a%2001)-1000) / 7
				c = tangentCoord{s * 0.3, s * -1.7}
			case 3:
				c = tangentCoord{math.Copysign(0, float64(int64(a%2)*2-1)), math.Copysign(0, float64(int64(b%2)*2-1))}
			}
			coords = append(coords, c)
		}
		if finiteFan(coords) {
			checkFanOrder(t, "fuzz", &sc, coords)
		} else {
			checkNonFiniteFan(t, "fuzz", &sc, coords)
		}
	})
}

// TestThetaBinMatchesAtan2: thetaBin is binAngle(math.Atan2(y, x)) at
// every bin edge and the float64 angles either side of it, at the exact
// (y, x) where binAngle's bin flips, at signed zeros, non-finite and
// subnormal inputs, and on random inputs.
func TestThetaBinMatchesAtan2(t *testing.T) {
	check := func(y, x float64) {
		t.Helper()
		if got, want := thetaBin(y, x), binAngle(math.Atan2(y, x)); got != want {
			t.Fatalf("thetaBin(%v, %v) = %d, binAngle(atan2) = %d", y, x, got, want)
		}
	}
	for e := 0; e <= fpfhBinsPerAngle; e++ {
		edge := -math.Pi + float64(e)*2*math.Pi/fpfhBinsPerAngle
		// The float64 angle where binAngle's bin changes, by bisection.
		lo, hi := edge-1e-6, edge+1e-6
		if e == 0 || e == fpfhBinsPerAngle {
			lo, hi = edge, edge
		}
		for binAngle(lo) != binAngle(hi) && math.Nextafter(lo, hi) != hi {
			if mid := lo + (hi-lo)/2; binAngle(mid) == binAngle(lo) {
				lo = mid
			} else {
				hi = mid
			}
		}
		for _, a := range []float64{edge, lo, hi} {
			for steps, b := 0, a; steps < 8; steps, b = steps+1, math.Nextafter(b, math.Inf(1)) {
				for _, m := range []float64{1, 1e-3, 7.5, 1e-300, 1e300} {
					check(m*math.Sin(b), m*math.Cos(b))
				}
			}
			for steps, b := 0, a; steps < 8; steps, b = steps+1, math.Nextafter(b, math.Inf(-1)) {
				check(math.Sin(b), math.Cos(b))
			}
		}
	}
	negZero := math.Copysign(0, -1)
	inf, nan, tiny := math.Inf(1), math.NaN(), math.SmallestNonzeroFloat64
	for _, c := range [][2]float64{
		{0, 0}, {negZero, 0}, {0, negZero}, {negZero, negZero}, {0, -1}, {negZero, -1}, {1, 0}, {-1, negZero},
		{inf, 1}, {1, inf}, {-inf, -inf}, {nan, 1}, {1, nan}, {math.MaxFloat64, -math.MaxFloat64},
		{tiny, -tiny}, {-tiny, 1}, {1e-310, -3e-310}, {-5.9e-236, -5.8e256}, {-tiny, -1e300}, {-1e-200, -1e200},
	} {
		check(c[0], c[1])
	}
	r := rand.New(rand.NewSource(76))
	for i := 0; i < 200_000; i++ {
		check(r.NormFloat64(), r.NormFloat64())
	}
}
