package kdtree

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"tigris/internal/geom"
)

// The brute-force oracles (brute.go, search.BruteSearcher, and through
// them the benchmark's verifier) order their answers with SortNeighbors
// too, so they agree with the trees whatever it does. These tests hold it
// to an order computed without it: sort.Slice under (Dist2, Index).

// referenceNeighborOrder returns a copy of in sorted by the standard library.
func referenceNeighborOrder(in []Neighbor) []Neighbor {
	want := append([]Neighbor(nil), in...)
	sort.Slice(want, func(i, j int) bool {
		if want[i].Dist2 != want[j].Dist2 {
			return want[i].Dist2 < want[j].Dist2
		}
		return want[i].Index < want[j].Index
	})
	return want
}

// checkSortNeighbors sorts a copy of in with spare capacity for the deal
// and a copy with none, and compares both with the reference entry for
// entry.
func checkSortNeighbors(t *testing.T, name string, in []Neighbor) {
	t.Helper()
	want := referenceNeighborOrder(in)
	for _, spare := range []int{0, len(in), 2 * len(in), 2*len(in) + 7} {
		got := make([]Neighbor, len(in), len(in)+spare)
		copy(got, in)
		SortNeighbors(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s, n=%d, spare %d: entry %d is %+v, want %+v", name, len(in), spare, i, got[i], want[i])
			}
		}
	}
}

// shapedNeighbors builds n neighbours with distinct indices in shuffled
// order whose distances follow shape.
func shapedNeighbors(rng *rand.Rand, n int, shape string) []Neighbor {
	out := make([]Neighbor, n)
	perm := rng.Perm(n)
	for i := range out {
		var d float64
		switch shape {
		case "uniform":
			d = rng.Float64() * 4
		case "duplicates": // a handful of distances, many indices each
			d = float64(rng.Intn(5)) * 0.37
		case "all-equal":
			d = 1.5
		case "all-zero":
			d = 0
		case "two-clusters": // half at d² ≈ 0, half at d² ≈ r²
			d = rng.Float64() * 1e-9
			if i%2 == 1 {
				d = 4 - rng.Float64()*1e-9
			}
		case "geometric":
			d = math.Pow(0.5, float64(i%1000))
		case "some-inf":
			d = rng.Float64()
			if i%3 == 0 {
				d = math.Inf(1)
			}
		case "all-inf":
			d = math.Inf(1)
		case "huge":
			d = math.MaxFloat64 * rng.Float64()
		case "tiny":
			d = math.SmallestNonzeroFloat64 * float64(rng.Intn(50))
		}
		out[i] = Neighbor{Index: perm[i], Dist2: d}
	}
	return out
}

var sortShapes = []string{"uniform", "duplicates", "all-equal", "all-zero", "two-clusters", "geometric", "some-inf", "all-inf", "huge", "tiny"}

func TestSortNeighborsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	sizes := []int{0, 1, 2, 3, insertionMax, insertionMax + 1, insertionMax + 2, 100, 165, 1000, 4096}
	for i := 0; i < 40; i++ {
		sizes = append(sizes, rng.Intn(4097))
	}
	for _, n := range sizes {
		for _, shape := range sortShapes {
			in := shapedNeighbors(rng, n, shape)
			checkSortNeighbors(t, shape, in)
			sorted := referenceNeighborOrder(in)
			checkSortNeighbors(t, shape+", already sorted", sorted)
			for l, r := 0, len(sorted)-1; l < r; l, r = l+1, r-1 {
				sorted[l], sorted[r] = sorted[r], sorted[l]
			}
			checkSortNeighbors(t, shape+", reversed", sorted)
		}
	}
}

// FuzzSortNeighbors reads a result set out of the fuzzer's bytes: every
// nine bytes one neighbour, the first choosing how its distance is made
// (a raw non-negative float64, +Inf included; a small integer, so that
// duplicates are common; zero), the rest the bits. Indices are distinct,
// as a search's are.
func FuzzSortNeighbors(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 9*40))
	seed := make([]byte, 9*200)
	rand.New(rand.NewSource(1)).Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 9*4096 {
			data = data[:9*4096]
		}
		in := make([]Neighbor, 0, len(data)/9)
		for ; len(data) >= 9; data = data[9:] {
			bits := binary.LittleEndian.Uint64(data[1:9])
			var d float64
			switch data[0] % 4 {
			case 0:
				d = math.Abs(math.Float64frombits(bits))
				if d != d {
					d = math.Inf(1)
				}
			case 1:
				d = float64(bits % 7)
			case 2:
				d = float64(bits%1000) / 1000
			}
			// Scatter the indices: 40503 is odd, so i -> i*40503 mod 2^16
			// is a permutation of the at most 4,096 positions.
			in = append(in, Neighbor{Index: len(in) * 40503 % 65536, Dist2: d})
		}
		checkSortNeighbors(t, "fuzz", in)
	})
}

// TestSortNeighborsHostileInputsStayFast holds the deal to the comparison
// sort's order of time on clouds built to defeat it. Everything at one
// distance, two tight clusters and a geometric series all land in one or
// two buckets; finished by an insertion sort those take seconds (50 k
// entries, ~n²/4 moves), by the comparison sort milliseconds. The bound
// is the in-place sort's own time on the same input, times a generous
// factor, so a slow machine moves both sides.
func TestSortNeighborsHostileInputsStayFast(t *testing.T) {
	const n = 50_000
	rng := rand.New(rand.NewSource(50))
	for _, shape := range []string{"all-equal", "two-clusters", "geometric", "some-inf", "uniform"} {
		in := shapedNeighbors(rng, n, shape)
		want := referenceNeighborOrder(in)

		inPlace := append(make([]Neighbor, 0, n), in...)
		start := time.Now()
		SortNeighbors(inPlace)
		base := time.Since(start)

		dealt := append(make([]Neighbor, 0, 4*n), in...)
		start = time.Now()
		SortNeighbors(dealt)
		took := time.Since(start)

		for i := range want {
			if dealt[i] != want[i] || inPlace[i] != want[i] {
				t.Fatalf("%s: entry %d is %+v (deal) / %+v (in place), want %+v", shape, i, dealt[i], inPlace[i], want[i])
			}
		}
		if limit := 10*base + 100*time.Millisecond; took > limit {
			t.Errorf("%s: %d entries sorted in %v with spare capacity, %v without: the deal lost the O(n log n) worst case", shape, n, took, base)
		}
	}
}

// TestRadiusUnboundedAndOverflowingDistances asks for everything: an
// infinite radius, and a query so far away that every squared distance
// overflows to +Inf. Both answers are all the points — the second in
// index order, every key being equal — and no bucket index leaves its
// range on the way.
func TestRadiusUnboundedAndOverflowingDistances(t *testing.T) {
	pts := randPoints(rand.New(rand.NewSource(7)), 3000)
	tree := Build(pts)
	for _, q := range []geom.Vec3{{X: 1, Y: 2, Z: 3}, {X: 1e200, Y: -1e200, Z: 1e200}} {
		overflow := q.X > 1e100
		for _, spare := range []int{0, 4 * len(pts)} {
			answers := map[string][]Neighbor{
				"tree":  tree.RadiusInto(q, math.Inf(1), make([]Neighbor, 0, spare), nil),
				"brute": BruteRadiusIntoSlab(tree.Slab(), q, math.Inf(1), make([]Neighbor, 0, spare)),
			}
			for name, got := range answers {
				if len(got) != len(pts) {
					t.Fatalf("%s, query %v: %d of %d points", name, q, len(got), len(pts))
				}
				want := referenceNeighborOrder(got)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s, query %v: entry %d is %+v, want %+v", name, q, i, got[i], want[i])
					}
					if overflow && (got[i].Index != i || !math.IsInf(got[i].Dist2, 1)) {
						t.Fatalf("%s, query %v: entry %d is %+v, want index %d at +Inf", name, q, i, got[i], i)
					}
				}
			}
		}
	}
}

// BenchmarkSortNeighbors times one result sort at the sizes the pipeline
// asks for — 32 (a DP5 front-end neighbourhood), 165 (the mean DP7 answer
// over a raw frame), 1,000 (a DP7 descriptor support) — and at 16, just
// past insertionMax: with the spare capacity the batch arenas give
// (deal), and without (inplace: the comparison sort every answer went
// through before, and the fallback since). The inputs are what a walk
// over a surface leaves: distinct indices in no order, d² uniform. Each
// size cycles through 100,000 entries' worth of them so the branch
// predictor cannot learn one. ns/entry is the figure the constants in
// sort.go were set by.
func BenchmarkSortNeighbors(b *testing.B) {
	for _, n := range []int{16, 32, 165, 1000} {
		rng := rand.New(rand.NewSource(int64(n)))
		sets := make([][]Neighbor, 1+100_000/n)
		for i := range sets {
			sets[i] = shapedNeighbors(rng, n, "uniform")
		}
		for _, path := range []string{"deal", "inplace"} {
			b.Run(fmt.Sprintf("n=%d/%s", n, path), func(b *testing.B) {
				buf := make([]Neighbor, n, 3*n)
				if path == "inplace" {
					buf = buf[:n:n]
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(buf, sets[i%len(sets)])
					SortNeighbors(buf)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/entry")
			})
		}
	}
}
