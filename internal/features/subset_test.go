package features

import (
	"math"
	"math/rand"
	"testing"

	"tigris/internal/geom"
	"tigris/internal/search"
)

// untouched is the marker every normal slot holds before a subset
// estimation, so a write outside the listed points shows. No estimator
// produces it (normals are unit vectors or +Z).
var untouched = geom.Vec3{X: 7, Y: -7, Z: 7}

// TestEstimateNormalsAtMatchesWholeCloud: over any index list — empty,
// with repeats, unsorted, every point — the listed points end with the
// bits a whole-cloud EstimateNormals leaves there and no other slot is
// written, for both estimators, sequential and parallel sweeps.
func TestEstimateNormalsAtMatchesWholeCloud(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	base := boxEdgeCloud(r, 1800)
	n := base.Len()

	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	shuffled := append([]int(nil), all...)
	r.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	repeats := append(append([]int(nil), shuffled[:300]...), shuffled[100:400]...)
	repeats = append(repeats, repeats[0], repeats[0])
	lists := map[string][]int{
		"nil":       nil,
		"empty":     {},
		"one":       {n - 1},
		"unsorted":  shuffled[:n/3],
		"repeats":   repeats,
		"all":       all,
		"all-twice": append(append([]int(nil), shuffled...), all...),
	}

	for _, method := range []NormalMethod{PlaneSVD, AreaWeighted} {
		for _, cfg := range []NormalConfig{
			{Method: method, SearchRadius: 0.8},
			{Method: method, SearchRadius: 0.05}, // mostly degenerate neighborhoods
		} {
			whole := cloneSlab(base)
			wholeS := search.NewKDSearcherSlab(whole)
			EstimateNormals(whole, wholeS, cfg)
			// The distinct listed points whose neighborhood is too small.
			wantDegenerate := func(idx []int) int {
				seen := map[int]bool{}
				for _, i := range idx {
					if len(wholeS.Radius(whole.At(i), cfg.SearchRadius)) < 3 {
						seen[i] = true
					}
				}
				return len(seen)
			}
			for name, idx := range lists {
				for _, workers := range []int{1, 4} {
					c := cloneSlab(base)
					c.EnsureNormals()
					for i := 0; i < n; i++ {
						c.SetNormal(i, untouched)
					}
					s := search.NewKDSearcherSlab(c)
					s.SetParallelism(workers)
					degen := EstimateNormalsAt(c, s, cfg, idx)
					if want := wantDegenerate(idx); degen != want {
						t.Errorf("%v %+v %s p%d: %d degenerate points, want %d", method, cfg, name, workers, degen, want)
					}
					listed := make([]bool, n)
					for _, i := range idx {
						listed[i] = true
					}
					for i := 0; i < n; i++ {
						want := untouched.Quantize32()
						if listed[i] {
							want = whole.NormalAt(i)
						}
						got := c.NormalAt(i)
						if math.Float64bits(got.X) != math.Float64bits(want.X) ||
							math.Float64bits(got.Y) != math.Float64bits(want.Y) ||
							math.Float64bits(got.Z) != math.Float64bits(want.Z) {
							t.Fatalf("%v %+v %s p%d: normal[%d] (listed %v) = %v, want %v", method, cfg, name, workers, i, listed[i], got, want)
						}
					}
				}
			}
		}
	}
}

// TestEstimateNormalsAtAllocatesNormalSlabs: a slab without normal
// arrays gets them, zeroed outside the listed points.
func TestEstimateNormalsAtAllocatesNormalSlabs(t *testing.T) {
	c := boxEdgeCloud(rand.New(rand.NewSource(72)), 400)
	s := search.NewKDSearcherSlab(c)
	EstimateNormalsAt(c, s, NormalConfig{SearchRadius: 0.8}, []int{5})
	if !c.HasNormals() {
		t.Fatal("no normal slabs after a subset estimation")
	}
	if c.NormalAt(5) == (geom.Vec3{}) {
		t.Error("listed point has no normal")
	}
	if c.NormalAt(6) != (geom.Vec3{}) {
		t.Errorf("unlisted point written: %v", c.NormalAt(6))
	}
}

// refSortPolar is the stable insertion sort the fan was ordered with
// before sortPolar; the order it produces is the contract.
func refSortPolar(p []polarEntry) {
	for i := 1; i < len(p); i++ {
		for j := i; j > 0 && p[j].key < p[j-1].key; j-- {
			p[j], p[j-1] = p[j-1], p[j]
		}
	}
}

// TestFanSortMatchesInsertionSort: entry for entry, on random fans, fans
// of one key, fans with runs of ties, clustered fans (every entry in one or
// two sectors), keys at the range's ends and fans clustered in descending
// order (reversed within their sectors after the deal), lengths 0–300,
// over the diamond key's range [-2, 2].
func TestFanSortMatchesInsertionSort(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	uniform := func() float64 { return r.Float64()*4 - 2 }
	makers := map[string]func(n int) []float64{
		"random": func(n int) []float64 {
			a := make([]float64, n)
			for i := range a {
				a[i] = uniform()
			}
			return a
		},
		"all-equal": func(n int) []float64 {
			a := make([]float64, n)
			v := uniform()
			for i := range a {
				a[i] = v
			}
			return a
		},
		"tie-runs": func(n int) []float64 {
			a := make([]float64, n)
			vals := []float64{uniform(), uniform(), uniform(), 0, math.Copysign(0, -1), 2, -2}
			for i := 0; i < n; {
				v := vals[r.Intn(len(vals))]
				for run := 1 + r.Intn(9); run > 0 && i < n; run-- {
					a[i] = v
					i++
				}
			}
			return a
		},
		"clustered": func(n int) []float64 {
			a := make([]float64, n)
			c := uniform()
			for i := range a {
				a[i] = c + (r.Float64()-0.5)*1e-3
				if r.Intn(2) == 0 {
					a[i] = math.Remainder(a[i]+2, 4)
				}
			}
			return a
		},
		"descending": func(n int) []float64 {
			a := make([]float64, n)
			for i := range a {
				a[i] = 2 - 4*float64(i)/float64(n+1)
			}
			return a
		},
		"clustered-descending": func(n int) []float64 {
			a := make([]float64, n)
			c := uniform()
			for i := range a {
				a[i] = c - 1e-6*float64(i)
			}
			return a
		},
	}
	var sc normalScratch
	for name, mk := range makers {
		for n := 0; n <= 300; n++ {
			keys := mk(n)
			want := make([]polarEntry, n)
			for i, k := range keys {
				want[i] = polarEntry{slot: i, key: k}
			}
			sc.polar = append(sc.polar[:0], want...)
			refSortPolar(want)
			sc.sortPolar()
			for i := range want {
				if sc.polar[i].slot != want[i].slot || math.Float64bits(sc.polar[i].key) != math.Float64bits(want[i].key) {
					t.Fatalf("%s n=%d: entry %d = %+v, insertion sort has %+v", name, n, i, sc.polar[i], want[i])
				}
			}
		}
	}
}

// TestNormalSweepsAreRecycled: with a sweep idle in the free list, a
// one-worker subset estimation allocates nothing — fine-tuning runs one
// per ICP iteration.
func TestNormalSweepsAreRecycled(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under -race")
	}
	c := boxEdgeCloud(rand.New(rand.NewSource(74)), 1500)
	s := search.NewKDSearcherSlabPar(c, 1)
	idx := []int{3, 500, 77, 1200, 9}
	for _, cfg := range []NormalConfig{
		{Method: AreaWeighted, SearchRadius: 0.8},
		{Method: PlaneSVD, SearchRadius: 0.8},
	} {
		EstimateNormals(c, s, cfg) // grow the scratch and the result arenas
		if allocs := testing.AllocsPerRun(50, func() { EstimateNormalsAt(c, s, cfg, idx) }); allocs > 2 {
			t.Errorf("%+v: a warmed subset estimation allocates %.1f times, want at most its two closures", cfg, allocs)
		}
	}
}
