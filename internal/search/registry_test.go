package search

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"tigris/internal/cloud"
	"tigris/internal/geom"
	"tigris/internal/twostage"
)

// TestBackendsListsBuiltins pins the registered name set (sorted) so new
// backends show up deliberately.
func TestBackendsListsBuiltins(t *testing.T) {
	got := Backends()
	for _, want := range []string{
		BackendBruteForce, BackendCanonical, BackendTrace,
		BackendTwoStage, BackendTwoStageApprox,
	} {
		found := false
		for _, name := range got {
			found = found || name == want
		}
		if !found {
			t.Errorf("Backends() = %v, missing %q", got, want)
		}
	}
	if !sortedStrings(got) {
		t.Errorf("Backends() not sorted: %v", got)
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			return false
		}
	}
	return true
}

// TestRegisterBackendErrors covers duplicate and empty names.
func TestRegisterBackendErrors(t *testing.T) {
	dup := NewBackend(BackendCanonical, newCanonicalBackend)
	if err := RegisterBackend(dup); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("duplicate registration error = %v", err)
	}
	if err := RegisterBackend(NewBackend("", newCanonicalBackend)); err == nil {
		t.Fatal("empty-name registration must fail")
	}
}

// TestRegisterCustomBackend proves the API is open: a backend registered
// at runtime is immediately constructible by name.
func TestRegisterCustomBackend(t *testing.T) {
	const name = "test-custom-linear"
	if err := RegisterBackend(NewBackend(name, func(slab *cloud.Slab, opts Options) (Searcher, error) {
		if err := opts.checkKeys(OptParallelism); err != nil {
			return nil, err
		}
		return NewBruteSearcherSlab(slab), nil
	})); err != nil {
		t.Fatal(err)
	}
	pts := randPoints(rand.New(rand.NewSource(3)), 50)
	s, err := NewByNameSlab(name, cloud.SlabFromPoints(pts), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Nearest(pts[0]); !ok {
		t.Fatal("custom backend returned no neighbor")
	}
}

// TestNewByNameUnknown checks the error lists the registered set.
func TestNewByNameUnknown(t *testing.T) {
	_, err := NewByNameSlab("no-such-structure", cloud.NewSlab(0), nil)
	if err == nil {
		t.Fatal("unknown backend must fail")
	}
	if !strings.Contains(err.Error(), BackendCanonical) || !strings.Contains(err.Error(), "no-such-structure") {
		t.Fatalf("error should name the unknown backend and the registered set, got: %v", err)
	}
}

// TestBuiltinsConstructOverEmptySlab: config validation builds every
// backend over no points (registration.SearcherConfig.Validate,
// loop.Config), so each built-in must construct there and answer "no
// neighbor" instead of panicking.
func TestBuiltinsConstructOverEmptySlab(t *testing.T) {
	for _, name := range Backends() {
		var opts Options
		if name == BackendTrace {
			opts = Options{OptTraceSink: &TraceLog{}}
		}
		s, err := NewByNameSlab(name, cloud.NewSlab(0), opts)
		if err != nil {
			t.Errorf("%s over an empty slab: %v", name, err)
			continue
		}
		if _, ok := s.Nearest(geom.Vec3{}); ok {
			t.Errorf("%s found a neighbor in an empty slab", name)
		}
	}
}

// TestBackendOptionErrors: unknown keys and wrong types fail
// construction instead of silently selecting defaults.
func TestBackendOptionErrors(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{BackendCanonical, Options{"top_height": 5}, "unknown option"},
		{BackendCanonical, Options{OptParallelism: "four"}, "want an integer"},
		{BackendTwoStage, Options{OptTopHeight: 2.5}, "want an integer"},
		{BackendTwoStage, Options{OptTopHeight: 1e300}, "out of range"},
		{BackendTwoStage, Options{OptTopHeight: -1e300}, "out of range"},
		{BackendTwoStage, Options{OptTopHeight: 9.3e18}, "out of range"},
		{BackendTwoStageApprox, Options{optNNThreshold: "big"}, "want a number"},
		{BackendTrace, Options{}, "requires a *search.TraceLog"},
		{BackendTrace, Options{OptTraceSink: &TraceLog{}, OptTraceInner: BackendTrace}, "cannot wrap itself"},
		{BackendTrace, Options{OptTraceSink: &TraceLog{}, OptTraceInner: "nope"}, "unknown backend"},
		// The decorator consumes inner and sink only; a retired key of its
		// own is the inner backend's unknown key.
		{BackendTrace, Options{OptTraceSink: &TraceLog{}, "max_batches": 2}, "unknown option max_batches"},
	}
	for _, tc := range cases {
		_, err := NewByNameSlab(tc.name, cloud.NewSlab(0), tc.opts)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s with %v: error = %v, want substring %q", tc.name, tc.opts, err, tc.want)
		}
	}

	// Several typos surface in one round trip, sorted.
	_, err := NewByNameSlab(BackendCanonical, cloud.NewSlab(0), Options{"tophight": 8, "nn_treshold": 1.0})
	if err == nil || !strings.Contains(err.Error(), "nn_treshold, tophight") {
		t.Errorf("multi-typo error should list every unknown key, got: %v", err)
	}
}

// TestOptionsRoundTrip builds every built-in through the registry with
// JSON-shaped options (numbers as float64, as encoding/json delivers
// them) and checks the knobs took effect and the results match direct
// construction.
func TestOptionsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pts := randPoints(r, 500)
	qs := randPoints(r, 40)

	direct := map[string]Searcher{
		BackendCanonical:  NewKDSearcher(pts),
		BackendTwoStage:   NewTwoStageSearcher(pts, TwoStageConfig{TopHeight: 4}),
		BackendBruteForce: NewBruteSearcher(pts),
		BackendTwoStageApprox: NewTwoStageSearcher(pts, TwoStageConfig{
			TopHeight: 4,
			Approx:    &twostage.ApproxOptions{Threshold: 1.0, RadiusThresholdFrac: 0.3},
		}),
	}
	jsonOpts := map[string]Options{
		BackendCanonical:  {OptParallelism: float64(2)},
		BackendTwoStage:   {OptParallelism: float64(2), OptTopHeight: float64(4)},
		BackendBruteForce: {OptParallelism: float64(2)},
		BackendTwoStageApprox: {
			OptParallelism: float64(2), OptTopHeight: float64(4),
			optNNThreshold: 1.0, optRadiusThresholdFrac: 0.3,
		},
	}
	for name, opts := range jsonOpts {
		s, err := NewByNameSlab(name, cloud.SlabFromPoints(pts), opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Parallelism() != 2 {
			t.Errorf("%s: parallelism option not applied, got %d", name, s.Parallelism())
		}
		want := direct[name]
		for i, q := range qs {
			a, _ := s.Nearest(q)
			b, _ := want.Nearest(q)
			if a != b {
				t.Fatalf("%s query %d: registry-built result %v != direct %v", name, i, a, b)
			}
		}
		// Radius results too (exercises the approximate radius path).
		ra := s.RadiusBatch(qs, 2.0)
		rb := want.RadiusBatch(qs, 2.0)
		for i := range qs {
			if !reflect.DeepEqual(ra[i], rb[i]) {
				t.Fatalf("%s query %d: radius mismatch", name, i)
			}
		}
	}
}
