package search

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"tigris/internal/cloud"
)

// This file implements the open backend registry: search structures are
// selected by name through a factory interface, so new structures (and
// decorators like the trace backend) plug into the registration pipeline,
// the HTTP service, the DSE harness, and the accelerator co-simulation
// without touching a switch statement. The paper's whole thesis is that
// *which* neighbor-search structure serves the pipeline's millions of
// queries governs registration speed; an open registry is how the repo
// keeps growing that design space.

// Registered backend names. These are the stable selection strings used
// by -backend flags, the tigris-serve session JSON, and
// registration.SearcherConfig.Backend.
const (
	// BackendCanonical is the classic KD-tree (the §3 baseline): the
	// reference structure, reached by name only.
	BackendCanonical = "canonical"
	// BackendTwoStage is the two-stage tree with exact search (§4.1): what
	// an empty backend name resolves to throughout the pipeline.
	BackendTwoStage = "twostage"
	// BackendTwoStageApprox is the two-stage tree with the approximate
	// leader/follower algorithm (§4.3).
	BackendTwoStageApprox = "twostage-approx"
	// BackendBruteForce is the linear scan: the correctness oracle, and
	// the fastest choice for tiny clouds where tree construction
	// dominates.
	BackendBruteForce = "bruteforce"
	// BackendTrace decorates another backend and records every batch into
	// a TraceLog for accelerator co-simulation replay.
	BackendTrace = "trace"
)

// Option keys understood by the built-in backends. Backends reject
// unknown keys, so typos surface as construction errors instead of
// silently selecting defaults.
const (
	// OptParallelism (int) is the batch worker count; accepted by every
	// built-in backend. 0 selects the slot budget (par.Slots), 1 forces the
	// sequential path. registration.SearcherConfig sets it from its
	// Parallelism field and refuses it in its Options.
	OptParallelism = "parallelism"
	// OptTopHeight (int) is the two-stage top-tree height; absent or < 0
	// sizes leaf sets for a CPU (autoLeafSize points).
	OptTopHeight = "top_height"
	// optNNThreshold (float) is the approximate-search NN discriminator
	// in meters (0 selects twostage.DefaultNNThreshold).
	optNNThreshold = "nn_threshold"
	// optRadiusThresholdFrac (float) is the approximate-search radius
	// discriminator as a fraction of the radius (0 selects
	// twostage.DefaultRadiusThresholdFrac).
	optRadiusThresholdFrac = "radius_threshold_frac"
	// OptTraceInner (string) names the backend the trace decorator wraps
	// (default canonical). Remaining options pass through to it.
	OptTraceInner = "inner"
	// OptTraceSink (*TraceLog) is the log the trace backend records into.
	OptTraceSink = "sink"
)

// Options is the generic backend option bag. Values travel untyped so
// options can come from JSON (numbers decode as float64 and are coerced),
// CLI flags, or Go code (which may carry live objects like the trace
// sink). The typed accessors perform the coercions and report clear
// errors.
type Options map[string]any

// Clone returns a shallow copy (nil stays nil).
func (o Options) Clone() Options {
	if o == nil {
		return nil
	}
	out := make(Options, len(o))
	for k, v := range o {
		out[k] = v
	}
	return out
}

// Int reads an integer option, accepting the numeric types JSON and Go
// callers produce. Absent (or nil) keys yield def.
func (o Options) Int(key string, def int) (int, error) {
	v, ok := o[key]
	if !ok || v == nil {
		return def, nil
	}
	switch n := v.(type) {
	case int:
		return n, nil
	case int32:
		return int(n), nil
	case int64:
		return int(n), nil
	case float64:
		if n != math.Trunc(n) {
			return 0, fmt.Errorf("option %q: want an integer, got %v", key, n)
		}
		// Converting a float64 outside int's range is
		// implementation-defined: on amd64 every such value reads as
		// math.MinInt, which an option may take for "auto".
		if n < math.MinInt || n >= -math.MinInt {
			return 0, fmt.Errorf("option %q: %v is out of range for an integer", key, n)
		}
		return int(n), nil
	}
	return 0, fmt.Errorf("option %q: want an integer, got %T", key, v)
}

// Float reads a float option. Absent (or nil) keys yield def.
func (o Options) Float(key string, def float64) (float64, error) {
	v, ok := o[key]
	if !ok || v == nil {
		return def, nil
	}
	switch n := v.(type) {
	case float64:
		return n, nil
	case float32:
		return float64(n), nil
	case int:
		return float64(n), nil
	case int64:
		return float64(n), nil
	}
	return 0, fmt.Errorf("option %q: want a number, got %T", key, v)
}

// String reads a string option. Absent (or nil) keys yield def.
func (o Options) String(key, def string) (string, error) {
	v, ok := o[key]
	if !ok || v == nil {
		return def, nil
	}
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("option %q: want a string, got %T", key, v)
	}
	return s, nil
}

// checkKeys rejects any key outside the known set, so misspelled options
// fail construction instead of silently falling back to defaults.
func (o Options) checkKeys(known ...string) error {
	var bad []string
	for k := range o {
		found := false
		for _, ok := range known {
			if k == ok {
				found = true
				break
			}
		}
		if !found {
			bad = append(bad, k)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	noun := "option"
	if len(bad) > 1 {
		noun = "options"
	}
	return fmt.Errorf("unknown %s %s (known: %s)", noun, strings.Join(bad, ", "), strings.Join(known, ", "))
}

// Backend is a named searcher factory: the unit of registration. New
// builds a Searcher zero-copy over an SoA slab; opts carries
// backend-specific knobs (see the Opt* keys) and must be rejected when it
// contains keys the backend does not understand.
type Backend interface {
	// Name returns the registry selection string.
	Name() string
	// New builds a searcher over the (possibly empty) slab.
	New(s *cloud.Slab, opts Options) (Searcher, error)
}

// backendFunc adapts a plain factory function to Backend.
type backendFunc struct {
	name string
	fn   func(s *cloud.Slab, opts Options) (Searcher, error)
}

func (b backendFunc) Name() string { return b.name }
func (b backendFunc) New(s *cloud.Slab, opts Options) (Searcher, error) {
	return b.fn(s, opts)
}

// NewBackend wraps a factory function as a registrable Backend.
func NewBackend(name string, fn func(s *cloud.Slab, opts Options) (Searcher, error)) Backend {
	return backendFunc{name: name, fn: fn}
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Backend{}
)

// RegisterBackend adds a backend to the registry. Names are unique;
// registering a duplicate (or empty) name is an error so extensions
// cannot silently shadow the built-ins.
func RegisterBackend(b Backend) error {
	name := b.Name()
	if name == "" {
		return fmt.Errorf("search: cannot register a backend with an empty name")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("search: backend %q already registered", name)
	}
	registry[name] = b
	return nil
}

// mustRegister registers the built-ins at init time; a failure there is a
// programming error.
func mustRegister(b Backend) {
	if err := RegisterBackend(b); err != nil {
		panic(err)
	}
}

// Backends returns the registered backend names, sorted.
func Backends() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// lookupBackend returns the named backend factory.
func lookupBackend(name string) (Backend, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	b, ok := registry[name]
	return b, ok
}

// NewByNameSlab builds a searcher through the registry, zero-copy over
// an SoA slab — the pipeline's hot construction path (one quantization on
// frame ingest, no further copies). Unknown names report the registered
// set so callers (CLI flags, HTTP handlers) can surface an actionable
// error.
func NewByNameSlab(name string, slab *cloud.Slab, opts Options) (Searcher, error) {
	b, ok := lookupBackend(name)
	if !ok {
		return nil, fmt.Errorf("search: unknown backend %q (registered: %s)",
			name, strings.Join(Backends(), ", "))
	}
	s, err := b.New(slab, opts)
	if err != nil {
		return nil, fmt.Errorf("search: backend %q: %w", name, err)
	}
	return s, nil
}
