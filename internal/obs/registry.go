package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; recording (Inc/Add) is lock-free and allocation-free,
// so counters can sit on hot paths and be read by a concurrent scraper
// or stats poller without any external locking.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is a programming error but not checked — the
// scrape surface treats counters as monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Registry is a named collection of metrics with Prometheus text
// exposition. Metric names may carry a label set inline, e.g.
// `tigris_http_requests_total{route="/healthz",code="200"}`; series
// sharing the name before '{' form one family and are emitted under a
// single # TYPE header. Get-or-create accessors make call sites
// self-registering; creation takes the registry lock, subsequent
// lookups only a read lock, and the returned handles record without
// any locking at all.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gaugeFuncs map[string]func() float64
	hists      map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gaugeFuncs: make(map[string]func() float64),
		hists:      make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// GaugeFunc registers a computed gauge: fn is evaluated at scrape time.
// Use it for values owned elsewhere (limiter occupancy, queue depths,
// live session counts) so the scrape always reports current state.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	r.gaugeFuncs[name] = fn
	r.mu.Unlock()
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = NewHistogram()
	r.hists[name] = h
	return h
}

// promBounds is the exposition bucket ladder in seconds. The internal
// histograms keep ~12.5%-wide buckets for exact percentile extraction;
// the scrape surface coarsens to this fixed ladder so a scrape stays a
// few hundred lines however many stages exist.
var promBounds = []float64{
	.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05,
	.1, .25, .5, 1, 2.5, 5, 10, 30, 60,
}

// splitName separates an inline label set from a metric name:
// `fam{a="b"}` → (`fam`, `a="b"`). No labels → (name, "").
func splitName(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// withLabel appends one more label to a (possibly empty) label set.
func withLabel(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

// WritePrometheus emits the registry in Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples,
// histograms as cumulative `_bucket{le=...}` series plus `_sum` and
// `_count`. Output is sorted by name, so scrapes are deterministic and
// diffable.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.RLock()
	counters := make(map[string]int64, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c.Value()
	}
	gauges := make(map[string]float64, len(r.gaugeFuncs))
	funcs := make(map[string]func() float64, len(r.gaugeFuncs))
	for n, fn := range r.gaugeFuncs {
		funcs[n] = fn
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.RUnlock()
	// Computed gauges run without the lock: they may themselves take
	// locks (session tables, engine state).
	for n, fn := range funcs {
		gauges[n] = fn()
	}

	emit := func(names []string, typ string, value func(string) string) {
		sort.Strings(names)
		lastFam := ""
		for _, n := range names {
			fam, _ := splitName(n)
			if fam != lastFam {
				fmt.Fprintf(w, "# TYPE %s %s\n", fam, typ)
				lastFam = fam
			}
			fmt.Fprintf(w, "%s %s\n", n, value(n))
		}
	}

	cnames := make([]string, 0, len(counters))
	for n := range counters {
		cnames = append(cnames, n)
	}
	emit(cnames, "counter", func(n string) string {
		return fmt.Sprintf("%d", counters[n])
	})

	gnames := make([]string, 0, len(gauges))
	for n := range gauges {
		gnames = append(gnames, n)
	}
	emit(gnames, "gauge", func(n string) string {
		return formatFloat(gauges[n])
	})

	hnames := make([]string, 0, len(hists))
	for n := range hists {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	lastFam := ""
	for _, n := range hnames {
		fam, labels := splitName(n)
		if fam != lastFam {
			fmt.Fprintf(w, "# TYPE %s histogram\n", fam)
			lastFam = fam
		}
		snap := hists[n].Snapshot()
		// Cumulative counts over the coarse ladder from the fine buckets.
		var cum uint64
		b := 0
		for _, le := range promBounds {
			leNs := int64(le * 1e9)
			for b < histBuckets && bucketUpperNs(b) <= leNs {
				cum += snap.Counts[b]
				b++
			}
			fmt.Fprintf(w, "%s_bucket{%s} %d\n", fam, withLabel(labels, fmt.Sprintf("le=%q", formatFloat(le))), cum)
		}
		fmt.Fprintf(w, "%s_bucket{%s} %d\n", fam, withLabel(labels, `le="+Inf"`), snap.Count)
		if labels == "" {
			fmt.Fprintf(w, "%s_sum %s\n", fam, formatFloat(float64(snap.SumNs)/1e9))
			fmt.Fprintf(w, "%s_count %d\n", fam, snap.Count)
		} else {
			fmt.Fprintf(w, "%s_sum{%s} %s\n", fam, labels, formatFloat(float64(snap.SumNs)/1e9))
			fmt.Fprintf(w, "%s_count{%s} %d\n", fam, labels, snap.Count)
		}
	}
}

// formatFloat renders a float the way Prometheus expects: no exponent
// for common magnitudes, no trailing zeros.
func formatFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}
