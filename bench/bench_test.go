package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"tigris/internal/obs"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileIsAnExactOrderStatistic(t *testing.T) {
	var s samples
	for _, ms := range []int{50, 10, 40, 20, 30, 100, 90, 60, 80, 70} {
		s.add(time.Duration(ms) * time.Millisecond)
	}
	for _, tc := range []struct {
		p      float64
		want   float64
		beyond int
	}{{50, 50, 5}, {90, 90, 1}, {95, 100, 0}, {100, 100, 0}, {1, 10, 9}} {
		got, beyond := s.percentile(tc.p)
		if got != tc.want || beyond != tc.beyond {
			t.Errorf("p%v = %v with %d beyond, want %v with %d", tc.p, got, beyond, tc.want, tc.beyond)
		}
	}
	if v, _ := (&samples{}).percentile(50); !math.IsNaN(v) {
		t.Errorf("percentile of no samples = %v, want NaN", v)
	}
}

// The expected quartiles are what Python's statistics.quantiles(v, n=4)
// returns for the same values.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{2, 4, 4, 5, 9}, 3, 7},
		{[]float64{1, 3}, 0.5, 3.5},
	} {
		q1, q3 := quartiles(tc.v)
		if !almost(q1, tc.q1) || !almost(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name   string
		change []float64
		higher bool
		bound  float64
		want   string
	}{
		{"median beyond the bound is worse", []float64{88, 89, 87, 88, 90}, true, 0.1, verdictWorse},
		{"lower is better flips the sign", []float64{88, 89, 87, 88, 90, 88, 89, 87, 88, 90}, false, 0.1, verdictBetter},
		{"every run beats every parent run", []float64{103, 104, 105, 103.5, 106, 103, 104, 105, 103.5, 106}, true, 0.1, verdictBetter},
		{"a gain needs ten runs a side", []float64{103, 104, 105, 103.5, 106}, true, 0.1, verdictUnresolved},
		{"interleaved within a tight spread", []float64{100, 100.5, 99.5, 101, 100}, true, 0.1, verdictUnchanged},
		{"spread wider than the bound cannot be resolved", []float64{100, 101, 99, 100.2, 102}, true, 0.005, verdictUnresolved},
		{"no runs", nil, true, 0.1, verdictUnresolved},
	} {
		if got := verdict(parent, tc.change, tc.higher, tc.bound); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
	// A count that may not increase at all.
	if got := verdict([]float64{0, 0, 0}, []float64{0, 1, 1}, false, 0); got != verdictWorse {
		t.Errorf("more failures: verdict = %s, want worse", got)
	}
	if got := verdict([]float64{0, 0, 0}, []float64{0, 0, 0}, false, 0); got != verdictUnchanged {
		t.Errorf("same failures: verdict = %s, want unchanged", got)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	tr := newTracer()
	ms := int64(time.Millisecond)
	tr.events = []obs.SpanEvent{
		{Span: 1, Stage: "parent", Start: 0, Dur: 100 * ms},
		// Two overlapping children cover [10, 50) between them; a third
		// runs past the parent's end and counts only up to it.
		{Span: 2, Parent: 1, Stage: "child", Start: 10 * ms, Dur: 30 * ms},
		{Span: 3, Parent: 1, Stage: "child", Start: 20 * ms, Dur: 30 * ms},
		{Span: 4, Parent: 1, Stage: "late", Start: 90 * ms, Dur: 30 * ms},
	}
	self := tr.selfTimes()
	if got, want := self["parent"], 50*time.Millisecond; got != want {
		t.Errorf("parent self time = %v, want %v", got, want)
	}
	if got, want := self["child"], 60*time.Millisecond; got != want {
		t.Errorf("child self time = %v, want %v", got, want)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json is the contract; the lists in metrics.go and inputs.go
// are what the program emits. They must say the same thing.
func TestDeclarationsMatchBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bf.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("end-to-end metrics: BENCHMARK.json %d, program %d (at most 16)", len(bf.EndToEnd), len(endToEnd))
	}
	seen := make(map[string]bool)
	hasSetup := false
	for i, d := range endToEnd {
		m := bf.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, d.Name, d.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("bad or repeated metric name %q", d.Name)
		}
		seen[d.Name] = true
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bf.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("per-layer metrics: BENCHMARK.json %d, program %d (at most 128)", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		m := bf.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, d.Name, d.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("bad or repeated metric name %q", d.Name)
		}
		seen[d.Name] = true
	}
}

func metricNames(m map[string]metricValue) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func declaredNames(defs []metricDef) []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	sort.Strings(names)
	return names
}

// Every workload, traced and untraced, at the tiny scale: the run must
// pass its own correctness gate and emit exactly the declared metrics.
func TestTinyRunsEmitExactlyTheDeclaredMetrics(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			res, err := runOne(w, runOptions{
				scale: scales["tiny"], seed: 3, seconds: 0, trace: traced,
				traceOut: filepath.Join(t.TempDir(), "trace.json"),
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct {
				t.Errorf("%s traced=%v: the run reports wrong outputs", w.name, traced)
			}
			if res.Attempted < 1 || res.Failed > res.Attempted {
				t.Errorf("%s traced=%v: attempted %d, failed %d", w.name, traced, res.Attempted, res.Failed)
			}
			got, want := metricNames(res.Metrics), declaredNames(defs)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s traced=%v: emitted %v, declared %v", w.name, traced, got, want)
			}
			for _, d := range defs {
				if v := res.Metrics[d.Name]; v.Unit != d.Unit {
					t.Errorf("%s: %s has unit %q, declared %q", w.name, d.Name, v.Unit, d.Unit)
				}
			}
		}
	}
}

// A traced run's spans load back as Chrome trace-event JSON.
func TestTraceFileIsLoadable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if _, err := runOne(findWorkload("odometry_dense"), runOptions{scale: scales["tiny"], seed: 3, trace: true, traceOut: path}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc obs.ChromeTrace
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	names := make(map[string]bool)
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 {
			t.Fatalf("bad event %+v", ev)
		}
		names[ev.Name] = true
	}
	for _, want := range []string{"stream.Push", "cloud.Read", "registration.PrepareFrameSlab", "registration.Align:first", "client.push", "sim.Simulate"} {
		if !names[want] {
			t.Errorf("trace has no %q span", want)
		}
	}
}
