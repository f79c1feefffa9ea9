package obs

import (
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// oracleQuantile is the sorted-slice reference: the ceil(q·n)-th
// smallest sample.
func oracleQuantile(sorted []int64, q float64) int64 {
	rank := int(q*float64(len(sorted)) + 0.9999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// TestQuantileExactCountVsOracle checks the histogram's percentile
// extraction against a sorted-slice oracle: the rank arithmetic must be
// exact, so the reported value must be precisely the upper bound of the
// bucket holding the oracle's order statistic — across the linear
// region, octave boundaries, and a broad random spread.
func TestQuantileExactCountVsOracle(t *testing.T) {
	cases := []struct {
		name string
		vals []int64 // nanoseconds
	}{
		{"linear_region", []int64{0, 1, 2, 3, 4, 5, 6, 7}},
		{"bucket_boundaries", []int64{7, 8, 9, 15, 16, 17, 31, 32, 33, 1023, 1024, 1025}},
		{"octave_edges", []int64{1<<20 - 1, 1 << 20, 1<<20 + 1, 1<<30 - 1, 1 << 30, 1<<30 + 1}},
		{"skewed", []int64{100, 100, 100, 100, 100, 100, 100, 100, 100, 5_000_000}},
	}
	rng := rand.New(rand.NewSource(7))
	broad := make([]int64, 10_000)
	for i := range broad {
		broad[i] = int64(rng.Intn(1_000_000_000))
	}
	cases = append(cases, struct {
		name string
		vals []int64
	}{"random_broad", broad})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := new(Histogram)
			for _, v := range tc.vals {
				h.Record(time.Duration(v))
			}
			sorted := append([]int64(nil), tc.vals...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			snap := h.Snapshot()
			if snap.Count != int64(len(tc.vals)) {
				t.Fatalf("count = %d, want %d", snap.Count, len(tc.vals))
			}
			if snap.MaxNs != sorted[len(sorted)-1] {
				t.Fatalf("max = %d, want %d (exact)", snap.MaxNs, sorted[len(sorted)-1])
			}
			for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
				got := int64(snap.Quantile(q))
				want := oracleQuantile(sorted, q)
				wantBucketed := bucketUpperNs(bucketIndex(want))
				if wantBucketed > snap.MaxNs {
					wantBucketed = snap.MaxNs
				}
				if q >= 1 {
					wantBucketed = sorted[len(sorted)-1] // max is exact
				}
				if got != wantBucketed {
					t.Errorf("q=%v: got %d, want bucket-upper(%d) = %d", q, got, want, wantBucketed)
				}
				// The bucketed value can never under-report the oracle, and
				// never over-report by more than one sub-bucket width.
				if got < want {
					t.Errorf("q=%v: reported %d under-reports oracle %d", q, got, want)
				}
				if want >= histSub && float64(got) > float64(want)*1.125+1 {
					t.Errorf("q=%v: reported %d over-reports oracle %d by more than a bucket", q, got, want)
				}
			}
		})
	}
}

// TestBucketRoundTrip pins the bucket function's invariants for every
// bucket: upper bounds are strictly increasing and every value maps to
// a bucket whose range contains it.
func TestBucketRoundTrip(t *testing.T) {
	prev := int64(-1)
	for b := 0; b < histBuckets; b++ {
		up := bucketUpperNs(b)
		if up <= prev {
			t.Fatalf("bucket %d upper %d not increasing past %d", b, up, prev)
		}
		if got := bucketIndex(up); got != b {
			t.Fatalf("bucketIndex(upper(%d)=%d) = %d", b, up, got)
		}
		if up > 0 {
			if got := bucketIndex(prev + 1); got != b {
				t.Fatalf("bucketIndex(lower(%d)=%d) = %d", b, prev+1, got)
			}
		}
		prev = up
	}
}

// TestConcurrentRecordMatchesSerial records the same multiset from many
// goroutines and checks the snapshot equals a single-goroutine recording
// of the same values: no concurrent record may be lost, and the
// interleaving must be invisible in every read-side quantity.
func TestConcurrentRecordMatchesSerial(t *testing.T) {
	vals := make([]int64, 5000)
	rng := rand.New(rand.NewSource(42))
	for i := range vals {
		vals[i] = int64(rng.Intn(50_000_000))
	}

	serial := new(Histogram)
	for _, v := range vals {
		serial.Record(time.Duration(v))
	}

	concurrent := new(Histogram)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(vals); i += workers {
				concurrent.Record(time.Duration(vals[i]))
			}
		}(w)
	}
	wg.Wait()

	a, b := serial.Snapshot(), concurrent.Snapshot()
	if a != b {
		t.Fatalf("concurrent snapshot differs from serial:\nserial count=%d sum=%d max=%d\nconc   count=%d sum=%d max=%d",
			a.Count, a.SumNs, a.MaxNs, b.Count, b.SumNs, b.MaxNs)
	}
	for _, q := range []float64{0.5, 0.95, 0.99, 1} {
		if a.Quantile(q) != b.Quantile(q) {
			t.Errorf("q=%v differs: %v vs %v", q, a.Quantile(q), b.Quantile(q))
		}
	}
}

// TestRecordZeroAllocs pins the hot-path contract: recording into a
// histogram, a counter, and a warm recorder stage allocates nothing.
// This is what lets the pipeline keep its AllocsPerRun budgets with
// metrics enabled.
func TestRecordZeroAllocs(t *testing.T) {
	h := new(Histogram)
	if allocs := testing.AllocsPerRun(200, func() { h.Record(12345 * time.Nanosecond) }); allocs != 0 {
		t.Errorf("Histogram.Record allocates %.1f times, want 0", allocs)
	}
	var c Counter
	if allocs := testing.AllocsPerRun(200, func() { c.Inc() }); allocs != 0 {
		t.Errorf("Counter.Inc allocates %.1f times, want 0", allocs)
	}
	rec := NewRecorder().Tee(NewRecorder())
	rec.Observe(StageAlign, time.Millisecond) // create the stage once
	if allocs := testing.AllocsPerRun(200, func() { rec.Observe(StageAlign, time.Millisecond) }); allocs != 0 {
		t.Errorf("Recorder.Observe (warm, teed) allocates %.1f times, want 0", allocs)
	}
	var nilRec *Recorder
	if allocs := testing.AllocsPerRun(200, func() { nilRec.Observe(StageAlign, time.Millisecond) }); allocs != 0 {
		t.Errorf("nil Recorder.Observe allocates %.1f times, want 0", allocs)
	}
}

// TestConcurrentRecordRead hammers one histogram and one recorder with
// concurrent writers and readers; under -race this is the data-race
// proof for the whole record/snapshot surface.
func TestConcurrentRecordRead(t *testing.T) {
	h := new(Histogram)
	rec := NewRecorder()
	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				d := time.Duration(rng.Intn(1_000_000))
				h.Record(d)
				rec.Observe(StagePrep, d)
				rec.Observe(StageAlign, d)
			}
		}(int64(w))
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := h.Snapshot()
			_ = snap.Quantile(0.95)
			_ = rec.Summaries()
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	if got := h.Snapshot().Count; got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
	sum := rec.Summaries()
	if sum[StagePrep].Count != 8000 || sum[StageAlign].Count != 8000 {
		t.Fatalf("recorder counts = %+v, want 8000 each", sum)
	}
}

// TestRecorderTeeAndPublish checks the fan-out paths: a teed recorder
// feeds both itself and its parent, and a published recorder's stages
// appear in the registry as labeled Prometheus series.
func TestRecorderTeeAndPublish(t *testing.T) {
	reg := NewRegistry()
	global := NewPublishedRecorder(reg, "tigris_stage_latency_seconds")
	session := NewRecorder().Tee(global)

	session.Observe(StageAlign, 2*time.Millisecond)
	session.Observe(StageAlign, 4*time.Millisecond)
	session.Observe(StagePrep, time.Millisecond)

	if got := session.Summaries()[StageAlign].Count; got != 2 {
		t.Fatalf("session align count = %d, want 2", got)
	}
	if got := global.Summaries()[StageAlign].Count; got != 2 {
		t.Fatalf("teed global align count = %d, want 2", got)
	}

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE tigris_stage_latency_seconds histogram",
		`tigris_stage_latency_seconds_bucket{stage="align",le="+Inf"} 2`,
		`tigris_stage_latency_seconds_count{stage="align"} 2`,
		`tigris_stage_latency_seconds_count{stage="prep"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestRegistryExposition covers counters and computed gauges.
func TestRegistryExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(`tigris_http_requests_total{route="/healthz",code="200"}`).Add(3)
	reg.Counter(`tigris_http_requests_total{route="/metrics",code="200"}`).Inc()
	reg.GaugeFunc("tigris_limiter_capacity", func() float64 { return 8 })
	reg.GaugeFunc("tigris_sessions_active", func() float64 { return 2 })

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE tigris_http_requests_total counter",
		`tigris_http_requests_total{route="/healthz",code="200"} 3`,
		`tigris_http_requests_total{route="/metrics",code="200"} 1`,
		"# TYPE tigris_limiter_capacity gauge",
		"tigris_limiter_capacity 8",
		"tigris_sessions_active 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One TYPE header per family, even with several series.
	if strings.Count(out, "# TYPE tigris_http_requests_total counter") != 1 {
		t.Errorf("family header repeated:\n%s", out)
	}
}

// TestNilRecorderSurface proves the nil recorder is a complete no-op
// across the whole API — the library-user default.
func TestNilRecorderSurface(t *testing.T) {
	var r *Recorder
	r.Observe(StagePrep, time.Second)
	sp := r.Start(StagePrep)
	if d := sp.End(); d != 0 {
		t.Errorf("nil span End = %v, want 0", d)
	}
	if s := r.Summaries(); s != nil {
		t.Errorf("nil Summaries = %v, want nil", s)
	}
}

// TestSpan records through the span API.
func TestSpan(t *testing.T) {
	rec := NewRecorder()
	sp := rec.Start(StageLoopVerify)
	time.Sleep(time.Millisecond)
	if d := sp.End(); d <= 0 {
		t.Fatalf("span duration = %v, want > 0", d)
	}
	s := rec.Summaries()[StageLoopVerify]
	if s.Count != 1 || s.Max <= 0 {
		t.Fatalf("span summary = %+v", s)
	}
}
