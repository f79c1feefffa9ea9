package loadgen

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tigris/internal/gateway"
	"tigris/internal/obs"
	"tigris/internal/serve"
)

func TestArrivalsDeterministicAndCalibrated(t *testing.T) {
	// The first draws for seed 7 at 100/s, in nanoseconds: a seed keeps
	// drawing the same schedule, bit for bit.
	pinned := []time.Duration{845865, 14631444, 14213514, 925954, 3591987}
	a, err := newArrivals(100, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range pinned {
		if got := a.Next(); got != want {
			t.Fatalf("draw %d = %d ns, want %d", i, got, want)
		}
	}

	const rate = 100
	a1, _ := newArrivals(rate, 7)
	a2, _ := newArrivals(rate, 7)
	const n = 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		d1, d2 := a1.Next(), a2.Next()
		if d1 != d2 {
			t.Fatalf("draw %d differs across same-seed processes", i)
		}
		if d1 < 0 {
			t.Fatalf("negative inter-arrival %v", d1)
		}
		s := d1.Seconds()
		sum += s
		sumSq += s * s
	}
	mean := sum / n
	wantMean := 1.0 / rate
	if math.Abs(mean-wantMean)/wantMean > 0.05 {
		t.Errorf("mean inter-arrival %g, want ~%g", mean, wantMean)
	}
	// Exponential inter-arrivals have CV 1.
	std := math.Sqrt(sumSq/n - mean*mean)
	if gotCV := std / mean; math.Abs(gotCV-1) > 0.1 {
		t.Errorf("CV %g, want ~1", gotCV)
	}

	for _, bad := range []float64{0, math.NaN(), math.Inf(1)} {
		if _, err := newArrivals(bad, 0); err == nil {
			t.Fatalf("rate %g accepted", bad)
		}
	}
}

// ciProfile keeps in-test traffic tiny.
var ciProfile = Profile{Name: "tiny", Frames: 2, Beams: 8, AzimuthSteps: 90, Parallelism: 1}

// startFleet starts that many workers behind a gateway and returns the
// gateway's URL.
func startFleet(t *testing.T, workers int) string {
	t.Helper()
	var urls []string
	for i := 0; i < workers; i++ {
		s := serve.New(serve.Config{Parallelism: 1})
		ts := httptest.NewServer(s)
		t.Cleanup(ts.Close)
		t.Cleanup(s.Close)
		urls = append(urls, ts.URL)
	}
	g, err := gateway.New(gateway.Config{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	ts := httptest.NewServer(g)
	t.Cleanup(ts.Close)
	return ts.URL
}

func TestRunAgainstGatewayFleet(t *testing.T) {
	target := startFleet(t, 2)
	res, err := Run(Config{
		Target:   target,
		Sessions: 4,
		Rate:     200,
		Seed:     1,
		Profiles: []Profile{ciProfile},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SessionsOK != 4 || res.SessionsFailed != 0 || res.Errors != 0 {
		t.Fatalf("result = %+v, want 4 clean sessions", res)
	}
	if res.FramesPushed != 8 {
		t.Fatalf("frames pushed = %d, want 8", res.FramesPushed)
	}
	if res.SessionsPerSec <= 0 {
		t.Fatalf("sessions/sec = %g", res.SessionsPerSec)
	}
	// Least-loaded over 2 unpolled workers alternates creates, overlapping
	// or not: both appear, split sums to sessions.
	if len(res.PerWorker) != 2 {
		t.Fatalf("per_worker = %v, want both workers", res.PerWorker)
	}
	total := 0
	for _, n := range res.PerWorker {
		total += n
	}
	if total != 4 {
		t.Fatalf("per_worker sums to %d, want 4", total)
	}
	if res.ProfileSessions["tiny"] != 4 {
		t.Fatalf("profile_sessions = %v", res.ProfileSessions)
	}
	// The frame digest covers every push, with a sane percentile ladder.
	fr, ok := res.Latency["frame"]
	if !ok || fr.Count != res.FramesPushed {
		t.Fatalf("frame digest = %+v, want count %d", fr, res.FramesPushed)
	}
	if !(fr.P50Ms > 0 && fr.P50Ms <= fr.P95Ms && fr.P95Ms <= fr.P99Ms && fr.P99Ms <= fr.MaxMs) {
		t.Fatalf("frame percentiles not monotone: %+v", fr)
	}
	for _, stage := range []string{"create", "trajectory"} {
		if d := res.Latency[stage]; d.Count != 4 {
			t.Fatalf("%s digest = %+v, want count 4", stage, d)
		}
	}
	// The record round-trips through JSON under its field names.
	b, _ := json.Marshal(res)
	var back map[string]any
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back["name"] != resultName {
		t.Fatalf("name = %v", back["name"])
	}
	if _, ok := back["latency_percentiles"].(map[string]any)["frame"]; !ok {
		t.Fatal("latency_percentiles.frame missing in JSON")
	}
}

func TestRunAgainstBareWorker(t *testing.T) {
	s := serve.New(serve.Config{Parallelism: 1})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)

	res, err := Run(Config{
		Target:   ts.URL,
		Sessions: 2,
		Rate:     200,
		Seed:     3,
		Profiles: []Profile{ciProfile},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SessionsOK != 2 || res.FramesPushed != 4 {
		t.Fatalf("result = %+v", res)
	}
	// No gateway in the path: the whole fleet is the one target.
	if res.PerWorker[ts.URL] != 2 || len(res.PerWorker) != 1 {
		t.Fatalf("per_worker = %v", res.PerWorker)
	}
}

// shimWorker fronts a fresh worker with a proxy that lets intercept
// answer a request first (reporting true when it did) and relays the
// rest, returning the proxy's URL.
func shimWorker(t *testing.T, intercept func(http.ResponseWriter, *http.Request) bool) string {
	t.Helper()
	worker := serve.New(serve.Config{Parallelism: 1})
	wts := httptest.NewServer(worker)
	t.Cleanup(wts.Close)
	t.Cleanup(worker.Close)

	proxy := http.NewServeMux()
	proxy.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if intercept(w, r) {
			return
		}
		r2, _ := http.NewRequest(r.Method, wts.URL+r.URL.RequestURI(), r.Body)
		r2.Header = r.Header
		resp, err := http.DefaultTransport.RoundTrip(r2)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	})
	pts := httptest.NewServer(proxy)
	t.Cleanup(pts.Close)
	return pts.URL
}

// TestRetryAfterHonored pins the backoff contract: a 429 with
// Retry-After is counted, waited out, and retried.
func TestRetryAfterHonored(t *testing.T) {
	// A shim that refuses the first create.
	refused := false
	target := shimWorker(t, func(w http.ResponseWriter, r *http.Request) bool {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/sessions" || refused {
			return false
		}
		refused = true
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(map[string]any{"error": "slow down", "retry_after_seconds": 1})
		return true
	})

	start := time.Now()
	res, err := Run(Config{
		Target:   target,
		Sessions: 1,
		Rate:     100,
		Seed:     5,
		Profiles: []Profile{ciProfile},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected429 != 1 {
		t.Fatalf("rejected_429 = %d, want 1", res.Rejected429)
	}
	if res.SessionsOK != 1 {
		t.Fatalf("sessions_ok = %d, want 1 (retry should have succeeded)", res.SessionsOK)
	}
	if elapsed := time.Since(start); elapsed < time.Second { // the proxy's Retry-After
		t.Fatalf("run finished in %v; backoff was not honored", elapsed)
	}
}

// TestRefusedPushIsNotALatencySample pins that a digest times only what
// the service did: a push the worker refuses fails its session and is
// counted there, but is no frame latency.
func TestRefusedPushIsNotALatencySample(t *testing.T) {
	target := shimWorker(t, func(w http.ResponseWriter, r *http.Request) bool {
		if r.Method != http.MethodPost || !strings.HasSuffix(r.URL.Path, "/frames") {
			return false
		}
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]any{"error": "refused"})
		return true
	})
	res, err := Run(Config{
		Target:   target,
		Sessions: 1,
		Rate:     100,
		Seed:     5,
		Profiles: []Profile{ciProfile},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SessionsFailed != 1 || res.Errors != 1 || res.FramesPushed != 0 {
		t.Fatalf("result = %+v, want one failed session and no frame pushed", res)
	}
	if n := res.Latency["frame"].Count; n != 0 {
		t.Fatalf("frame digest has %d samples, want 0: a refused push is not a latency", n)
	}
	if n := res.Latency["create"].Count; n != 1 {
		t.Fatalf("create digest has %d samples, want the 1 accepted create", n)
	}
}

// TestTraceProbe drives the probe session through a gateway and through
// a bare worker: each answers with its own trace document.
func TestTraceProbe(t *testing.T) {
	target := startFleet(t, 2)
	doc, err := TraceProbe(target, "")
	if err != nil {
		t.Fatal(err)
	}
	var gw struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Decisions   []map[string]any `json:"decisions"`
	}
	if err := json.Unmarshal(doc, &gw); err != nil {
		t.Fatal(err)
	}
	if len(gw.TraceEvents) == 0 || len(gw.Decisions) != 1 {
		t.Fatalf("gateway trace has %d events and %d decisions, want some and 1", len(gw.TraceEvents), len(gw.Decisions))
	}
	if p := gw.Decisions[0]["policy"]; p != string(gateway.PolicyLeastLoaded) {
		t.Fatalf("decision policy = %v, want %s", p, gateway.PolicyLeastLoaded)
	}

	s := serve.New(serve.Config{Parallelism: 1})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	doc, err = TraceProbe(ts.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	var wk struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(doc, &wk); err != nil || len(wk.TraceEvents) == 0 {
		t.Fatalf("worker trace: %d events (err %v), want some", len(wk.TraceEvents), err)
	}
}

func TestRunConfigValidation(t *testing.T) {
	if _, err := Run(Config{Sessions: 1, Rate: 1}); err == nil {
		t.Fatal("missing target accepted")
	}
	if _, err := Run(Config{Target: "http://x", Rate: 1}); err == nil {
		t.Fatal("zero sessions accepted")
	}
	if _, err := Run(Config{Target: "http://x", Sessions: 1}); err == nil {
		t.Fatal("zero rate accepted")
	}
}

// TestPerProfileSplitsAndTraceExemplars pins the new digest surfaces:
// a mixed run splits latency by profile, and each top-level digest
// carries slowest-K trace-id exemplars resolvable as W3C trace ids.
func TestPerProfileSplitsAndTraceExemplars(t *testing.T) {
	target := startFleet(t, 2)
	tiny2 := ciProfile
	tiny2.Name = "tiny2"
	res, err := Run(Config{
		Target:   target,
		Sessions: 6,
		Rate:     200,
		Seed:     9,
		Profiles: []Profile{ciProfile, tiny2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SessionsOK != 6 {
		t.Fatalf("sessions_ok = %d, want 6", res.SessionsOK)
	}

	// Per-profile split: every profile that ran sessions has digests,
	// and the frame counts across profiles sum to the total.
	var frameSum int64
	for name, n := range res.ProfileSessions {
		if n == 0 {
			continue
		}
		split, ok := res.PerProfile[name]
		if !ok {
			t.Fatalf("profile %q ran %d sessions but has no per_profile digests", name, n)
		}
		if split["create"].Count != int64(n) {
			t.Fatalf("profile %q create count = %d, want %d", name, split["create"].Count, n)
		}
		frameSum += split["frame"].Count
	}
	if frameSum != res.FramesPushed {
		t.Fatalf("per-profile frame counts sum to %d, want %d", frameSum, res.FramesPushed)
	}

	// Trace exemplars: present on the frame digest, valid ids, sorted
	// slowest-first, never more than the retention bound.
	exs := res.Latency["frame"].Exemplars
	if len(exs) == 0 || len(exs) > traceExemplarK {
		t.Fatalf("frame digest has %d exemplars, want 1..%d", len(exs), traceExemplarK)
	}
	for i, ex := range exs {
		if _, ok := obs.ParseTraceID(ex.TraceID); !ok {
			t.Fatalf("exemplar %d trace id %q invalid", i, ex.TraceID)
		}
		if ex.Ms <= 0 || ex.Profile == "" {
			t.Fatalf("exemplar %d = %+v, want positive ms and a profile", i, ex)
		}
		if i > 0 && ex.Ms > exs[i-1].Ms {
			t.Fatalf("exemplars not slowest-first at %d", i)
		}
	}
	if ms := res.Latency["frame"].MaxMs; exs[0].Ms != ms {
		t.Fatalf("slowest exemplar %.3fms != digest max %.3fms", exs[0].Ms, ms)
	}
}
