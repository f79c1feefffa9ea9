package loadgen

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tigris/internal/gateway"
	"tigris/internal/obs"
	"tigris/internal/serve"
)

func TestArrivalsDeterministicAndCalibrated(t *testing.T) {
	for _, tc := range []struct {
		kind string
		rate float64
		cv   float64
	}{
		{ArrivalPoisson, 100, 0},
		{ArrivalGamma, 100, 0.5},
		{ArrivalGamma, 100, 2},
	} {
		a1, err := NewArrivals(tc.kind, tc.rate, tc.cv, 7)
		if err != nil {
			t.Fatal(err)
		}
		a2, _ := NewArrivals(tc.kind, tc.rate, tc.cv, 7)
		const n = 20000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			d1, d2 := a1.Next(), a2.Next()
			if d1 != d2 {
				t.Fatalf("%s: draw %d differs across same-seed processes", tc.kind, i)
			}
			if d1 < 0 {
				t.Fatalf("%s: negative inter-arrival %v", tc.kind, d1)
			}
			s := d1.Seconds()
			sum += s
			sumSq += s * s
		}
		mean := sum / n
		wantMean := 1 / tc.rate
		if math.Abs(mean-wantMean)/wantMean > 0.05 {
			t.Errorf("%s cv=%g: mean inter-arrival %g, want ~%g", tc.kind, tc.cv, mean, wantMean)
		}
		std := math.Sqrt(sumSq/n - mean*mean)
		wantCV := tc.cv
		if tc.kind == ArrivalPoisson {
			wantCV = 1
		}
		if gotCV := std / mean; math.Abs(gotCV-wantCV)/wantCV > 0.1 {
			t.Errorf("%s: CV %g, want ~%g", tc.kind, gotCV, wantCV)
		}
	}

	if _, err := NewArrivals("uniform", 1, 0, 0); err == nil {
		t.Fatal("unknown arrival process accepted")
	}
	if _, err := NewArrivals(ArrivalPoisson, 0, 0, 0); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := NewArrivals(ArrivalGamma, 1, 0, 0); err == nil {
		t.Fatal("gamma with zero cv accepted")
	}
}

// ciProfile keeps in-test traffic tiny.
var ciProfile = Profile{Name: "tiny", Frames: 2, Beams: 8, AzimuthSteps: 90, Parallelism: 1}

func startFleet(t *testing.T, workers int, policy gateway.Policy, admitRate float64) string {
	t.Helper()
	var urls []string
	for i := 0; i < workers; i++ {
		s := serve.New(serve.Config{Parallelism: 1})
		ts := httptest.NewServer(s)
		t.Cleanup(ts.Close)
		t.Cleanup(s.Close)
		urls = append(urls, ts.URL)
	}
	g, err := gateway.New(gateway.Config{Workers: urls, Policy: policy, AdmitRate: admitRate})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	ts := httptest.NewServer(g)
	t.Cleanup(ts.Close)
	return ts.URL
}

func TestRunAgainstGatewayFleet(t *testing.T) {
	target := startFleet(t, 2, gateway.PolicyRoundRobin, 0)
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
	// Round-robin over 2 workers: both appear, split sums to sessions.
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
	if back["name"] != Name {
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
		Arrival:  ArrivalGamma,
		CV:       0.5,
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
	if res.CV != 0.5 || res.Arrival != ArrivalGamma {
		t.Fatalf("arrival metadata = %s cv %g", res.Arrival, res.CV)
	}
}

// TestRetryAfterHonored pins the backoff contract: a 429 with
// Retry-After is counted, waited out, and retried.
func TestRetryAfterHonored(t *testing.T) {
	worker := serve.New(serve.Config{Parallelism: 1})
	wts := httptest.NewServer(worker)
	t.Cleanup(wts.Close)
	t.Cleanup(worker.Close)

	// Front the worker with a shim that refuses the first create.
	refused := false
	proxy := http.NewServeMux()
	proxy.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/sessions" && !refused {
			refused = true
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]any{"error": "slow down", "retry_after_seconds": 1})
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
		buf := make([]byte, 32<<10)
		for {
			n, err := resp.Body.Read(buf)
			if n > 0 {
				w.Write(buf[:n])
			}
			if err != nil {
				return
			}
		}
	})
	pts := httptest.NewServer(proxy)
	t.Cleanup(pts.Close)

	start := time.Now()
	res, err := Run(Config{
		Target:   pts.URL,
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

func TestRunConfigValidation(t *testing.T) {
	if _, err := Run(Config{Sessions: 1, Rate: 1}); err == nil {
		t.Fatal("missing target accepted")
	}
	if _, err := Run(Config{Target: "http://x", Rate: 1}); err == nil {
		t.Fatal("zero sessions accepted")
	}
	if _, err := Run(Config{Target: "http://x", Sessions: 1, Rate: 1, Arrival: "bogus"}); err == nil {
		t.Fatal("bad arrival accepted")
	}
}

// TestPerProfileSplitsAndTraceExemplars pins the new digest surfaces:
// a mixed run splits latency by profile, and each top-level digest
// carries slowest-K trace-id exemplars resolvable as W3C trace ids.
func TestPerProfileSplitsAndTraceExemplars(t *testing.T) {
	target := startFleet(t, 2, gateway.PolicyRoundRobin, 0)
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

// TestRunLadder pins the rate sweep: one Result per step, rates in
// order, everything else held fixed.
func TestRunLadder(t *testing.T) {
	s := serve.New(serve.Config{Parallelism: 1})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)

	rates := []float64{100, 300}
	results, err := RunLadder(Config{
		Target:   ts.URL,
		Sessions: 2,
		Seed:     4,
		Profiles: []Profile{ciProfile},
	}, rates)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(rates) {
		t.Fatalf("%d results, want %d", len(results), len(rates))
	}
	for i, res := range results {
		if res.RatePerSec != rates[i] {
			t.Fatalf("step %d rate = %g, want %g", i, res.RatePerSec, rates[i])
		}
		if res.SessionsOK != 2 || res.Seed != 4 {
			t.Fatalf("step %d = %+v, want 2 clean sessions at seed 4", i, res)
		}
	}

	if _, err := RunLadder(Config{Target: ts.URL, Sessions: 1}, nil); err == nil {
		t.Fatal("empty ladder accepted")
	}
}
