package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"tigris/internal/par"
	"tigris/internal/synth"
)

// fetch GETs a URL and returns the status and body.
func fetch(t *testing.T, client *http.Client, url string) (int, string) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestMetricsEndpoint drives a session through the HTTP surface and
// asserts the scrape carries the activity: lifecycle counters, the
// per-route request counter, scrape-time gauges, and the per-stage
// latency histograms the session recorded.
func TestMetricsEndpoint(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	var created map[string]any
	if code := postJSON(t, client, ts.URL+"/v1/sessions", map[string]any{"backend": "canonical"}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	id := created["id"].(string)

	const frames = 2
	seq := synth.GenerateSequence(synth.QuickSequenceConfig(frames, 61))
	for i, f := range seq.Frames {
		pushFrame(t, client, ts.URL, id, f, i == frames-1)
	}

	code, body := fetch(t, client, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	for _, want := range []string{
		"# TYPE tigris_frames_pushed_total counter",
		"tigris_frames_pushed_total 2",
		"tigris_sessions_created_total 1",
		"tigris_sessions_active 1",
		"tigris_frames_pending 0",
		"tigris_limiter_capacity",
		// The process's slot budget beside the server's admission limiter.
		fmt.Sprintf("tigris_par_slots %d\n", par.Slots()),
		"\ntigris_par_slots_in_use ",
		`tigris_http_requests_total{route="/v1/sessions",code="201"} 1`,
		`tigris_http_requests_total{route="/v1/sessions/{id}/frames",code="202"} 2`,
		"# TYPE tigris_stage_latency_seconds histogram",
		`tigris_stage_latency_seconds_bucket{stage="frame",le="+Inf"} 2`,
		`tigris_stage_latency_seconds_count{stage="prep"} 2`,
		`tigris_stage_latency_seconds_count{stage="align"} 1`,
		// The default design point fine-tunes point-to-plane against a
		// downsampled front-end: the one pair estimated its target's raw
		// normals on demand, timed on its own.
		`tigris_stage_latency_seconds_count{stage="fine_normals"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics scrape missing %q", want)
		}
	}
	// What share of the target ICP touched is a scraped number.
	var estimated, points float64
	for _, line := range strings.Split(body, "\n") {
		fmt.Sscanf(line, "tigris_fine_normals_estimated %g", &estimated)
		fmt.Sscanf(line, "tigris_fine_target_points %g", &points)
	}
	if points != float64(len(seq.Frames[0].Points)) || estimated <= 0 || estimated >= points {
		t.Errorf("scrape reports %g fine normals estimated for %g target points (target frame has %d)",
			estimated, points, len(seq.Frames[0].Points))
	}

	// Closing the session moves created -> closed and empties the gauge.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	_, body = fetch(t, client, ts.URL+"/metrics")
	for _, want := range []string{"tigris_sessions_closed_total 1", "tigris_sessions_active 0"} {
		if !strings.Contains(body, want) {
			t.Errorf("post-delete scrape missing %q", want)
		}
	}
}

// TestMetricsOpenUnderAuth: /metrics (like /healthz) must stay scrapeable
// without credentials when the /v1/* surface is token-gated.
func TestMetricsOpenUnderAuth(t *testing.T) {
	srv := New(Config{AuthToken: "hunter2"})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if code, _ := fetch(t, ts.Client(), ts.URL+"/metrics"); code != http.StatusOK {
		t.Fatalf("unauthenticated /metrics: status %d, want 200", code)
	}
	if code, _ := fetch(t, ts.Client(), ts.URL+"/v1/backends"); code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated /v1/backends: status %d, want 401", code)
	}
}

// TestStatsLatencyDigest: the per-session stats JSON must carry the
// latency_ms percentiles for every pipeline stage the session ran.
func TestStatsLatencyDigest(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	var created map[string]any
	postJSON(t, client, ts.URL+"/v1/sessions", map[string]any{"backend": "canonical"}, &created)
	id := created["id"].(string)
	const frames = 3
	seq := synth.GenerateSequence(synth.QuickSequenceConfig(frames, 62))
	for i, f := range seq.Frames {
		pushFrame(t, client, ts.URL, id, f, i == frames-1)
	}

	_, body := fetch(t, client, ts.URL+"/v1/sessions/"+id+"/stats")
	var stats struct {
		Latency map[string]struct {
			Count int64   `json:"count"`
			P50   float64 `json:"p50"`
			P95   float64 `json:"p95"`
			P99   float64 `json:"p99"`
			Max   float64 `json:"max"`
		} `json:"latency_ms"`
	}
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatalf("stats JSON: %v", err)
	}
	for stage, wantCount := range map[string]int64{
		"frame": frames, "prep": frames, "align": frames - 1,
		"normal_estimation": frames, "kpce": frames - 1,
	} {
		d, ok := stats.Latency[stage]
		if !ok {
			t.Fatalf("latency_ms missing stage %q (got %v)", stage, stats.Latency)
		}
		if d.Count != wantCount {
			t.Errorf("stage %q count = %d, want %d", stage, d.Count, wantCount)
		}
		if d.P50 < 0 || d.P95 < d.P50 || d.P99 < d.P95 || d.Max < 0 {
			t.Errorf("stage %q digest not monotone: %+v", stage, d)
		}
	}
}

// TestBuildinfoEndpoint: build identity must be served as JSON with at
// least the Go toolchain filled in (VCS stamps depend on how the test
// binary was built).
func TestBuildinfoEndpoint(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	_, body := fetch(t, ts.Client(), ts.URL+"/v1/buildinfo")
	var bi struct {
		Go string `json:"go"`
	}
	if err := json.Unmarshal([]byte(body), &bi); err != nil {
		t.Fatal(err)
	}
	if bi.Go == "" {
		t.Fatalf("buildinfo has no go toolchain: %s", body)
	}
}

// TestRouteLabel pins the normalizer: every served path maps to a
// bounded route pattern, and junk never mints new labels.
func TestRouteLabel(t *testing.T) {
	cases := []struct {
		path, route, session string
	}{
		{"/healthz", "/healthz", ""},
		{"/metrics", "/metrics", ""},
		{"/v1/backends", "/v1/backends", ""},
		{"/v1/buildinfo", "/v1/buildinfo", ""},
		{"/v1/sessions", "/v1/sessions", ""},
		{"/v1/sessions/s7", "/v1/sessions/{id}", "s7"},
		{"/v1/sessions/s7/frames", "/v1/sessions/{id}/frames", "s7"},
		{"/v1/sessions/s7/trajectory", "/v1/sessions/{id}/trajectory", "s7"},
		{"/v1/sessions/s7/loops", "/v1/sessions/{id}/loops", "s7"},
		{"/v1/sessions/s7/stats", "/v1/sessions/{id}/stats", "s7"},
		{"/v1/sessions/s7/exfiltrate", "other", ""},
		{"/v1/sessions/s7/stats/deeper", "other", ""},
		{"/totally/unknown", "other", ""},
	}
	for _, c := range cases {
		route, session := routeLabel(c.path)
		if route != c.route || session != c.session {
			t.Errorf("routeLabel(%q) = (%q, %q), want (%q, %q)", c.path, route, session, c.route, c.session)
		}
	}
}

// TestRequestLogging: with a Logger configured, each request emits one
// structured record carrying the normalized route and outcome.
func TestRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	locked := slog.New(slog.NewJSONHandler(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	}), nil))
	srv := New(Config{Logger: locked})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	fetch(t, ts.Client(), ts.URL+"/healthz")
	fetch(t, ts.Client(), ts.URL+"/v1/sessions/nope/stats")

	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	if len(lines) != 2 {
		t.Fatalf("got %d log records, want 2:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	var rec struct {
		Msg     string  `json:"msg"`
		Method  string  `json:"method"`
		Route   string  `json:"route"`
		Session string  `json:"session"`
		Status  int     `json:"status"`
		Bytes   int     `json:"bytes"`
		Dur     float64 `json:"duration_ms"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Msg != "request" || rec.Method != "GET" || rec.Route != "/v1/sessions/{id}/stats" ||
		rec.Session != "nope" || rec.Status != http.StatusNotFound || rec.Bytes == 0 {
		t.Fatalf("log record %+v does not describe the 404 stats request", rec)
	}
}

// writerFunc adapts a function to io.Writer.
type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestStatsPollingRace hammers the stats and metrics endpoints while
// frames stream in — the deployment pattern that used to read engine
// counters without synchronization. Meaningful under -race.
func TestStatsPollingRace(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	var created map[string]any
	postJSON(t, client, ts.URL+"/v1/sessions", map[string]any{"backend": "canonical"}, &created)
	id := created["id"].(string)

	stop := make(chan struct{})
	var pollers sync.WaitGroup
	for p := 0; p < 2; p++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					fetch(t, client, ts.URL+"/v1/sessions/"+id+"/stats")
					fetch(t, client, ts.URL+"/metrics")
				}
			}
		}()
	}

	const frames = 3
	seq := synth.GenerateSequence(synth.QuickSequenceConfig(frames, 63))
	for i, f := range seq.Frames {
		pushFrame(t, client, ts.URL, id, f, i == frames-1)
	}
	close(stop)
	pollers.Wait()

	_, body := fetch(t, client, ts.URL+"/v1/sessions/"+id+"/stats")
	var stats struct {
		FramesPushed int64 `json:"frames_pushed"`
	}
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.FramesPushed != frames {
		t.Fatalf("frames_pushed = %d, want %d", stats.FramesPushed, frames)
	}
}
