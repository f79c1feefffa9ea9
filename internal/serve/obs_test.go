package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
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

// TestRouteLabel sends a request to every route the mux registers, and
// to paths and methods it does not, and holds the request counter's route
// label and the log record's route and session to the pattern matched: a
// 401 keeps its route, and junk never mints a new label.
func TestRouteLabel(t *testing.T) {
	const token = "sesame"
	var logs bytes.Buffer
	srv := New(Config{Parallelism: 1, AuthToken: token, Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	defer srv.Close()
	cases := []struct {
		method, path, body string
		auth               bool
		code               int
		route, session     string
	}{
		{"GET", "/healthz", "", false, 200, "/healthz", ""},
		{"GET", "/metrics", "", false, 200, "/metrics", ""},
		{"GET", "/v1/backends", "", true, 200, "/v1/backends", ""},
		{"GET", "/v1/buildinfo", "", true, 200, "/v1/buildinfo", ""},
		{"POST", "/v1/sessions", `{"parallelism":1}`, true, 201, "/v1/sessions", ""},
		{"POST", "/v1/sessions/s1/frames", "not a cloud", true, 400, "/v1/sessions/{id}/frames", "s1"},
		{"GET", "/v1/sessions/s1/trajectory", "", true, 200, "/v1/sessions/{id}/trajectory", "s1"},
		{"GET", "/v1/sessions/s1/loops", "", true, 200, "/v1/sessions/{id}/loops", "s1"},
		{"GET", "/v1/sessions/s1/stats", "", true, 200, "/v1/sessions/{id}/stats", "s1"},
		{"GET", "/debug/trace/s1", "", false, 200, "/debug/trace/{id}", "s1"},
		{"DELETE", "/v1/sessions/s1", "", true, 200, "/v1/sessions/{id}", "s1"},
		{"GET", "/v1/sessions/s1/stats", "", true, 404, "/v1/sessions/{id}/stats", "s1"},
		// Refused at the gate: the route stays, and no handler saw the id.
		{"GET", "/v1/sessions/s1/stats", "", false, 401, "/v1/sessions/{id}/stats", ""},
		{"GET", "/v1/sessions/s1/exfiltrate", "", true, 404, "other", ""},
		{"GET", "/v1/sessions/s1/stats/deeper", "", true, 404, "other", ""},
		{"GET", "/totally/unknown", "", false, 404, "other", ""},
		{"PUT", "/v1/sessions", "", true, 405, "other", ""},
	}
	want := map[string]int{}
	for _, c := range cases {
		req := httptest.NewRequest(c.method, c.path, strings.NewReader(c.body))
		if c.auth {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		logs.Reset()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != c.code {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, rec.Code, c.code)
		}
		var got struct {
			Route   string `json:"route"`
			Session string `json:"session"`
			Status  int    `json:"status"`
		}
		if err := json.Unmarshal(logs.Bytes(), &got); err != nil {
			t.Fatalf("%s %s: log record %q: %v", c.method, c.path, logs.String(), err)
		}
		if got.Route != c.route || got.Session != c.session || got.Status != c.code {
			t.Errorf("%s %s: logged route %q session %q status %d, want %q %q %d",
				c.method, c.path, got.Route, got.Session, got.Status, c.route, c.session, c.code)
		}
		want[fmt.Sprintf(`tigris_http_requests_total{route="%s",code="%d"}`, c.route, c.code)]++
	}
	var scrape bytes.Buffer
	srv.reg.WritePrometheus(&scrape)
	counted := map[string]int{}
	for _, line := range strings.Split(scrape.String(), "\n") {
		if series, n, ok := strings.Cut(line, "} "); ok && strings.HasPrefix(series, "tigris_http_requests_total{") {
			counted[series+"}"], _ = strconv.Atoi(n)
		}
	}
	if !reflect.DeepEqual(counted, want) {
		t.Errorf("request counters %v, want %v", counted, want)
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
