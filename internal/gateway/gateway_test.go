package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tigris/internal/cloud"
	"tigris/internal/serve"
	"tigris/internal/synth"
)

// fleet is a set of in-process workers behind real HTTP listeners.
type fleet struct {
	servers []*serve.Server
	ts      []*httptest.Server
	urls    []string
}

func newFleet(t *testing.T, n int, cfg serve.Config) *fleet {
	t.Helper()
	f := &fleet{}
	for i := 0; i < n; i++ {
		s := serve.New(cfg)
		ts := httptest.NewServer(s)
		t.Cleanup(ts.Close)
		t.Cleanup(s.Close)
		f.servers = append(f.servers, s)
		f.ts = append(f.ts, ts)
		f.urls = append(f.urls, ts.URL)
	}
	return f
}

// newGateway fronts the fleet with a gateway on a real listener.
func newGateway(t *testing.T, f *fleet, cfg Config) (*Gateway, string) {
	t.Helper()
	cfg.Workers = f.urls
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	ts := httptest.NewServer(g)
	t.Cleanup(ts.Close)
	return g, ts.URL
}

// createSession creates a session and returns (id, worker URL, status).
func createSession(t *testing.T, base string, body map[string]any) (string, string, int) {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		ID     string `json:"id"`
		Worker string `json:"worker"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return out.ID, out.Worker, resp.StatusCode
}

// pushFrame pushes one frame, asserting 202, and returns the response.
func pushFrame(t *testing.T, base, id string, c *cloud.Cloud, wait bool) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := cloud.Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("%s/v1/sessions/%s/frames", base, id)
	if wait {
		url += "?wait=1"
	}
	resp, err := http.Post(url, "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("push frame to %s: status %d", id, resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// getJSON GETs a URL, returning the decoded body and status.
func getJSON(t *testing.T, url string) (map[string]any, int, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return out, resp.StatusCode, resp.Header
}

// scrape returns the body of a GET.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// quickFrames renders a short synthetic sequence once per (frames, seed).
func quickFrames(frames int, seed int64) []*cloud.Cloud {
	return synth.GenerateSequence(synth.QuickSequenceConfig(frames, seed)).Frames
}

// workerCfg keeps worker sessions cheap and deterministic in tests.
var workerCfg = serve.Config{Parallelism: 1}

func TestLeastLoadedFollowsPolledBacklog(t *testing.T) {
	f := newFleet(t, 2, workerCfg)
	g, base := newGateway(t, f, Config{Policy: PolicyLeastLoaded})

	// No load polled: the session-count tie-break alternates the creates
	// across the workers, and the gateway mints its ids in order.
	var placed []string
	for i := 0; i < 4; i++ {
		id, wkr, code := createSession(t, base, map[string]any{"parallelism": 1})
		if code != http.StatusCreated {
			t.Fatalf("create %d: status %d", i, code)
		}
		if id != fmt.Sprintf("g%d", i+1) {
			t.Fatalf("create %d: id %q, want g%d", i, id, i+1)
		}
		placed = append(placed, wkr)
	}
	want := []string{f.urls[0], f.urls[1], f.urls[0], f.urls[1]}
	for i := range want {
		if placed[i] != want[i] {
			t.Fatalf("unpolled placement = %v, want %v", placed, want)
		}
	}

	// With worker 0 reporting a deep frame backlog, every create must
	// land on worker 1 regardless of session-count tie-breaks.
	g.workers[0].polledPending.Store(100)
	for i := 0; i < 3; i++ {
		_, wkr, code := createSession(t, base, map[string]any{"parallelism": 1})
		if code != http.StatusCreated {
			t.Fatalf("create: status %d", code)
		}
		if wkr != f.urls[1] {
			t.Fatalf("create %d placed on %s, want least-loaded %s", i, wkr, f.urls[1])
		}
	}
	// Backlogs equal again: the session-count tie-break spreads the
	// next creates to worker 0 (2 sessions vs 5).
	g.workers[0].polledPending.Store(0)
	_, wkr, _ := createSession(t, base, map[string]any{"parallelism": 1})
	if wkr != f.urls[0] {
		t.Fatalf("tie-break placed on %s, want %s", wkr, f.urls[0])
	}
}

// TestOverlappingCreatesSpread: a create counts against its worker from
// the moment it is placed, not when the worker answers, so creates in
// flight at the same time alternate across an unpolled fleet just as
// sequential ones do.
func TestOverlappingCreatesSpread(t *testing.T) {
	const n = 4
	var arrived atomic.Int32
	all := make(chan struct{})
	var urls []string
	for i := 0; i < 2; i++ {
		// A stand-in worker that holds every create until all n are in
		// flight, then accepts it.
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost || r.URL.Path != "/v1/sessions" {
				http.NotFound(w, r)
				return
			}
			if arrived.Add(1) == n {
				close(all)
			}
			select {
			case <-all:
			case <-time.After(10 * time.Second):
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusCreated)
			_, _ = w.Write([]byte(`{"id":"s1"}`))
		}))
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	_, base := newGateway(t, &fleet{urls: urls}, Config{})

	placed := make([]string, n)
	var wg sync.WaitGroup
	for i := range placed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(base+"/v1/sessions", "application/json", strings.NewReader("{}"))
			if err != nil {
				return
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusCreated {
				placed[i] = resp.Header.Get("X-Tigris-Worker")
			}
		}()
	}
	wg.Wait()
	perWorker := map[string]int{}
	for _, w := range placed {
		perWorker[w]++
	}
	if perWorker[urls[0]] != n/2 || perWorker[urls[1]] != n/2 {
		t.Fatalf("overlapping creates placed %v, want %d on each worker", perWorker, n/2)
	}
}

func TestPollWorkersScrapesLoad(t *testing.T) {
	f := newFleet(t, 2, workerCfg)
	g, base := newGateway(t, f, Config{Policy: PolicyLeastLoaded})

	id, _, _ := createSession(t, base, map[string]any{"parallelism": 1})
	for _, c := range quickFrames(2, 31) {
		pushFrame(t, base, id, c, true)
	}
	g.PollWorkers()
	if got := g.workers[0].polledSessions.Load(); got != 1 {
		t.Fatalf("polled sessions on worker 0 = %d, want 1", got)
	}
	if got := g.workers[0].polledPending.Load(); got != 0 {
		t.Fatalf("polled pending after waited pushes = %d, want 0", got)
	}
	for _, wk := range g.workers {
		if !wk.healthy.Load() {
			t.Fatalf("worker %s unexpectedly unhealthy", wk.url)
		}
	}
}

// TestTrajectoryBitIdenticalToSingleWorker is the fleet's correctness
// anchor: the same frames through the gateway (2 workers) and through a
// bare single worker must produce bit-identical trajectories. The one
// placement rule runs under three load states: unpolled (one session per
// worker), worker 0 backlogged (both sessions share worker 1), and load
// that moves after placement (each session stays on its placing
// worker). The subtests keep the ids they had when each state stood for
// a placement rule of its own, which the gateway no longer has; failure
// messages name the load state.
func TestTrajectoryBitIdenticalToSingleWorker(t *testing.T) {
	frames := quickFrames(3, 42)

	// Reference: a session on a bare worker.
	ref := newFleet(t, 1, workerCfg)
	refID, _, _ := createSession(t, ref.urls[0], map[string]any{"parallelism": 1})
	for _, c := range frames {
		pushFrame(t, ref.urls[0], refID, c, true)
	}
	refTraj, _, _ := getJSON(t, ref.urls[0]+"/v1/sessions/"+refID+"/trajectory?wait=1")

	for _, tc := range []struct {
		name    string
		state   string
		backlog [2]int64 // polled pending frames while the sessions are placed
		after   [2]int64 // polled pending frames while they push
		want    [2]int   // the worker each session lands on
	}{
		{"round-robin", "unpolled", [2]int64{0, 0}, [2]int64{0, 0}, [2]int{0, 1}},
		{"least-loaded", "worker 0 backlogged", [2]int64{100, 0}, [2]int64{100, 0}, [2]int{1, 1}},
		{"affinity", "load moves after placement", [2]int64{0, 0}, [2]int64{0, 100}, [2]int{0, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFleet(t, 2, workerCfg)
			g, base := newGateway(t, f, Config{})
			for i, wk := range g.workers {
				wk.polledPending.Store(tc.backlog[i])
			}
			// Two sessions, both open at once, so a worker may hold both.
			var ids []string
			for i := 0; i < 2; i++ {
				id, wkr, code := createSession(t, base, map[string]any{"parallelism": 1})
				if code != http.StatusCreated {
					t.Fatalf("%s: create: status %d", tc.state, code)
				}
				if wkr != f.urls[tc.want[i]] {
					t.Fatalf("%s: session %s placed on %s, want worker %d", tc.state, id, wkr, tc.want[i])
				}
				ids = append(ids, id)
			}
			for i, wk := range g.workers {
				wk.polledPending.Store(tc.after[i])
			}
			for _, c := range frames {
				for _, id := range ids {
					pushFrame(t, base, id, c, true)
				}
			}
			for i, id := range ids {
				traj, code, hdr := getJSON(t, base+"/v1/sessions/"+id+"/trajectory?wait=1")
				if code != http.StatusOK {
					t.Fatalf("%s: trajectory: status %d", tc.state, code)
				}
				if got := hdr.Get("X-Tigris-Worker"); got != f.urls[tc.want[i]] {
					t.Fatalf("%s: session %s served by %q, want its placing worker %s", tc.state, id, got, f.urls[tc.want[i]])
				}
				assertSameTrajectory(t, refTraj, traj)
			}
		})
	}
}

// assertSameTrajectory compares two trajectory responses frame by frame
// (index, delta, pose) for exact equality.
func assertSameTrajectory(t *testing.T, want, got map[string]any) {
	t.Helper()
	wf := want["trajectory"].([]any)
	gf := got["trajectory"].([]any)
	if len(wf) != len(gf) {
		t.Fatalf("trajectory has %d frames, want %d", len(gf), len(wf))
	}
	for i := range wf {
		wm, gm := wf[i].(map[string]any), gf[i].(map[string]any)
		for _, key := range []string{"index", "delta", "pose"} {
			wj, _ := json.Marshal(wm[key])
			gj, _ := json.Marshal(gm[key])
			if !bytes.Equal(wj, gj) {
				t.Fatalf("frame %d %s = %s, want %s", i, key, gj, wj)
			}
		}
	}
}

// TestEvictedSessionSurfacesAs404 pins the idle-TTL interaction with
// gateway affinity: when the worker evicts a session, the client must
// see a clean 404 through the gateway — and the gateway must drop its
// mapping, not silently re-route onto a fresh session.
func TestEvictedSessionSurfacesAs404(t *testing.T) {
	cfg := workerCfg
	cfg.SessionTTL = time.Hour // janitor armed but never fires in-test
	f := newFleet(t, 2, cfg)
	g, base := newGateway(t, f, Config{})

	id, wkr, code := createSession(t, base, map[string]any{"parallelism": 1})
	if code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	for _, c := range quickFrames(2, 7) {
		pushFrame(t, base, id, c, true)
	}

	// Force worker-side eviction deterministically: from two hours in
	// the future, every idle session is past its TTL.
	evicted := 0
	for _, s := range f.servers {
		evicted += len(s.EvictIdle(time.Now().Add(2 * time.Hour)))
	}
	if evicted != 1 {
		t.Fatalf("evicted %d sessions, want 1", evicted)
	}

	// First access after eviction: worker's 404 passes through, and the
	// gateway mapping goes away with it.
	body, code, hdr := getJSON(t, base+"/v1/sessions/"+id+"/trajectory")
	if code != http.StatusNotFound {
		t.Fatalf("trajectory after eviction: status %d, want 404", code)
	}
	if body["error"] == nil {
		t.Fatalf("404 body = %v, want JSON error", body)
	}
	if hdr.Get("X-Tigris-Worker") != wkr {
		t.Fatalf("404 served by %q, want owning worker %q", hdr.Get("X-Tigris-Worker"), wkr)
	}
	if g.session(id) != nil {
		t.Fatal("gateway kept the mapping for an evicted session")
	}

	// Later accesses 404 at the gateway itself; no fresh session is
	// silently created anywhere.
	_, code, _ = getJSON(t, base+"/v1/sessions/"+id+"/trajectory")
	if code != http.StatusNotFound {
		t.Fatalf("second access: status %d, want 404", code)
	}
	// Worker-side active sessions must be zero on both workers.
	for i, u := range f.urls {
		if body := scrape(t, u+"/metrics"); !strings.Contains(body, "tigris_sessions_active 0") {
			t.Fatalf("worker %d still holds a session:\n%s", i, body)
		}
	}
}

func TestCreateFailsOverDeadWorker(t *testing.T) {
	f := newFleet(t, 2, workerCfg)
	_, base := newGateway(t, f, Config{})
	f.ts[0].Close() // worker 0 is gone; the index tie-break tries it first

	id, wkr, code := createSession(t, base, map[string]any{"parallelism": 1})
	if code != http.StatusCreated {
		t.Fatalf("create with dead worker: status %d", code)
	}
	if wkr != f.urls[1] {
		t.Fatalf("create landed on %s, want surviving worker %s", wkr, f.urls[1])
	}
	for _, c := range quickFrames(2, 3) {
		pushFrame(t, base, id, c, true)
	}
}

func TestNoWorkerAnswers503WithRetryAfter(t *testing.T) {
	f := newFleet(t, 1, workerCfg)
	_, base := newGateway(t, f, Config{})
	f.ts[0].Close()

	b, _ := json.Marshal(map[string]any{})
	resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After")
	}
	var body struct {
		Error      string `json:"error"`
		RetryAfter int    `json:"retry_after_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" || body.RetryAfter < 1 {
		t.Fatalf("503 body = %+v (err %v), want error + retry_after_seconds", body, err)
	}
}

func TestBadSessionConfigForwardsWorkerVerdict(t *testing.T) {
	f := newFleet(t, 2, workerCfg)
	_, base := newGateway(t, f, Config{})
	b, _ := json.Marshal(map[string]any{"design_point": "DP99"})
	resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want worker's 400", resp.StatusCode)
	}
}

func TestGatewayMetricsExposition(t *testing.T) {
	f := newFleet(t, 2, workerCfg)
	_, base := newGateway(t, f, Config{})
	id, _, _ := createSession(t, base, map[string]any{"parallelism": 1})
	for _, c := range quickFrames(2, 11) {
		pushFrame(t, base, id, c, true)
	}
	body := scrape(t, base+"/metrics")
	for _, want := range []string{
		"tigris_gateway_sessions_active 1",
		`tigris_gateway_routed_total{worker="` + f.urls[0] + `"} 1`,
		`tigris_gateway_worker_healthy{worker="` + f.urls[0] + `"} 1`,
		`tigris_gateway_proxy_seconds_bucket{stage="frames",le="+Inf"} 2`,
		`tigris_gateway_requests_total{route="/v1/sessions",code="201"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestAdmitTableTokenBucket(t *testing.T) {
	tab := newAdmitTable(1, 2) // 1 token/s, burst 2
	now := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		if ok, _ := tab.Allow("c", now); !ok {
			t.Fatalf("request %d within burst refused", i)
		}
	}
	ok, retry := tab.Allow("c", now)
	if ok || retry < 1 {
		t.Fatalf("over-burst: ok=%v retry=%d, want refusal with retry >= 1", ok, retry)
	}
	// Other clients have their own bucket.
	if ok, _ := tab.Allow("other", now); !ok {
		t.Fatal("distinct client refused")
	}
	// One second refills one token.
	if ok, _ := tab.Allow("c", now.Add(time.Second)); !ok {
		t.Fatal("refilled token refused")
	}
	if ok, _ := tab.Allow("c", now.Add(time.Second)); ok {
		t.Fatal("empty bucket admitted")
	}
	// Refill never exceeds burst.
	if ok, _ := tab.Allow("c", now.Add(time.Hour)); !ok {
		t.Fatal("long-idle client refused")
	}
	tab.Allow("c", now.Add(time.Hour))
	if ok, _ := tab.Allow("c", now.Add(time.Hour)); ok {
		t.Fatal("burst cap not enforced after long idle")
	}
	// Nil table admits everything.
	var nilTab *admitTable
	if ok, _ := nilTab.Allow("c", now); !ok {
		t.Fatal("nil table refused")
	}
}

// TestGatewayRefusesNonFiniteAdmitRate: a NaN rate would make every
// bucket NaN and refuse every request; an infinite one is no limit.
func TestGatewayRefusesNonFiniteAdmitRate(t *testing.T) {
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := New(Config{Workers: []string{"http://localhost:1"}, AdmitRate: rate, AdmitBurst: 3}); err == nil {
			t.Fatalf("admission rate %g accepted", rate)
		}
	}
}

func TestAdmissionRejectsWith429(t *testing.T) {
	f := newFleet(t, 2, workerCfg)
	g, base := newGateway(t, f, Config{AdmitRate: 0.001, AdmitBurst: 1})

	if _, _, code := createSession(t, base, map[string]any{"parallelism": 1}); code != http.StatusCreated {
		t.Fatalf("first create: status %d", code)
	}
	b, _ := json.Marshal(map[string]any{})
	resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second create: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	var body struct {
		Error      string `json:"error"`
		RetryAfter int    `json:"retry_after_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" || body.RetryAfter < 1 {
		t.Fatalf("429 body = %+v (err %v)", body, err)
	}
	if g.cAdmitRejected.Value() != 1 {
		t.Fatalf("admission_rejected = %d, want 1", g.cAdmitRejected.Value())
	}
}

func TestGatewayConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("no workers accepted")
	}
	if _, err := New(Config{Workers: []string{"not-a-url"}}); err == nil {
		t.Fatal("bad worker URL accepted")
	}
	// Least-loaded is the one placement rule: named or by default, and
	// the deleted rules' names are refused like any unknown one.
	for _, p := range []Policy{"", PolicyLeastLoaded} {
		g, err := New(Config{Workers: []string{"http://localhost:1"}, Policy: p})
		if err != nil {
			t.Fatalf("policy %q: %v", p, err)
		}
		if g.cfg.Policy != PolicyLeastLoaded {
			t.Fatalf("policy %q runs as %q, want %q", p, g.cfg.Policy, PolicyLeastLoaded)
		}
	}
	for _, p := range []Policy{"bogus", "round-robin", "affinity"} {
		if _, err := New(Config{Workers: []string{"http://localhost:1"}, Policy: p}); err == nil {
			t.Fatalf("policy %q accepted", p)
		}
	}
}
