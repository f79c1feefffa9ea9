package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tigris/internal/cloud"
	"tigris/internal/geom"
	"tigris/internal/par"
	"tigris/internal/registration"
	"tigris/internal/search"
	"tigris/internal/synth"
)

// postJSON posts v as JSON and decodes the response into out.
func postJSON(t *testing.T, client *http.Client, url string, v, out any) int {
	t.Helper()
	body, _ := json.Marshal(v)
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func pushFrame(t *testing.T, client *http.Client, base, id string, c *cloud.Cloud, wait bool) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := cloud.Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("%s/v1/sessions/%s/frames", base, id)
	if wait {
		url += "?wait=1"
	}
	resp, err := client.Post(url, "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("push: status %d", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func getTrajectory(t *testing.T, client *http.Client, base, id string) map[string]any {
	t.Helper()
	resp, err := client.Get(fmt.Sprintf("%s/v1/sessions/%s/trajectory?wait=1", base, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServerEndToEnd drives the full session lifecycle over real HTTP
// and checks the served deltas are bit-identical to the per-pair loop on
// the same (wire round-tripped) clouds: both clouds of a pair prepared,
// the pair aligned from the previous pair's delta.
func TestServerEndToEnd(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	// Health.
	resp, err := client.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()

	// Create a session.
	var created map[string]any
	if code := postJSON(t, client, ts.URL+"/v1/sessions", map[string]any{"backend": "canonical"}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	id, _ := created["id"].(string)
	if id == "" {
		t.Fatalf("create: no id in %v", created)
	}

	// Push three frames (the wire format is %.9g ASCII, so the reference
	// registration must run on the round-tripped clouds).
	const frames = 3
	seq := synth.GenerateSequence(synth.QuickSequenceConfig(frames, 41))
	wire := make([]*cloud.Cloud, frames)
	for i, f := range seq.Frames {
		var buf bytes.Buffer
		if err := cloud.Write(&buf, f); err != nil {
			t.Fatal(err)
		}
		back, err := cloud.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		wire[i] = back
		out := pushFrame(t, client, ts.URL, id, f, i == frames-1)
		if int(out["frame"].(float64)) != i {
			t.Fatalf("frame %d assigned index %v", i, out["frame"])
		}
	}

	traj := getTrajectory(t, client, ts.URL, id)
	if int(traj["frames"].(float64)) != frames {
		t.Fatalf("trajectory has %v frames, want %d", traj["frames"], frames)
	}
	records := traj["trajectory"].([]any)

	// Reference: the per-pair loop over the wire clouds, bit-compared
	// against the served deltas.
	var dpCfg registration.PipelineConfig
	srvCfg, err := srv.pipelineConfig(sessionRequest{Backend: "canonical"})
	if err != nil {
		t.Fatal(err)
	}
	dpCfg = srvCfg
	want := geom.IdentityTransform()
	for i := 1; i < frames; i++ {
		src, dst := registration.PrepareFrame(wire[i], dpCfg), registration.PrepareFrame(wire[i-1], dpCfg)
		res := registration.AlignFrom(src, dst, dpCfg, want)
		want = res.Transform
		if got, _ := records[i].(map[string]any)["initial_source"].(string); got != string(res.InitialSource) {
			t.Fatalf("frame %d: served initial_source %q, want %q", i, got, res.InitialSource)
		}
		rec := records[i].(map[string]any)
		delta := rec["delta"].(map[string]any)
		rj := delta["r"].([]any)
		tj := delta["t"].([]any)
		for k := 0; k < 9; k++ {
			if rj[k].(float64) != want.R[k] {
				t.Fatalf("frame %d: served rotation[%d] %v != %v", i, k, rj[k], want.R[k])
			}
		}
		wantT := [3]float64{want.T.X, want.T.Y, want.T.Z}
		for k := 0; k < 3; k++ {
			if tj[k].(float64) != wantT[k] {
				t.Fatalf("frame %d: served translation[%d] %v != %v", i, k, tj[k], wantT[k])
			}
		}
	}

	// Stats: one front-end preparation per frame.
	resp, err = client.Get(fmt.Sprintf("%s/v1/sessions/%s/stats", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if int(stats["frames_prepared"].(float64)) != frames {
		t.Fatalf("frames_prepared = %v, want %d", stats["frames_prepared"], frames)
	}

	// Delete the session (its trace id on the answer, like every
	// session-scoped response); further pushes 404.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/sessions/%s", ts.URL, id), nil)
	resp, err = client.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %v %v", err, resp.StatusCode)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Tigris-Trace"); got == "" || got != created["trace"] {
		t.Fatalf("delete answered X-Tigris-Trace %q, want the session's %v", got, created["trace"])
	}
	resp, err = client.Get(fmt.Sprintf("%s/v1/sessions/%s/trajectory", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted session still reachable: %d", resp.StatusCode)
	}
}

// TestServerConcurrentSessions runs several sessions at once — the
// multi-user shape the shared limiter exists for.
func TestServerConcurrentSessions(t *testing.T) {
	srv := New(Config{MaxConcurrent: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var wg sync.WaitGroup
	for u := 0; u < 3; u++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			client := ts.Client()
			var created map[string]any
			postJSON(t, client, ts.URL+"/v1/sessions", map[string]any{}, &created)
			id := created["id"].(string)
			seq := synth.GenerateSequence(synth.QuickSequenceConfig(2, seed))
			for _, f := range seq.Frames {
				pushFrame(t, client, ts.URL, id, f, false)
			}
			traj := getTrajectory(t, client, ts.URL, id)
			if int(traj["frames"].(float64)) != 2 {
				t.Errorf("session %s: %v frames", id, traj["frames"])
			}
		}(int64(50 + u))
	}
	wg.Wait()
}

// TestServerRejectsBadInput covers the error paths.
func TestServerRejectsBadInput(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	// Session create rejects what it does not understand: the retired
	// "searcher" key and a typo are 400s naming the field, never silently
	// a canonical session.
	for field, value := range map[string]string{"searcher": "approx", "backnd": "twostage"} {
		var out map[string]string
		if code := postJSON(t, client, ts.URL+"/v1/sessions", map[string]any{field: value}, &out); code != http.StatusBadRequest {
			t.Fatalf("unknown field %q accepted: %d", field, code)
		}
		if !strings.Contains(out["error"], field) {
			t.Errorf("400 for %q does not name the field: %q", field, out["error"])
		}
	}
	resp, err := client.Post(ts.URL+"/v1/sessions", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("empty create body: %d, want 201", resp.StatusCode)
	}
	if code := postJSON(t, client, ts.URL+"/v1/sessions", map[string]any{"design_point": "DP99"}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad design point accepted: %d", code)
	}
	resp, err = client.Post(ts.URL+"/v1/sessions/nope/frames", "text/plain", bytes.NewReader([]byte("junk")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("push to missing session: %d", resp.StatusCode)
	}
	var created map[string]any
	postJSON(t, client, ts.URL+"/v1/sessions", map[string]any{}, &created)
	resp, err = client.Post(fmt.Sprintf("%s/v1/sessions/%s/frames", ts.URL, created["id"]), "text/plain", bytes.NewReader([]byte("not a cloud")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("junk frame accepted: %d", resp.StatusCode)
	}
}

// TestBackendsEndpointAndNamedSessions covers the registry surface: the
// backend listing, creating sessions by registry name (with options), and
// the error paths for unknown names and bad options.
func TestBackendsEndpointAndNamedSessions(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	resp, err := client.Get(ts.URL + "/v1/backends")
	if err != nil {
		t.Fatal(err)
	}
	var reg struct {
		Backends []string `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, want := range []string{"bruteforce", "canonical", "twostage", "twostage-approx"} {
		found := false
		for _, b := range reg.Backends {
			found = found || b == want
		}
		if !found {
			t.Errorf("/v1/backends = %v, missing %q", reg.Backends, want)
		}
	}

	// Named sessions streamed end to end: one with backend options, and
	// the approximate backend pipelined at the experiment scale (the quick
	// scale is too sparse for an accuracy check), its odometry step within
	// 0.5 m of the truth.
	for _, row := range []struct {
		body       map[string]any
		seq        synth.SequenceConfig
		maxStepErr float64 // 0: no accuracy check
	}{
		{map[string]any{"backend": "twostage", "backend_options": map[string]any{"top_height": 3}}, synth.QuickSequenceConfig(2, 60), 0},
		{map[string]any{"backend": "twostage-approx", "pipelined": true}, synth.EvalSequenceConfig(2, 2019), 0.5},
	} {
		var created map[string]any
		if code := postJSON(t, client, ts.URL+"/v1/sessions", row.body, &created); code != http.StatusCreated {
			t.Fatalf("named create %v: status %d (%v)", row.body, code, created)
		}
		if created["backend"] != row.body["backend"] {
			t.Fatalf("create response backend = %v, want %v", created["backend"], row.body["backend"])
		}
		id := created["id"].(string)
		seq := synth.GenerateSequence(row.seq)
		for i, f := range seq.Frames {
			out := pushFrame(t, client, ts.URL, id, f, false)
			if out["frame"] != float64(i) || out["points"] != float64(f.Len()) {
				t.Fatalf("push %d of %d points answered %v", i, f.Len(), out)
			}
		}
		traj := getTrajectory(t, client, ts.URL, id)
		if traj["frames"] != float64(len(seq.Frames)) {
			t.Fatalf("%v session trajectory: %v frames", row.body["backend"], traj["frames"])
		}
		if row.maxStepErr == 0 {
			continue
		}
		step := traj["trajectory"].([]any)[1].(map[string]any)["delta"].(map[string]any)["t"].([]any)
		truth := seq.GroundTruthDelta(0).T
		got := geom.Vec3{X: step[0].(float64), Y: step[1].(float64), Z: step[2].(float64)}
		if d := got.Dist(truth); d > row.maxStepErr {
			t.Errorf("%v odometry step %v is %.3f m from the truth %v", row.body["backend"], got, d, truth)
		}
	}

	// Error paths: unknown name, unknown option key, trace without sink.
	for _, body := range []map[string]any{
		{"backend": "no-such-structure"},
		{"backend": "canonical", "backend_options": map[string]any{"tophight": 3}},
		{"backend": "trace"},
	} {
		var out map[string]any
		if code := postJSON(t, client, ts.URL+"/v1/sessions", body, &out); code != http.StatusBadRequest {
			t.Errorf("%v accepted with status %d (%v)", body, code, out)
		}
	}
}

// TestDefaultBackendConfig: the server-level default backend applies to
// sessions that pick nothing, and explicit requests still win.
func TestDefaultBackendConfig(t *testing.T) {
	srv := New(Config{DefaultBackend: "twostage"})
	defer srv.Close()

	cfg, err := srv.pipelineConfig(sessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Searcher.BackendName(); got != "twostage" {
		t.Errorf("default session backend = %q, want twostage", got)
	}
	cfg, err = srv.pipelineConfig(sessionRequest{Backend: "bruteforce"})
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Searcher.BackendName(); got != "bruteforce" {
		t.Errorf("explicit backend lost to server default: %q", got)
	}
}

// TestSessionParallelismStopsAtTheSlotBudget: the worker count a tenant
// asks for sizes per-worker state (one approximate session, batch arena
// and feature scratch per worker), and no loop is ever granted more than
// par.Slots(), so a session's resolved width — the request field or the
// server default — stops there; a width under backend_options, a second
// place to set it, is refused. A session asking for 10⁹ workers must cost
// what any other does.
func TestSessionParallelismStopsAtTheSlotBudget(t *testing.T) {
	wide := func() map[string]any { return map[string]any{search.OptParallelism: 1e9} }
	for _, tc := range []struct {
		server int // Config.Parallelism
		req    sessionRequest
		want   int // 0: the request is refused
	}{
		{0, sessionRequest{Parallelism: 1 << 30}, par.Slots()},
		{0, sessionRequest{BackendOptions: wide()}, 0},
		{0, sessionRequest{Parallelism: 1, BackendOptions: wide()}, 0},
		{1 << 30, sessionRequest{}, par.Slots()},
		{1 << 30, sessionRequest{Parallelism: 1}, 1}, // a width inside the budget stands
	} {
		srv := New(Config{Parallelism: tc.server})
		cfg, err := srv.pipelineConfig(tc.req)
		srv.Close()
		if tc.want == 0 {
			if err == nil || !strings.Contains(err.Error(), "Parallelism") {
				t.Fatalf("server default %d, request %+v: err %v, want a refusal naming Parallelism", tc.server, tc.req, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := cfg.Searcher.Parallelism; got != tc.want {
			t.Fatalf("server default %d, request %+v: resolved parallelism %d, want %d", tc.server, tc.req, got, tc.want)
		}
	}

	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()
	var refused map[string]any
	if code := postJSON(t, client, ts.URL+"/v1/sessions", map[string]any{"backend_options": map[string]any{"parallelism": 2}}, &refused); code != http.StatusBadRequest {
		t.Fatalf("backend_options.parallelism: status %d (%v), want 400", code, refused)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var created map[string]any
	code := postJSON(t, client, ts.URL+"/v1/sessions", map[string]any{"backend": "twostage-approx", "parallelism": 1000000000}, &created)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d (%v)", code, created)
	}
	id := created["id"].(string)
	for _, f := range synth.GenerateSequence(synth.QuickSequenceConfig(2, 60)).Frames {
		pushFrame(t, client, ts.URL, id, f, true)
	}
	if traj := getTrajectory(t, client, ts.URL, id); len(traj["trajectory"].([]any)) != 2 {
		t.Fatalf("trajectory: %v", traj)
	}
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapInuse) - int64(before.HeapInuse); grew > 64<<20 {
		t.Fatalf("heap in use grew by %d MB over a two-frame session", grew>>20)
	}
}

// FuzzSessionRequest feeds arbitrary bytes to session creation's
// request resolution: it must never panic, and every config it accepts
// must be one an engine can run — a non-negative voxel leaf, a worker
// count within the slot budget, a rigid origin and a backend selection
// that validates.
func FuzzSessionRequest(f *testing.F) {
	for _, seed := range []string{
		``,
		`{}`,
		`{"origin": {}}`,
		`{"origin": {"r": [2, 0, 0, 0, 2, 0, 0, 0, 2], "t": [0, 0, 0]}}`,
		`{"origin": {"r": [0, -1, 0, 1, 0, 0, 0, 0, 1], "t": [3, -2, 0.5]}}`,
		`{"backend": "twostage", "backend_options": {"top_height": 1e300}}`,
		`{"backend": "twostage", "backend_options": {"top_height": -1e300}}`,
		`{"backend": "twostage", "backend_options": {"top_height": 9.3e18}}`,
		`{"backend": "twostage-approx", "backend_options": {"nn_threshold": 1.0, "top_height": 8}}`,
		`{"backend_options": {"parallelism": 2}}`,
		`{"parallelism": -1}`,
		`{"parallelism": 1000000000, "pipelined": false}`,
		`{"voxel_leaf": -1}`,
		`{"voxel_leaf": 1e-9, "design_point": "DP7"}`,
		`{"design_point": "DP9"}`,
		`{"loop": {"enabled": true, "min_separation": -1}}`,
		`{"loop": {"enabled": true, "backend": "bruteforce", "edge_weight": 2}}`,
		`{"bogus": 1}`,
	} {
		f.Add([]byte(seed))
	}
	srv := New(Config{})
	f.Cleanup(srv.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		scfg, err := srv.resolveSession(bytes.NewReader(body))
		if err != nil {
			return
		}
		cfg := scfg.Pipeline
		if !(cfg.VoxelLeaf >= 0) {
			t.Errorf("%s: voxel leaf %v", body, cfg.VoxelLeaf)
		}
		if p := cfg.Searcher.Parallelism; p < 0 || p > par.Slots() {
			t.Errorf("%s: parallelism %d outside [0, %d]", body, p, par.Slots())
		}
		if o := scfg.Origin; o != nil && (!o.R.IsRotation(1e-6) || !o.T.IsFinite()) {
			t.Errorf("%s: origin %+v is not rigid", body, *o)
		}
		if err := cfg.Searcher.Validate(); err != nil {
			t.Errorf("%s: searcher config does not validate: %v", body, err)
		}
	})
}

// TestSessionTTLEviction drives the idle janitor deterministically
// through EvictIdle, then checks the janitor goroutine sweeps on its own.
func TestSessionTTLEviction(t *testing.T) {
	const ttl = 50 * time.Millisecond
	srv := New(Config{SessionTTL: ttl})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	var created map[string]any
	postJSON(t, client, ts.URL+"/v1/sessions", map[string]any{}, &created)
	id := created["id"].(string)

	// Within the TTL nothing is evicted.
	if ids := srv.EvictIdle(time.Now()); len(ids) != 0 {
		t.Fatalf("fresh session evicted: %v", ids)
	}
	// A request bumps the idle clock: sweeping at now+TTL (measured from
	// before the request) must keep the session.
	before := time.Now()
	if resp, err := client.Get(fmt.Sprintf("%s/v1/sessions/%s/stats", ts.URL, id)); err == nil {
		resp.Body.Close()
	}
	if ids := srv.EvictIdle(before.Add(ttl)); len(ids) != 0 {
		t.Fatalf("recently-used session evicted: %v", ids)
	}
	// Far beyond the TTL the session goes.
	ids := srv.EvictIdle(time.Now().Add(10 * ttl))
	if len(ids) != 1 || ids[0] != id {
		t.Fatalf("EvictIdle = %v, want [%s]", ids, id)
	}
	resp, err := client.Get(fmt.Sprintf("%s/v1/sessions/%s/stats", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted session still reachable: %d", resp.StatusCode)
	}

	// The background janitor evicts without manual sweeps. Polling would
	// bump the idle clock (every request does), so go fully idle past the
	// TTL, then check once; retry with longer idles in case the scheduler
	// starved the janitor.
	postJSON(t, client, ts.URL+"/v1/sessions", map[string]any{}, &created)
	id2 := created["id"].(string)
	evicted := false
	for wait := 4 * ttl; wait <= 64*ttl && !evicted; wait *= 2 {
		time.Sleep(wait)
		resp, err := client.Get(fmt.Sprintf("%s/v1/sessions/%s/stats", ts.URL, id2))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		evicted = resp.StatusCode == http.StatusNotFound
	}
	if !evicted {
		t.Fatal("janitor did not evict the idle session")
	}
}

// TestEvictIdleSkipsBusySessions: a session still chewing through queued
// frames is busy on the client's behalf — the janitor must not destroy
// its uncommitted work no matter how stale its last request is. The
// server-level limiter is saturated so the pushed frame deterministically
// stays pending.
func TestEvictIdleSkipsBusySessions(t *testing.T) {
	// A long TTL keeps the background janitor out of the way; the test
	// drives EvictIdle with manual sweep times.
	const ttl = time.Hour
	srv := New(Config{MaxConcurrent: 1, SessionTTL: ttl})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	var created map[string]any
	postJSON(t, client, ts.URL+"/v1/sessions", map[string]any{}, &created)
	id := created["id"].(string)

	srv.limiter <- struct{}{} // hold the only heavy-stage slot
	seq := synth.GenerateSequence(synth.QuickSequenceConfig(1, 71))
	pushFrame(t, client, ts.URL, id, seq.Frames[0], false)

	if ids := srv.EvictIdle(time.Now().Add(100 * ttl)); len(ids) != 0 {
		t.Fatalf("busy session evicted: %v", ids)
	}

	<-srv.limiter // release; the frame commits
	if resp, err := client.Get(fmt.Sprintf("%s/v1/sessions/%s/trajectory?wait=1", ts.URL, id)); err == nil {
		resp.Body.Close()
	}
	ids := srv.EvictIdle(time.Now().Add(100 * ttl))
	if len(ids) != 1 || ids[0] != id {
		t.Fatalf("drained idle session not evicted: %v", ids)
	}
}
