package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"tigris/internal/geom"
	"tigris/internal/synth"
)

// TestPushOverloadRejects pins the overload contract the gateway and
// loadgen back off on: with MaxPending exceeded, a push is refused with
// 503, a positive integer Retry-After header, and a JSON body repeating
// the estimate.
func TestPushOverloadRejects(t *testing.T) {
	srv := New(Config{MaxConcurrent: 1, Parallelism: 1})
	defer srv.Close()
	// Force the guard: any pending work at all refuses the next push.
	srv.cfg.MaxPending = 1
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var created struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/sessions", map[string]any{"parallelism": 1}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	seq := synth.GenerateSequence(synth.QuickSequenceConfig(2, 77))

	// Hold the server's only limiter slot so the engine cannot start
	// frame 0's front-end: the backlog deterministically stays at the
	// cap until we release it.
	srv.limiter.Acquire()

	// First push is admitted (nothing pending yet) and queues work.
	out := pushFrame(t, ts.Client(), ts.URL, created.ID, seq.Frames[0], false)
	if out["frame"].(float64) != 0 {
		t.Fatalf("first push got %v", out)
	}

	// With one frame stuck pending the backlog is at the cap of 1, so
	// the next push must be refused with the full overload shape.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions/"+created.ID+"/frames", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("push under overload: status %d, want 503", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want positive integer seconds", ra)
	}
	var body struct {
		Error      string `json:"error"`
		RetryAfter int    `json:"retry_after_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("503 body not JSON: %v", err)
	}
	if body.Error == "" || body.RetryAfter != secs {
		t.Fatalf("503 body = %+v, want error text and retry_after_seconds == header %d", body, secs)
	}
	if srv.cOverloadReject.Value() < 1 {
		t.Fatalf("tigris_overload_rejected_total = %d, want >= 1", srv.cOverloadReject.Value())
	}

	// Release the slot: the backlog drains and pushes are admitted again.
	srv.limiter.Release()
	srv.Drain()
	out = pushFrame(t, ts.Client(), ts.URL, created.ID, seq.Frames[1], true)
	if out["frame"].(float64) != 1 {
		t.Fatalf("post-drain push got %v", out)
	}
}

// TestSessionOriginAnchorsTrajectory pins the re-shard anchor: a session
// created with an origin reports its first frame at that pose, and
// subsequent poses compose on top of it.
func TestSessionOriginAnchorsTrajectory(t *testing.T) {
	srv := New(Config{Parallelism: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	origin := geom.Transform{
		R: geom.Mat3{0, -1, 0, 1, 0, 0, 0, 0, 1}, // 90° yaw
		T: geom.Vec3{X: 3, Y: -2, Z: 0.5},
	}
	req := map[string]any{
		"parallelism": 1,
		"origin": map[string]any{
			"r": origin.R,
			"t": [3]float64{origin.T.X, origin.T.Y, origin.T.Z},
		},
	}
	var created struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/sessions", req, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	seq := synth.GenerateSequence(synth.QuickSequenceConfig(2, 99))
	for _, f := range seq.Frames {
		pushFrame(t, ts.Client(), ts.URL, created.ID, f, true)
	}
	traj := getTrajectory(t, ts.Client(), ts.URL, created.ID)
	frames := traj["trajectory"].([]any)
	if len(frames) != 2 {
		t.Fatalf("trajectory has %d frames, want 2", len(frames))
	}
	pose0 := frames[0].(map[string]any)["pose"].(map[string]any)
	gotT := pose0["t"].([]any)
	for k, want := range []float64{origin.T.X, origin.T.Y, origin.T.Z} {
		if got := gotT[k].(float64); got != want {
			t.Fatalf("frame 0 pose t[%d] = %v, want %v", k, got, want)
		}
	}
	gotR := pose0["r"].([]any)
	for k := range origin.R {
		if got := gotR[k].(float64); got != origin.R[k] {
			t.Fatalf("frame 0 pose r[%d] = %v, want %v", k, got, origin.R[k])
		}
	}
}

// TestSessionOriginMustBeRigid: an origin multiplies every pose of its
// session, so one that is not a rigid motion is a 400 — the empty object
// (the zero matrix) and a scaled rotation among them — while a rotation
// opens a session.
func TestSessionOriginMustBeRigid(t *testing.T) {
	srv := New(Config{Parallelism: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rot := geom.RotZ(0.3).Mul(geom.RotX(-0.2))
	for _, tc := range []struct {
		name   string
		origin map[string]any
		want   int
	}{
		{"empty", map[string]any{}, http.StatusBadRequest},
		{"scaled", map[string]any{"r": rot.Scale(2), "t": [3]float64{1, 2, 3}}, http.StatusBadRequest},
		{"rotation", map[string]any{"r": rot, "t": [3]float64{1, 2, 3}}, http.StatusCreated},
	} {
		var out map[string]any
		if code := postJSON(t, ts.Client(), ts.URL+"/v1/sessions", map[string]any{"origin": tc.origin}, &out); code != tc.want {
			t.Errorf("%s origin: status %d (%v), want %d", tc.name, code, out, tc.want)
		}
	}
}

// TestDrainWaitsForPending pins Server.Drain: after pushing without
// ?wait, Drain returns only once every frame is committed.
func TestDrainWaitsForPending(t *testing.T) {
	srv := New(Config{Parallelism: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var created struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/sessions", map[string]any{"parallelism": 1}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	seq := synth.GenerateSequence(synth.QuickSequenceConfig(3, 5))
	for _, f := range seq.Frames {
		pushFrame(t, ts.Client(), ts.URL, created.ID, f, false)
	}
	srv.Drain()
	if n := srv.totalPending(); n != 0 {
		t.Fatalf("pending after Drain = %d, want 0", n)
	}
	traj := getTrajectory(t, ts.Client(), ts.URL, created.ID)
	if got := traj["frames"].(float64); got != 3 {
		t.Fatalf("frames after Drain = %v, want 3", got)
	}
}
