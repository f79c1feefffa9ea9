package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"tigris/internal/geom"
)

// TestDrainMigratesCommittedState is the re-shard acceptance test: a
// session with committed frames is drained off its worker, keeps its id
// and full trajectory through the gateway, continues at the committed
// pose on the new worker, and survives the old worker being killed.
func TestDrainMigratesCommittedState(t *testing.T) {
	f := newFleet(t, 2, workerCfg)
	g, base := newGateway(t, f, Config{})

	id, wkr, code := createSession(t, base, map[string]any{"parallelism": 1})
	if code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if wkr != f.urls[0] {
		t.Fatalf("session on %s, want worker 0 %s", wkr, f.urls[0])
	}
	frames := quickFrames(5, 99)
	for _, c := range frames[:3] {
		pushFrame(t, base, id, c, true)
	}
	before, _, _ := getJSON(t, base+"/v1/sessions/"+id+"/trajectory?wait=1")

	// Drain worker 0 over the admin surface.
	resp, err := http.Post(base+"/gateway/drain?worker=0", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var drained struct {
		Worker   string `json:"worker"`
		Migrated int    `json:"migrated"`
	}
	err = json.NewDecoder(resp.Body).Decode(&drained)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d err %v", resp.StatusCode, err)
	}
	if drained.Migrated != 1 || drained.Worker != f.urls[0] {
		t.Fatalf("drain = %+v, want 1 migration off %s", drained, f.urls[0])
	}

	// The committed trajectory survived the move bit-for-bit, the
	// session reports its migration, and worker 1 now serves it.
	after, code, hdr := getJSON(t, base+"/v1/sessions/"+id+"/trajectory?wait=1")
	if code != http.StatusOK {
		t.Fatalf("trajectory after drain: status %d", code)
	}
	if hdr.Get(workerHeader) != f.urls[1] {
		t.Fatalf("served by %q after drain, want %s", hdr.Get(workerHeader), f.urls[1])
	}
	if m, ok := after["migrations"].(float64); !ok || m != 1 {
		t.Fatalf("migrations = %v, want 1", after["migrations"])
	}
	assertSameTrajectory(t, before, after)

	// The draining worker is fenced from new sessions.
	if !g.workers[0].draining.Load() {
		t.Fatal("worker 0 not marked draining")
	}
	if _, wkr, _ := createSession(t, base, map[string]any{"parallelism": 1}); wkr != f.urls[1] {
		t.Fatalf("new session placed on drained worker (%s)", wkr)
	}

	// Pushes keep flowing under the same id, with globally continuous
	// frame indices across the re-shard boundary.
	for i, c := range frames[3:] {
		out := pushFrame(t, base, id, c, true)
		if fr, ok := out["frame"].(float64); !ok || int(fr) != 3+i {
			t.Fatalf("post-drain push %d: frame = %v, want %d", i, out["frame"], 3+i)
		}
	}

	// Kill the drained worker: nothing committed is lost.
	f.ts[0].Close()
	final, code, _ := getJSON(t, base+"/v1/sessions/"+id+"/trajectory?wait=1")
	if code != http.StatusOK {
		t.Fatalf("trajectory after killing drained worker: status %d", code)
	}
	traj := final["trajectory"].([]any)
	if len(traj) != 5 {
		t.Fatalf("final trajectory has %d frames, want 5", len(traj))
	}
	for i, fr := range traj {
		if idx := fr.(map[string]any)["index"].(float64); int(idx) != i {
			t.Fatalf("frame %d carries index %v", i, idx)
		}
	}

	// Pose continuity: the first post-migration frame is anchored at the
	// last committed pose (serve's origin), byte-for-byte.
	lastCommitted, _ := json.Marshal(traj[2].(map[string]any)["pose"])
	firstAfter, _ := json.Marshal(traj[3].(map[string]any)["pose"])
	if !bytes.Equal(lastCommitted, firstAfter) {
		t.Fatalf("post-migration pose %s does not continue from committed pose %s", firstAfter, lastCommitted)
	}

	// Loops endpoint still answers through the stitched view.
	if _, code, _ := getJSON(t, base+"/v1/sessions/"+id+"/loops"); code != http.StatusOK {
		t.Fatalf("loops after drain: status %d", code)
	}

	// Fleet status reflects the move.
	ws := g.Workers()
	if ws[0].Sessions != 0 || !ws[0].Draining || ws[1].Sessions != 2 {
		t.Fatalf("worker status after drain = %+v", ws)
	}
	if g.cMigrated.Value() != 1 {
		t.Fatalf("migrated counter = %d, want 1", g.cMigrated.Value())
	}

	// DELETE still works against the new worker and clears the mapping.
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/sessions/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete after drain: status %d", dresp.StatusCode)
	}
	if g.session(id) != nil {
		t.Fatal("mapping survived delete")
	}
}

// TestDrainReanchorsARotatedSession: a drain re-creates a session at its
// last committed pose, and a worker accepts an origin only if it is a
// rigid motion. A session opened at a rotated origin is drained twice,
// the second time from a session whose own origin was such a pose; both
// moves are accepted and every pose stays a rotation.
func TestDrainReanchorsARotatedSession(t *testing.T) {
	f := newFleet(t, 2, workerCfg)
	g, base := newGateway(t, f, Config{})
	origin := map[string]any{"r": geom.RotZ(2.1).Mul(geom.RotX(0.4)), "t": [3]float64{40, -7, 1.5}}
	id, wkr, code := createSession(t, base, map[string]any{"parallelism": 1, "origin": origin})
	if code != http.StatusCreated || wkr != f.urls[0] {
		t.Fatalf("create: status %d on %s, want 201 on worker 0", code, wkr)
	}
	frames := quickFrames(4, 99)
	for hop, from := range []int{0, 1} {
		for _, c := range frames[2*hop : 2*hop+2] {
			pushFrame(t, base, id, c, true)
		}
		if n, err := g.DrainWorker(f.urls[from]); err != nil || n != 1 {
			t.Fatalf("drain %d off worker %d: migrated %d, err %v", hop, from, n, err)
		}
		if code := adminDrain(t, http.MethodDelete, fmt.Sprintf("%s/gateway/drain?worker=%d", base, from), ""); code != http.StatusOK {
			t.Fatalf("undrain worker %d: status %d", from, code)
		}
	}
	traj, code, _ := getJSON(t, base+"/v1/sessions/"+id+"/trajectory?wait=1")
	if code != http.StatusOK || traj["migrations"] != 2.0 {
		t.Fatalf("trajectory: status %d, migrations %v, want 200 and 2", code, traj["migrations"])
	}
	frs := traj["trajectory"].([]any)
	if len(frs) != len(frames) {
		t.Fatalf("trajectory has %d frames, want %d", len(frs), len(frames))
	}
	for i, fr := range frs {
		var r geom.Mat3
		for k, v := range fr.(map[string]any)["pose"].(map[string]any)["r"].([]any) {
			r[k] = v.(float64)
		}
		if !r.IsRotation(1e-6) {
			t.Fatalf("frame %d pose r %v is not a rotation", i, r)
		}
	}
}

// TestDrainEmptyWorkerAndUndrain covers the fence lifecycle without any
// sessions to move.
func TestDrainEmptyWorkerAndUndrain(t *testing.T) {
	f := newFleet(t, 2, workerCfg)
	g, base := newGateway(t, f, Config{})

	if n, err := g.DrainWorker(f.urls[0]); err != nil || n != 0 {
		t.Fatalf("drain empty worker: n=%d err=%v", n, err)
	}
	for i := 0; i < 2; i++ {
		if _, wkr, _ := createSession(t, base, map[string]any{"parallelism": 1}); wkr != f.urls[1] {
			t.Fatalf("create %d placed on drained worker", i)
		}
	}
	// An unknown worker is a 404, a missing one a 400, on either verb.
	for _, method := range []string{http.MethodPost, http.MethodDelete} {
		for query, want := range map[string]int{"?worker=nope": http.StatusNotFound, "": http.StatusBadRequest} {
			if code := adminDrain(t, method, base+"/gateway/drain"+query, ""); code != want {
				t.Fatalf("%s /gateway/drain%s: status %d, want %d", method, query, code, want)
			}
		}
	}
	if code := adminDrain(t, http.MethodDelete, base+"/gateway/drain?worker=0", ""); code != http.StatusOK {
		t.Fatalf("undrain: status %d", code)
	}
	if ws := g.Workers(); ws[0].Draining {
		t.Fatalf("worker 0 still draining after DELETE: %+v", ws[0])
	}
	// Placement resumes over both workers once re-admitted.
	seen := map[string]bool{}
	for i := 0; i < 2; i++ {
		_, wkr, _ := createSession(t, base, map[string]any{"parallelism": 1})
		seen[wkr] = true
	}
	if !seen[f.urls[0]] {
		t.Fatal("undrained worker never received a session")
	}
	if _, err := g.DrainWorker("nope"); err == nil {
		t.Fatal("draining an unknown worker succeeded")
	}
}

// adminDrain issues a drain (POST) or undrain (DELETE) request and
// returns the status.
func adminDrain(t *testing.T, method, url, token string) int {
	t.Helper()
	req, _ := http.NewRequest(method, url, nil)
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestAdminSurfaceAuth pins the auth split: /gateway/* requires the
// gateway token, /v1/* passes through untouched.
func TestAdminSurfaceAuth(t *testing.T) {
	f := newFleet(t, 2, workerCfg)
	_, base := newGateway(t, f, Config{AuthToken: "secret"})

	for _, method := range []string{http.MethodPost, http.MethodDelete} {
		if code := adminDrain(t, method, base+"/gateway/drain?worker=0", ""); code != http.StatusUnauthorized {
			t.Fatalf("unauthenticated %s drain: status %d, want 401", method, code)
		}
		if code := adminDrain(t, method, base+"/gateway/drain?worker=0", "secret"); code != http.StatusOK {
			t.Fatalf("authenticated %s drain: status %d, want 200", method, code)
		}
	}

	// The session surface stays open (workers enforce their own tokens).
	if _, _, code := createSession(t, base, map[string]any{"parallelism": 1}); code != http.StatusCreated {
		t.Fatalf("create with admin auth on: status %d", code)
	}
}

// TestWorkersEndpoint exercises the fleet-status listing over HTTP.
func TestWorkersEndpoint(t *testing.T) {
	f := newFleet(t, 2, workerCfg)
	_, base := newGateway(t, f, Config{})
	createSession(t, base, map[string]any{"parallelism": 1})

	body, code, _ := getJSON(t, base+"/gateway/workers")
	if code != http.StatusOK {
		t.Fatalf("workers: status %d", code)
	}
	ws := body["workers"].([]any)
	if len(ws) != 2 {
		t.Fatalf("workers listing has %d entries, want 2", len(ws))
	}
	w0 := ws[0].(map[string]any)
	if w0["url"] != f.urls[0] || w0["sessions"].(float64) != 1 || w0["healthy"] != true {
		t.Fatalf("worker 0 row = %v", w0)
	}
}

// TestHealthzAggregates checks the gateway's own liveness verdict.
func TestHealthzAggregates(t *testing.T) {
	f := newFleet(t, 2, workerCfg)
	g, base := newGateway(t, f, Config{})

	if _, code, _ := getJSON(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	for _, wk := range g.workers {
		wk.healthy.Store(false)
	}
	body, code, _ := getJSON(t, base+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with dead fleet: status %d, want 503", code)
	}
	if fmt.Sprint(body["workers_healthy"]) != "0" {
		t.Fatalf("workers_healthy = %v", body["workers_healthy"])
	}
}
