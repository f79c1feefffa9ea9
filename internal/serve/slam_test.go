package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tigris/internal/synth"
)

// TestLoopSessionSurface drives a loop-enabled session over HTTP: the
// loops endpoint must report the stage's counters, the trajectory
// endpoint must serve an optimized trajectory, and an invalid loop
// backend must 400 at session creation (not panic the engine).
func TestLoopSessionSurface(t *testing.T) {
	srv := New(Config{Parallelism: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	// Invalid loop backend: a clean 400.
	var errResp map[string]any
	if code := postJSON(t, client, ts.URL+"/v1/sessions",
		map[string]any{"loop": map[string]any{"enabled": true, "backend": "no-such"}}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("invalid loop backend: status %d (%v)", code, errResp)
	}
	// Negative knobs would disable the temporal gate outright: also 400.
	if code := postJSON(t, client, ts.URL+"/v1/sessions",
		map[string]any{"loop": map[string]any{"enabled": true, "min_separation": -5}}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("negative loop option: status %d (%v)", code, errResp)
	}

	var created struct {
		ID   string `json:"id"`
		Loop bool   `json:"loop"`
	}
	if code := postJSON(t, client, ts.URL+"/v1/sessions", map[string]any{
		"parallelism": 1,
		"pipelined":   false,
		"loop":        map[string]any{"enabled": true, "min_separation": 2, "max_candidates": 1},
	}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if !created.Loop {
		t.Fatal("loop-enabled session reported loop=false")
	}

	seq := synth.GenerateSequence(synth.QuickSequenceConfig(4, 11))
	for _, f := range seq.Frames {
		pushFrame(t, client, ts.URL, created.ID, f, true)
	}

	// Loops endpoint: counters present, observed == frames.
	resp, err := client.Get(fmt.Sprintf("%s/v1/sessions/%s/loops?wait=1", ts.URL, created.ID))
	if err != nil {
		t.Fatal(err)
	}
	var loops struct {
		Closures []map[string]any `json:"closures"`
		Stats    struct {
			Observed int64 `json:"observed"`
			Proposed int64 `json:"proposed"`
		} `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&loops); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if loops.Stats.Observed != int64(seq.Len()) {
		t.Fatalf("loop stage observed %d of %d frames", loops.Stats.Observed, seq.Len())
	}

	// Optimized trajectory: present, one pose per frame, with solver
	// stats.
	resp, err = client.Get(fmt.Sprintf("%s/v1/sessions/%s/trajectory?wait=1&optimized=1", ts.URL, created.ID))
	if err != nil {
		t.Fatal(err)
	}
	var traj struct {
		Frames       int              `json:"frames"`
		Optimized    []map[string]any `json:"optimized"`
		Optimization struct {
			Converged bool `json:"converged"`
		} `json:"optimization"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&traj); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if traj.Frames != seq.Len() || len(traj.Optimized) != seq.Len() {
		t.Fatalf("optimized trajectory has %d poses for %d frames", len(traj.Optimized), traj.Frames)
	}
	if !traj.Optimization.Converged {
		t.Fatal("optimization did not converge on a consistent graph")
	}

	// Stats endpoint carries the loop counters too.
	resp, err = client.Get(fmt.Sprintf("%s/v1/sessions/%s/stats", ts.URL, created.ID))
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, k := range []string{"loops_proposed", "loops_verified", "loops_accepted", "loop_ms"} {
		if _, ok := stats[k]; !ok {
			t.Errorf("stats missing %q", k)
		}
	}
}

// TestLoopVerificationICPIterationsOnTheWire: the ICP iterations loop
// verification ran reach the loops listing, the stats JSON and /metrics,
// each equal to the engine's own count, and read 0 on a session with the
// loop stage off.
func TestLoopVerificationICPIterationsOnTheWire(t *testing.T) {
	seq := synth.GenerateSequence(synth.QuickSequenceConfig(4, 11))
	for _, loopOn := range []bool{true, false} {
		t.Run(fmt.Sprintf("loop=%v", loopOn), func(t *testing.T) {
			srv := New(Config{Parallelism: 1})
			defer srv.Close()
			ts := httptest.NewServer(srv)
			defer ts.Close()
			client := ts.Client()
			get := func(path string, out any) {
				t.Helper()
				code, body := fetch(t, client, ts.URL+path)
				if code != http.StatusOK {
					t.Fatalf("GET %s: status %d", path, code)
				}
				if err := json.Unmarshal([]byte(body), out); err != nil {
					t.Fatal(err)
				}
			}

			req := map[string]any{"parallelism": 1, "pipelined": false}
			if loopOn {
				req["loop"] = map[string]any{"enabled": true, "min_separation": 2, "max_candidates": 1}
			}
			var created struct {
				ID string `json:"id"`
			}
			if code := postJSON(t, client, ts.URL+"/v1/sessions", req, &created); code != http.StatusCreated {
				t.Fatalf("create: status %d", code)
			}
			for _, f := range seq.Frames {
				pushFrame(t, client, ts.URL, created.ID, f, true)
			}

			var loops struct {
				Stats struct {
					ICPIterations int64 `json:"icp_iterations"`
				} `json:"stats"`
			}
			get("/v1/sessions/"+created.ID+"/loops?wait=1", &loops)
			var stats struct {
				ICPIterations int64 `json:"loops_icp_iterations"`
			}
			get("/v1/sessions/"+created.ID+"/stats", &stats)
			_, body := fetch(t, client, ts.URL+"/metrics")
			gauge := int64(-1)
			for _, line := range strings.Split(body, "\n") {
				fmt.Sscanf(line, "tigris_loop_verification_icp_iterations %d", &gauge)
			}

			srv.mu.Lock()
			want := srv.sessions[created.ID].eng.Stats().Loop.ICPIterations
			srv.mu.Unlock()
			if loopOn && want == 0 {
				t.Fatal("the loop-on session verified no candidate: nothing to compare")
			}
			if !loopOn && want != 0 {
				t.Fatalf("the loop-off session counted %d verification ICP iterations", want)
			}
			if loops.Stats.ICPIterations != want || stats.ICPIterations != want || gauge != want {
				t.Fatalf("loops icp_iterations %d, stats loops_icp_iterations %d, /metrics gauge %d; the engine counted %d",
					loops.Stats.ICPIterations, stats.ICPIterations, gauge, want)
			}
		})
	}
}
