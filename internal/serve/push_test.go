package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"tigris/internal/cloud"
	"tigris/internal/synth"
)

// newSession creates a session on srv in process and returns its id.
func newSession(t *testing.T, srv *Server) string {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", strings.NewReader(`{"parallelism":1}`)))
	var created struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&created); rec.Code != http.StatusCreated || err != nil {
		t.Fatalf("create: status %d, %v", rec.Code, err)
	}
	return created.ID
}

// pushBody posts body as a frame of session id and returns the status.
func pushBody(srv *Server, id string, body []byte) int {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions/"+id+"/frames", bytes.NewReader(body)))
	return rec.Code
}

// TestPushAllocationBudget holds a push — routing, the parse into the
// float32 slab, the hand-off to the engine and the reply — to a fixed
// allocation budget on a full-size 32×600 frame: nothing per point. The
// server's only limiter slot is held, so the engine's front-end cannot
// start and what is counted is the push alone.
func TestPushAllocationBudget(t *testing.T) {
	srv := New(Config{MaxConcurrent: 1, Parallelism: 1})
	defer srv.Close()
	id := newSession(t, srv)
	seq := synth.GenerateSequence(synth.EvalSequenceConfig(1, 5))
	var buf bytes.Buffer
	if err := cloud.Write(&buf, seq.Frames[0]); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()

	srv.limiter.Acquire()
	// Two pushes (AllocsPerRun's warm-up and one measured run): the first
	// is taken by the blocked front-end worker, the second waits in the
	// engine's one-frame input queue, so neither push blocks.
	allocs := testing.AllocsPerRun(1, func() {
		if code := pushBody(srv, id, body); code != http.StatusAccepted {
			t.Fatalf("push: status %d", code)
		}
	})
	srv.limiter.Release()
	srv.Drain()
	const ceiling = 200
	if allocs > ceiling {
		t.Errorf("a push of %d points (%d bytes) made %.0f allocations, want ≤ %d",
			seq.Frames[0].Len(), len(body), allocs, ceiling)
	}
}

// TestPushRefusesHostileHeader pushes a 73-byte frame whose header claims
// 10⁸ points with normals: it must be a 400, and the server must not
// allocate for the points the header claims before finding that the
// body holds one.
func TestPushRefusesHostileHeader(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	id := newSession(t, srv)
	body := []byte("TIGRIS-CLOUD v1\nPOINTS 100000000\nFIELDS xyznormal\nDATA ascii\n1 2 3 0 0 1\n")

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	code := pushBody(srv, id, body)
	runtime.ReadMemStats(&after)
	if code != http.StatusBadRequest {
		t.Fatalf("hostile frame: status %d, want 400", code)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Errorf("a %d-byte push allocated %.1f MB before it was refused", len(body), float64(grew)/(1<<20))
	}
}
