package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"tigris/internal/cloud"
	"tigris/internal/obs"
)

// gwTraceDoc decodes /gateway/trace/{id} for assertions.
type gwTraceDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Pid  int            `json:"pid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	Decisions []Decision     `json:"decisions"`
	Meta      map[string]any `json:"otherData"`
}

// TestTraceFollowsSessionAcrossMigration is the tentpole's end-to-end
// acceptance test: one trace id, adopted from the client's traceparent
// at the front door, shows up in the gateway's routing decisions, the
// worker's span tree, and every response header — and survives a
// drain/migration, with /gateway/trace stitching span events from both
// worker epochs under distinct process ids.
func TestTraceFollowsSessionAcrossMigration(t *testing.T) {
	f := newFleet(t, 2, workerCfg)
	_, base := newGateway(t, f, Config{})

	// Create with a client-supplied traceparent: the gateway must adopt
	// the trace id rather than minting its own.
	want := obs.NewTraceID()
	body, _ := json.Marshal(map[string]any{"parallelism": 1})
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/sessions", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", obs.FormatTraceParent(want, 0))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		ID    string `json:"id"`
		Trace string `json:"trace"`
	}
	err = json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d err %v", resp.StatusCode, err)
	}
	if got := resp.Header.Get("X-Tigris-Trace"); got != want.String() {
		t.Fatalf("create X-Tigris-Trace = %q, want adopted %q", got, want)
	}
	if created.Trace != want.String() {
		t.Fatalf("create body trace = %q, want %q", created.Trace, want)
	}
	id := created.ID

	frames := quickFrames(4, 77)
	for _, c := range frames[:2] {
		pushFrame(t, base, id, c, true)
	}

	// Pre-migration: the stitched trace already shows worker epoch 1 and
	// the create decision carrying the same trace id.
	doc := fetchGatewayTrace(t, base, id)
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no span events before migration")
	}
	if len(doc.Decisions) != 1 || doc.Decisions[0].Kind != "create" {
		t.Fatalf("pre-migration decisions = %+v, want one create", doc.Decisions)
	}
	if doc.Decisions[0].TraceID != want.String() {
		t.Fatalf("create decision trace = %q, want %q", doc.Decisions[0].TraceID, want)
	}
	if len(doc.Decisions[0].Candidates) != 2 {
		t.Fatalf("create decision lists %d candidates, want both workers", len(doc.Decisions[0].Candidates))
	}

	// Drain the session's worker, forcing a migration.
	resp, err = http.Post(base+"/gateway/drain?worker=0", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d", resp.StatusCode)
	}

	// Post-migration pushes still answer with the same trace id.
	for _, c := range frames[2:] {
		var buf bytes.Buffer
		if err := cloud.Write(&buf, c); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/v1/sessions/"+id+"/frames?wait=1", "text/plain", &buf)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("post-drain push: status %d", resp.StatusCode)
		}
		if got := resp.Header.Get("X-Tigris-Trace"); got != want.String() {
			t.Fatalf("post-drain X-Tigris-Trace = %q, want %q", got, want)
		}
	}

	doc = fetchGatewayTrace(t, base, id)
	if doc.Meta["trace_id"] != want.String() {
		t.Fatalf("otherData.trace_id = %v, want %q", doc.Meta["trace_id"], want)
	}
	if m, ok := doc.Meta["migrations"].(float64); !ok || m != 1 {
		t.Fatalf("otherData.migrations = %v, want 1", doc.Meta["migrations"])
	}

	// Span events from both worker epochs, stitched and time-ordered,
	// all under the one trace id.
	epochs := map[int]int{}
	for i, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %d ph = %q, want X", i, ev.Ph)
		}
		if i > 0 && ev.Ts < doc.TraceEvents[i-1].Ts {
			t.Fatalf("stitched events not sorted by ts at %d", i)
		}
		if ev.Args["trace_id"] != want.String() {
			t.Fatalf("event %q trace_id = %v, want %q", ev.Name, ev.Args["trace_id"], want)
		}
		epochs[ev.Pid]++
	}
	if epochs[1] == 0 || epochs[2] == 0 {
		t.Fatalf("stitched trace epochs = %v, want events from both worker epochs (pid 1 and 2)", epochs)
	}

	// The migration decision rides on the session, same trace id.
	kinds := map[string]int{}
	for _, d := range doc.Decisions {
		kinds[d.Kind]++
		if d.TraceID != want.String() {
			t.Fatalf("%s decision trace = %q, want %q", d.Kind, d.TraceID, want)
		}
	}
	if kinds["create"] != 1 || kinds["migrate"] != 1 {
		t.Fatalf("decision kinds = %v, want one create and one migrate", kinds)
	}

	// The global decision ring (admin surface) saw both too.
	dec, code, _ := getJSON(t, base+"/gateway/decisions")
	if code != http.StatusOK {
		t.Fatalf("/gateway/decisions: status %d", code)
	}
	if n := len(dec["decisions"].([]any)); n != 2 {
		t.Fatalf("global decision ring has %d entries, want 2", n)
	}

	// Sanity on the policy evidence: the migrate decision must mark the
	// draining worker ineligible and pick the survivor.
	var mig *Decision
	for i := range doc.Decisions {
		if doc.Decisions[i].Kind == "migrate" {
			mig = &doc.Decisions[i]
		}
	}
	if mig.Chosen != f.urls[1] {
		t.Fatalf("migrate chose %q, want surviving worker %s", mig.Chosen, f.urls[1])
	}
	for _, c := range mig.Candidates {
		if c.Worker == f.urls[0] && (!c.Draining || c.Picked) {
			t.Fatalf("draining worker candidacy = %+v, want draining and not picked", c)
		}
	}
}

// TestGatewayBuildinfo pins the front door's build-identity surface.
func TestGatewayBuildinfo(t *testing.T) {
	f := newFleet(t, 1, workerCfg)
	_, base := newGateway(t, f, Config{})
	info, code, _ := getJSON(t, base+"/gateway/buildinfo")
	if code != http.StatusOK {
		t.Fatalf("/gateway/buildinfo: status %d", code)
	}
	if info["go"] == "" || info["module"] == "" {
		t.Fatalf("buildinfo = %v, want go and module fields", info)
	}
}

// fetchGatewayTrace GETs and decodes the stitched session trace.
func fetchGatewayTrace(t *testing.T, base, id string) gwTraceDoc {
	t.Helper()
	resp, err := http.Get(base + "/gateway/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/gateway/trace/%s: status %d", id, resp.StatusCode)
	}
	var doc gwTraceDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("/gateway/trace: bad JSON: %v", err)
	}
	return doc
}
