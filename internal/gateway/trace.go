package gateway

import (
	"encoding/json"
	"net/http"
	"sort"
	"time"

	"tigris/internal/obs"
	"tigris/internal/serve"
)

// Routing-decision tracing and the stitched session trace surface.
//
// Every session create and migration records one Decision per placement
// attempt: the policy consulted, every worker's candidacy (health,
// drain fence, load signals), the chosen worker, and which tie-break
// decided it — the BLIS-style decision trace that lets a load run's
// split be explained, not just measured. Decisions live in a bounded
// gateway-global ring (GET /gateway/decisions) and on the session they
// placed (merged into GET /gateway/trace/{gid}).
//
// GET /gateway/trace/{gid} is the fleet-level view of one session's
// trace: the current worker's /debug/trace span tree, stitched behind
// the span trees captured from previous workers at each migration
// (fetched before the old session is deleted, exactly like the
// trajectory prefix), plus the session's routing decisions. One trace
// id — minted at create, or adopted from the client's W3C traceparent —
// spans all of it.

// DecisionCandidate is one worker's row in a routing decision.
type DecisionCandidate struct {
	Worker        string `json:"worker"`
	Healthy       bool   `json:"healthy"`
	Draining      bool   `json:"draining"`
	Tried         bool   `json:"tried,omitempty"` // already attempted during this create's failover
	PendingFrames int64  `json:"pending_frames"`
	Sessions      int64  `json:"sessions"`
	Picked        bool   `json:"picked"`
}

// Decision is one recorded routing choice.
type Decision struct {
	Seq        int64               `json:"seq"`
	At         string              `json:"at"` // RFC3339Nano
	Session    string              `json:"session"`
	TraceID    string              `json:"trace_id,omitempty"`
	Kind       string              `json:"kind"` // "create", "failover", or "migrate"
	Policy     string              `json:"policy"`
	Chosen     string              `json:"chosen,omitempty"`    // empty: no worker qualified
	TieBreak   string              `json:"tie_break,omitempty"` // "pending_frames", "sessions" or "index"
	Candidates []DecisionCandidate `json:"candidates"`
}

// maxGlobalDecisions bounds the gateway-global decision ring.
const maxGlobalDecisions = 1024

// maxSessionDecisions bounds the per-session decision list (creates are
// one-shot; only pathological failover/migration churn approaches this).
const maxSessionDecisions = 64

// recordDecision stamps and appends a decision to the global ring.
func (g *Gateway) recordDecision(d *Decision) {
	d.Seq = g.decSeq.Add(1)
	d.At = time.Now().UTC().Format(time.RFC3339Nano)
	g.decMu.Lock()
	g.decisions = append(g.decisions, *d)
	if len(g.decisions) > maxGlobalDecisions {
		g.decisions = g.decisions[len(g.decisions)-maxGlobalDecisions:]
	}
	g.decMu.Unlock()
}

// Decisions snapshots the global routing-decision ring, oldest first.
func (g *Gateway) Decisions() []Decision {
	g.decMu.Lock()
	defer g.decMu.Unlock()
	return append([]Decision(nil), g.decisions...)
}

func (g *Gateway) handleDecisions(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, map[string]any{"decisions": g.Decisions()})
}

// handleBuildinfo mirrors the workers' /v1/buildinfo for the gateway
// binary itself (satellite of the -version story: the same identity a
// worker reports, served from the front door).
func (g *Gateway) handleBuildinfo(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, serve.BuildInfo())
}

// workerTraceDoc is the subset of a worker's /debug/trace document the
// gateway re-serves.
type workerTraceDoc struct {
	TraceEvents []obs.ChromeEvent `json:"traceEvents"`
	Slowest     json.RawMessage   `json:"slowest"`
}

// fetchWorkerTrace pulls one worker's span tree for a session.
func (g *Gateway) fetchWorkerTrace(wk *worker, remoteID string, trace obs.TraceID) (workerTraceDoc, bool) {
	var doc workerTraceDoc
	resp, err := g.doUpstream(wk, http.MethodGet, "/debug/trace/"+remoteID, g.workerAuth(), "", trace, nil)
	if err != nil {
		return doc, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doc, false
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return doc, false
	}
	return doc, true
}

// handleTrace serves the stitched session trace: span trees from every
// worker epoch (pid = epoch ordinal, so each worker's events get their
// own process row in Perfetto), the current worker's slowest-K
// exemplars, and the session's routing decisions. Still valid Chrome
// trace-event JSON — the extra keys are ignored by viewers.
func (g *Gateway) handleTrace(w http.ResponseWriter, r *http.Request, ses *gwSession) {
	ses.mu.RLock()
	wk := ses.w
	events := append([]obs.ChromeEvent(nil), ses.prefixTrace...)
	decisions := append([]Decision(nil), ses.decisions...)
	migrations := ses.migrations
	trace := ses.trace
	remoteID := ses.remoteID
	ses.mu.RUnlock()

	var slowest json.RawMessage
	if wk.healthy.Load() {
		// Best-effort: a dead current worker still leaves the carried
		// prefix and the decision trace readable.
		if doc, ok := g.fetchWorkerTrace(wk, remoteID, trace); ok {
			epoch := migrations + 1
			for i := range doc.TraceEvents {
				doc.TraceEvents[i].Pid = epoch
			}
			events = append(events, doc.TraceEvents...)
			slowest = doc.Slowest
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })

	out := map[string]any{
		"displayTimeUnit": "ms",
		"otherData": map[string]any{
			"session":    ses.id,
			"trace_id":   trace.String(),
			"migrations": migrations,
			"worker":     wk.url,
		},
		"traceEvents": events,
		"decisions":   decisions,
	}
	if len(slowest) > 0 {
		out["slowest"] = slowest
	}
	serve.WriteJSON(w, http.StatusOK, out)
}
