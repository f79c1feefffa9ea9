// Package gateway implements the fleet tier in front of tigris-serve:
// a reverse proxy that spreads sessions across N worker processes, the
// piece that takes the registration service from one process to a
// horizontally sharded fleet.
//
// A session is created on exactly one worker — chosen by the placement
// rule — and every later request for it is proxied to that worker, so a
// session's trajectory is bit-identical to what a single worker would
// have produced. The gateway mints its own session ids ("g1", "g2", ...)
// and rewrites paths on the way through, so worker-local ids ("s1" on
// two different workers) never collide at the front door.
//
// # Placement
//
// Least-loaded is the one rule: a create goes to the available worker
// with the fewest pending frames (scraped from the worker's /metrics),
// tie-broken by the gateway's own live session count, then worker
// index. A create counts as a live session from the moment it is placed,
// so with no load signal polled the session-count tie-break alternates
// the sessions open at one time across the workers, overlapping creates
// included. A create a worker refuses with 5xx, or cannot take at all,
// fails over to the next choice.
//
// # Admission control
//
// With Config.AdmitRate set, each client (keyed by bearer token, then
// X-Client-ID, then remote IP) gets a token bucket; session creates and
// frame pushes that find the bucket empty are refused with 429, a
// Retry-After header, and a JSON body — the same overload shape the
// workers' own -max-pending 503s use, so client backoff is uniform.
//
// # Health, drain, and re-shard
//
// A background loop (Config.HealthInterval) probes every worker's
// /healthz and scrapes its /metrics for load signals. An unhealthy
// worker receives no new sessions; requests for sessions it holds are
// answered 502 until it recovers (state that was never migrated cannot
// be invented). The graceful path is DrainWorker (POST /gateway/drain;
// DELETE /gateway/drain re-admits the worker once it has been restarted):
// the worker is fenced from new sessions, and each session it holds is
// migrated — its committed trajectory is drained (?wait=1) and carried
// over as a prefix, a replacement session is created on another worker
// with origin = the last committed pose, and the old session deleted.
// Clients keep their session id; trajectory responses stitch the prefix
// and the new worker's frames, so killing the drained worker afterwards
// loses nothing that was ever committed.
//
// # Observability
//
// The gateway records through internal/obs like the workers do: GET
// /metrics exposes per-route proxy latency histograms
// (tigris_gateway_proxy_seconds{stage=...}), request counters by route
// and status, admission rejections, migrations, and per-worker health/
// session/routed gauges. Every proxied response carries an
// X-Tigris-Worker header naming the worker that served it, which is how
// the load generator measures the fleet's load split.
//
// # Tracing
//
// Every session carries one trace id end to end: minted at create (or
// adopted from the client's W3C traceparent header), forwarded to the
// worker as traceparent on every proxied call, and echoed back on every
// response as X-Tigris-Trace. The gateway records a routing-decision
// trace per create and migration (policy, every candidate's health and
// load signals, the chosen worker, the tie-break) — GET
// /gateway/decisions lists the global ring, and GET /gateway/trace/{id}
// serves the session's full Chrome-trace span tree stitched across
// migrations together with its decisions. See internal/gateway/trace.go.
package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tigris/internal/obs"
	"tigris/internal/serve"
)

// proxyLatencyFamily is the Prometheus family the gateway's per-route
// proxy latency histograms publish under.
const proxyLatencyFamily = "tigris_gateway_proxy_seconds"

// workerHeader names the worker that served a proxied response.
const workerHeader = "X-Tigris-Worker"

// maxBufferedBody bounds a body the gateway reads whole: a session-create
// request (it must be buffered: creates fail over across workers, and
// re-shard needs the original config to recreate the session) and a
// worker's answer to a delete.
const maxBufferedBody = 1 << 20

// Config parameterizes the gateway.
type Config struct {
	// Workers are the worker base URLs (e.g. http://127.0.0.1:8089).
	// At least one is required.
	Workers []string
	// Policy names the session-placement rule: empty or
	// PolicyLeastLoaded, the only one.
	Policy Policy
	// AdmitRate enables per-client token-bucket admission control:
	// tokens per second granted to each client (0 disables admission;
	// NaN and ±Inf are refused).
	AdmitRate float64
	// AdmitBurst is the bucket capacity (default max(1, ceil(AdmitRate))).
	AdmitBurst int
	// HealthInterval is the worker health-check and load-poll period
	// (0 disables the background loop; PollWorkers can still be called).
	HealthInterval time.Duration
	// AuthToken, when non-empty, gates the mutating /gateway/* admin
	// surface (drain). The /v1/* surface is pass-through: the client's
	// Authorization header is forwarded to the worker, which enforces
	// its own token.
	AuthToken string
	// WorkerAuthToken is the bearer token the gateway presents on the
	// upstream calls it originates itself (drain migration traffic).
	// Leave empty when workers run without -auth-token.
	WorkerAuthToken string
	// Logger, when non-nil, receives request and lifecycle records.
	Logger *slog.Logger
}

// worker is one upstream tigris-serve process.
type worker struct {
	url string
	idx int

	healthy  atomic.Bool
	draining atomic.Bool

	// Load signals scraped from the worker's /metrics by PollWorkers.
	polledPending  atomic.Int64
	polledSessions atomic.Int64
	// gwSessions is the gateway's own live count of sessions mapped
	// here — always current, unlike the polled signals. A create counts
	// from the moment it is placed here, before the worker answers.
	gwSessions atomic.Int64

	cRouted *obs.Counter
}

// available reports whether new sessions may be placed on the worker.
func (w *worker) available() bool { return w.healthy.Load() && !w.draining.Load() }

// gwSession is the gateway's record of one client-visible session.
// mu orders proxied requests against migration: handlers hold RLock for
// the duration of their upstream call, migration holds Lock — so a
// migration never runs between a push being accepted by the old worker
// and its commit being visible to the drain's trajectory snapshot.
type gwSession struct {
	id string

	mu         sync.RWMutex
	w          *worker
	remoteID   string
	createBody []byte // original create request (re-shard recreates from it)
	// Committed state carried over from drained workers: trajectory
	// frames (indices already global) and verified loop closures.
	prefix         []map[string]any
	prefixClosures []map[string]any
	migrations     int
	// trace is the session's end-to-end trace id: minted at create (or
	// adopted from the client's traceparent), propagated to every worker
	// the session ever lives on, echoed on every response.
	trace obs.TraceID
	// prefixTrace carries span events captured from drained workers
	// before their session copy was deleted (pid = worker epoch), the
	// trace-side twin of the trajectory prefix. decisions is the
	// session's routing-decision history (create, failovers, migrations).
	prefixTrace []obs.ChromeEvent
	decisions   []Decision
}

// Gateway is the fleet front door. It implements http.Handler.
type Gateway struct {
	mux    *http.ServeMux
	cfg    Config
	client *http.Client // upstream, no timeout: pushes with ?wait=1 are long-lived
	logger *slog.Logger

	reg            *obs.Registry
	rec            *obs.Recorder
	cAdmitRejected *obs.Counter
	cMigrated      *obs.Counter
	cNoWorker      *obs.Counter

	admit   *admitTable
	workers []*worker
	// placeMu makes picking a worker and counting the create against it
	// one step, so overlapping creates see each other.
	placeMu sync.Mutex

	mu       sync.Mutex
	sessions map[string]*gwSession
	nextID   int

	// Routing-decision trace: a bounded global ring (see trace.go).
	decSeq    atomic.Int64
	decMu     sync.Mutex
	decisions []Decision

	stopHealth chan struct{}
}

// New creates a gateway fronting the configured workers and, when
// Config.HealthInterval is set, starts the health/load poll loop
// (stopped by Close). Workers start out presumed healthy; the first
// poll corrects that.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("gateway: no workers configured")
	}
	if cfg.Policy == "" {
		cfg.Policy = PolicyLeastLoaded
	}
	if cfg.Policy != PolicyLeastLoaded {
		return nil, fmt.Errorf("gateway: unknown routing policy %q (the only one is %s)", cfg.Policy, PolicyLeastLoaded)
	}
	if math.IsNaN(cfg.AdmitRate) || math.IsInf(cfg.AdmitRate, 0) {
		return nil, fmt.Errorf("gateway: admission rate must be finite, got %g", cfg.AdmitRate)
	}
	for _, wu := range cfg.Workers {
		u, err := url.Parse(wu)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("gateway: bad worker URL %q (want http[s]://host:port)", wu)
		}
	}
	reg := obs.NewRegistry()
	g := &Gateway{
		mux:            http.NewServeMux(),
		cfg:            cfg,
		client:         &http.Client{},
		logger:         cfg.Logger,
		reg:            reg,
		rec:            obs.NewPublishedRecorder(reg, proxyLatencyFamily),
		cAdmitRejected: reg.Counter("tigris_gateway_admission_rejected_total"),
		cMigrated:      reg.Counter("tigris_gateway_sessions_migrated_total"),
		cNoWorker:      reg.Counter("tigris_gateway_no_worker_total"),
		admit:          newAdmitTable(cfg.AdmitRate, cfg.AdmitBurst),
		sessions:       make(map[string]*gwSession),
	}
	for i, wu := range cfg.Workers {
		wu = strings.TrimRight(wu, "/")
		wk := &worker{
			url:     wu,
			idx:     i,
			cRouted: reg.Counter(`tigris_gateway_routed_total{worker="` + wu + `"}`),
		}
		wk.healthy.Store(true)
		g.workers = append(g.workers, wk)
		g.registerWorkerGauges(wk)
	}
	reg.GaugeFunc("tigris_gateway_sessions_active", func() float64 {
		g.mu.Lock()
		defer g.mu.Unlock()
		return float64(len(g.sessions))
	})

	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		g.reg.WritePrometheus(w)
	})
	g.mux.HandleFunc("GET /gateway/workers", g.handleWorkers)
	g.mux.HandleFunc("GET /gateway/buildinfo", g.handleBuildinfo)
	g.mux.HandleFunc("GET /gateway/decisions", g.handleDecisions)
	g.mux.HandleFunc("GET /gateway/trace/{id}", g.withSession(g.handleTrace))
	g.mux.HandleFunc("POST /gateway/drain", g.handleDrain)
	g.mux.HandleFunc("DELETE /gateway/drain", g.handleUndrain)
	g.mux.HandleFunc("POST /v1/sessions", g.handleCreate)
	g.mux.HandleFunc("GET /v1/backends", g.proxyFleet("/v1/backends"))
	g.mux.HandleFunc("GET /v1/buildinfo", g.proxyFleet("/v1/buildinfo"))
	g.mux.HandleFunc("POST /v1/sessions/{id}/frames", g.withSession(g.handlePush))
	g.mux.HandleFunc("GET /v1/sessions/{id}/trajectory", g.withSession(g.handleTrajectory))
	g.mux.HandleFunc("GET /v1/sessions/{id}/loops", g.withSession(g.handleLoops))
	g.mux.HandleFunc("GET /v1/sessions/{id}/stats", g.withSession(g.handleStats))
	g.mux.HandleFunc("DELETE /v1/sessions/{id}", g.withSession(g.handleDelete))

	if cfg.HealthInterval > 0 {
		g.stopHealth = make(chan struct{})
		go g.healthLoop(g.stopHealth)
	}
	return g, nil
}

// registerWorkerGauges publishes one worker's live state as labeled
// Prometheus gauges.
func (g *Gateway) registerWorkerGauges(wk *worker) {
	label := `{worker="` + wk.url + `"}`
	g.reg.GaugeFunc("tigris_gateway_worker_healthy"+label, func() float64 {
		if wk.healthy.Load() {
			return 1
		}
		return 0
	})
	g.reg.GaugeFunc("tigris_gateway_worker_draining"+label, func() float64 {
		if wk.draining.Load() {
			return 1
		}
		return 0
	})
	g.reg.GaugeFunc("tigris_gateway_worker_sessions"+label, func() float64 {
		return float64(wk.gwSessions.Load())
	})
	g.reg.GaugeFunc("tigris_gateway_worker_pending_frames"+label, func() float64 {
		return float64(wk.polledPending.Load())
	})
}

// Close stops the health loop. The gateway holds no session state worth
// draining — sessions live on the workers.
func (g *Gateway) Close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.stopHealth != nil {
		close(g.stopHealth)
		g.stopHealth = nil
	}
}

// ServeHTTP implements http.Handler through serve.Front: the mutating
// /gateway/* admin surface is gated behind Config.AuthToken. /v1/* passes
// through untouched — the client's bearer token travels with the proxied
// request and the worker enforces it.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	serve.Front(w, r, g.mux, g.reg, g.logger, "tigris_gateway_requests_total", "/gateway/", "tigris-gateway", g.cfg.AuthToken)
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	healthy := 0
	for _, wk := range g.workers {
		if wk.healthy.Load() {
			healthy++
		}
	}
	status := http.StatusOK
	if healthy == 0 {
		status = http.StatusServiceUnavailable
	}
	serve.WriteJSON(w, status, map[string]any{
		"status":          map[bool]string{true: "ok", false: "no healthy workers"}[healthy > 0],
		"workers":         len(g.workers),
		"workers_healthy": healthy,
	})
}

// WorkerStatus is one worker's row in the /gateway/workers listing.
type WorkerStatus struct {
	URL           string `json:"url"`
	Healthy       bool   `json:"healthy"`
	Draining      bool   `json:"draining"`
	Sessions      int64  `json:"sessions"`
	PendingFrames int64  `json:"pending_frames"`
}

// Workers reports each worker's live status (the /gateway/workers body).
func (g *Gateway) Workers() []WorkerStatus {
	out := make([]WorkerStatus, len(g.workers))
	for i, wk := range g.workers {
		out[i] = WorkerStatus{
			URL:           wk.url,
			Healthy:       wk.healthy.Load(),
			Draining:      wk.draining.Load(),
			Sessions:      wk.gwSessions.Load(),
			PendingFrames: wk.polledPending.Load(),
		}
	}
	return out
}

func (g *Gateway) handleWorkers(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, map[string]any{"workers": g.Workers()})
}

// workerParam resolves the request's ?worker=<url or index>. It answers
// 400 when the parameter is missing and 404 when it names no worker, and
// returns nil in both cases.
func (g *Gateway) workerParam(w http.ResponseWriter, r *http.Request) *worker {
	ref := r.URL.Query().Get("worker")
	if ref == "" {
		serve.HTTPError(w, http.StatusBadRequest, "missing ?worker=<url or index>")
		return nil
	}
	wk := g.findWorker(ref)
	if wk == nil {
		serve.HTTPError(w, http.StatusNotFound, "no worker %q", ref)
	}
	return wk
}

func (g *Gateway) handleDrain(w http.ResponseWriter, r *http.Request) {
	wk := g.workerParam(w, r)
	if wk == nil {
		return
	}
	migrated, err := g.DrainWorker(wk.url)
	if err != nil {
		serve.WriteJSON(w, http.StatusBadGateway, map[string]any{
			"error":    err.Error(),
			"worker":   wk.url,
			"migrated": migrated,
		})
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{"worker": wk.url, "migrated": migrated})
}

// handleUndrain is DELETE /gateway/drain: it re-admits a drained worker
// for new sessions (after a restart, say). Health still gates actual
// routing.
func (g *Gateway) handleUndrain(w http.ResponseWriter, r *http.Request) {
	wk := g.workerParam(w, r)
	if wk == nil {
		return
	}
	wk.draining.Store(false)
	if g.logger != nil {
		g.logger.Info("worker re-admitted", "worker", wk.url)
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{"worker": wk.url, "draining": false})
}

// findWorker resolves a worker by URL or decimal index.
func (g *Gateway) findWorker(ref string) *worker {
	for _, wk := range g.workers {
		if wk.url == strings.TrimRight(ref, "/") {
			return wk
		}
	}
	if i, err := strconv.Atoi(ref); err == nil && i >= 0 && i < len(g.workers) {
		return g.workers[i]
	}
	return nil
}

// session resolves a gateway session id.
func (g *Gateway) session(id string) *gwSession {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sessions[id]
}

// dropSession removes a session mapping (worker-side 404 or delete).
func (g *Gateway) dropSession(ses *gwSession) {
	g.mu.Lock()
	if _, ok := g.sessions[ses.id]; ok {
		delete(g.sessions, ses.id)
		ses.w.gwSessions.Add(-1)
	}
	g.mu.Unlock()
}

func (g *Gateway) withSession(fn func(http.ResponseWriter, *http.Request, *gwSession)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ses := g.session(r.PathValue("id"))
		if ses == nil {
			serve.HTTPError(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
			return
		}
		// The session's trace id on every response, whichever worker ends
		// up serving it — the handle a client follows into
		// /gateway/trace/{gid}.
		w.Header().Set("X-Tigris-Trace", ses.trace.String())
		fn(w, r, ses)
	}
}

// doUpstream issues one request to a worker, forwarding auth and
// content-type headers. pathAndQuery must start with "/". A non-zero
// trace id rides along as a W3C traceparent header, so the worker tags
// its spans with the gateway's trace id instead of minting its own.
func (g *Gateway) doUpstream(wk *worker, method, pathAndQuery, auth string, contentType string, trace obs.TraceID, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequest(method, wk.url+pathAndQuery, body)
	if err != nil {
		return nil, err
	}
	if auth != "" {
		req.Header.Set("Authorization", auth)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if !trace.IsZero() {
		req.Header.Set("traceparent", obs.FormatTraceParent(trace, 0))
	}
	return g.client.Do(req)
}

// clientAuth returns the Authorization header to present upstream: the
// client's own header when set, else the gateway's worker token.
func (g *Gateway) clientAuth(r *http.Request) string {
	if a := r.Header.Get("Authorization"); a != "" {
		return a
	}
	if g.cfg.WorkerAuthToken != "" {
		return "Bearer " + g.cfg.WorkerAuthToken
	}
	return ""
}

// workerAuth is the Authorization header for gateway-originated calls.
func (g *Gateway) workerAuth() string {
	if g.cfg.WorkerAuthToken != "" {
		return "Bearer " + g.cfg.WorkerAuthToken
	}
	return ""
}

// subPath rebuilds the worker-side path for a session-scoped request.
func subPath(remoteID, sub, rawQuery string) string {
	p := "/v1/sessions/" + remoteID
	if sub != "" {
		p += "/" + sub
	}
	if rawQuery != "" {
		p += "?" + rawQuery
	}
	return p
}

// shiftIndices adds base to the named frame-index fields of a worker's
// records (a trajectory frame's "index", a closure's "from" and "to"),
// making the worker-local indices of a re-sharded session global.
func shiftIndices[T any](records []T, base int, keys ...string) {
	for _, rec := range records {
		m, _ := any(rec).(map[string]any)
		for _, k := range keys {
			if v, ok := m[k].(float64); ok {
				m[k] = v + float64(base)
			}
		}
	}
}

// copyResponse relays an upstream response: status, the headers that
// matter (Content-Type, Retry-After), the worker identity, and body.
func copyResponse(w http.ResponseWriter, resp *http.Response, wk *worker) {
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set(workerHeader, wk.url)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// handleCreate places a new session on the least-loaded worker, failing
// over to the next candidate on worker errors.
func (g *Gateway) handleCreate(w http.ResponseWriter, r *http.Request) {
	if !g.admitOK(w, r) {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBufferedBody))
	if err != nil {
		serve.HTTPError(w, http.StatusBadRequest, "reading session config: %v", err)
		return
	}

	g.mu.Lock()
	g.nextID++
	id := fmt.Sprintf("g%d", g.nextID)
	g.mu.Unlock()

	// The session's trace id, minted at the front door (or adopted from
	// the client's own traceparent) and handed to whichever worker wins
	// placement, so gateway decisions and worker spans share one id.
	trace, ok := obs.ParseTraceParent(r.Header.Get("traceparent"))
	if !ok {
		trace = obs.NewTraceID()
	}

	span := g.rec.Start("create")
	wk, remoteID, respBody, status, decs, err := g.createUpstream(id, "create", trace, body, g.clientAuth(r))
	span.End()
	if err != nil {
		g.cNoWorker.Inc()
		serve.WriteOverload(w, http.StatusServiceUnavailable, 1, "%v", err)
		return
	}
	if status != http.StatusCreated {
		// Client-side error (bad config): forward the worker's verdict.
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(workerHeader, wk.url)
		w.WriteHeader(status)
		_, _ = w.Write(respBody)
		return
	}

	ses := &gwSession{id: id, w: wk, remoteID: remoteID, createBody: body, trace: trace, decisions: decs}
	g.mu.Lock()
	g.sessions[id] = ses
	g.mu.Unlock()
	wk.cRouted.Inc()

	// Rewrite the worker-local id to the gateway id and surface the
	// placement, so clients (and the load generator) can see the split.
	var created map[string]any
	if err := json.Unmarshal(respBody, &created); err != nil {
		created = map[string]any{}
	}
	created["id"] = id
	created["worker"] = wk.url
	created["trace"] = trace.String()
	w.Header().Set(workerHeader, wk.url)
	w.Header().Set("X-Tigris-Trace", trace.String())
	serve.WriteJSON(w, http.StatusCreated, created)
}

// createUpstream tries candidates in placement order until one accepts the
// session. Workers that refuse with 5xx or fail to connect are skipped
// (connection failures also mark the worker unhealthy); a 4xx is the
// client's problem and is returned as-is. Every placement attempt is
// recorded as a routing Decision (the first under the given kind —
// "create" or "migrate" — retries under "failover") and the recorded
// decisions are returned for attachment to the session. A created
// session stays counted in its worker's gwSessions; an attempt that
// fails gives its count back.
func (g *Gateway) createUpstream(id, kind string, trace obs.TraceID, body []byte, auth string) (*worker, string, []byte, int, []Decision, error) {
	tried := make(map[*worker]bool)
	var decs []Decision
	record := func(wk *worker, rows []DecisionCandidate, tieBreak string) {
		d := Decision{
			Session:    id,
			TraceID:    trace.String(),
			Kind:       kind,
			Policy:     string(g.cfg.Policy),
			TieBreak:   tieBreak,
			Candidates: rows,
		}
		if wk != nil {
			d.Chosen = wk.url
		}
		if len(decs) > 0 {
			d.Kind = "failover"
		}
		g.recordDecision(&d)
		decs = append(decs, d)
	}
	for range g.workers {
		g.placeMu.Lock()
		wk, rows, tieBreak := g.pickExplain(tried)
		if wk != nil {
			wk.gwSessions.Add(1)
		}
		g.placeMu.Unlock()
		record(wk, rows, tieBreak)
		if wk == nil {
			break
		}
		tried[wk] = true
		resp, err := g.doUpstream(wk, http.MethodPost, "/v1/sessions", auth, "application/json", trace, strings.NewReader(string(body)))
		if err != nil {
			wk.gwSessions.Add(-1)
			g.markUnhealthy(wk, err)
			continue
		}
		respBody, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			wk.gwSessions.Add(-1)
			continue
		}
		if resp.StatusCode != http.StatusCreated {
			wk.gwSessions.Add(-1)
			return wk, "", respBody, resp.StatusCode, decs, nil
		}
		var created struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(respBody, &created); err != nil || created.ID == "" {
			wk.gwSessions.Add(-1)
			continue
		}
		return wk, created.ID, respBody, http.StatusCreated, decs, nil
	}
	return nil, "", nil, 0, decs, fmt.Errorf("no available worker for session create")
}

// handlePush proxies a frame push to the session's worker. The session
// read-lock is held across the upstream call so a concurrent drain
// cannot migrate the session mid-push.
func (g *Gateway) handlePush(w http.ResponseWriter, r *http.Request, ses *gwSession) {
	if !g.admitOK(w, r) {
		return
	}
	ses.mu.RLock()
	defer ses.mu.RUnlock()
	resp := g.sessionUpstream(w, r, ses, "frames", r.Body)
	if resp == nil {
		return
	}
	defer resp.Body.Close()
	wk := ses.w
	if prefixLen := len(ses.prefix); resp.StatusCode == http.StatusAccepted && prefixLen > 0 {
		// Re-sharded session: worker-local frame indices shift by the
		// carried-over prefix.
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err == nil {
			if f, ok := out["frame"].(float64); ok {
				out["frame"] = f + float64(prefixLen)
			}
			w.Header().Set(workerHeader, wk.url)
			serve.WriteJSON(w, resp.StatusCode, out)
			return
		}
		serve.HTTPError(w, http.StatusBadGateway, "worker %s: bad push response", wk.url)
		return
	}
	copyResponse(w, resp, wk)
}

// sessionUpstream makes a session-scoped route's one upstream call — the
// client's own method and query on the session's sub-path what (also the
// span's name), with its body and content type when there is one — to the
// worker holding the session. The caller holds ses.mu for reading and
// closes the response's body. A nil response has been answered already:
// 502 when the worker is down or the call fails (which marks it
// unhealthy), the worker's own 404 when the session is gone there.
func (g *Gateway) sessionUpstream(w http.ResponseWriter, r *http.Request, ses *gwSession, what string, body io.Reader) *http.Response {
	wk := ses.w
	if !wk.healthy.Load() {
		serve.HTTPError(w, http.StatusBadGateway, "worker %s holding session %s is down", wk.url, ses.id)
		return nil
	}
	contentType := ""
	if body != nil {
		contentType = r.Header.Get("Content-Type")
	}
	span := g.rec.Start(what)
	resp, err := g.doUpstream(wk, r.Method, subPath(ses.remoteID, what, r.URL.RawQuery),
		g.clientAuth(r), contentType, ses.trace, body)
	span.End()
	if err != nil {
		g.markUnhealthy(wk, err)
		serve.HTTPError(w, http.StatusBadGateway, "worker %s: %v", wk.url, err)
		return nil
	}
	if resp.StatusCode == http.StatusNotFound {
		// Evicted (idle TTL) or otherwise lost on the worker: drop the
		// mapping too, so the client sees a clean 404 now and on every
		// later request, never a silent re-route onto a fresh session.
		g.dropSession(ses)
		if g.logger != nil {
			g.logger.Warn("session gone on worker (evicted?); mapping dropped",
				"session", ses.id, "worker", wk.url)
		}
		copyResponse(w, resp, wk)
		resp.Body.Close()
		return nil
	}
	return resp
}

// handleTrajectory proxies a trajectory read, stitching the carried-over
// prefix in front of the current worker's frames for re-sharded
// sessions.
func (g *Gateway) handleTrajectory(w http.ResponseWriter, r *http.Request, ses *gwSession) {
	ses.mu.RLock()
	defer ses.mu.RUnlock()
	resp := g.sessionUpstream(w, r, ses, "trajectory", nil)
	if resp == nil {
		return
	}
	defer resp.Body.Close()
	wk := ses.w
	if resp.StatusCode != http.StatusOK || len(ses.prefix) == 0 {
		copyResponse(w, resp, wk)
		return
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		serve.HTTPError(w, http.StatusBadGateway, "worker %s: bad trajectory response: %v", wk.url, err)
		return
	}
	suffix, _ := out["trajectory"].([]any)
	stitched := make([]any, 0, len(ses.prefix)+len(suffix))
	for _, fr := range ses.prefix {
		stitched = append(stitched, fr)
	}
	shiftIndices(suffix, len(ses.prefix), "index")
	stitched = append(stitched, suffix...)
	out["trajectory"] = stitched
	out["frames"] = len(stitched)
	out["migrations"] = ses.migrations
	w.Header().Set(workerHeader, wk.url)
	serve.WriteJSON(w, http.StatusOK, out)
}

// handleLoops proxies the loop-closure listing, shifting worker-local
// frame indices and prepending closures committed before a re-shard.
func (g *Gateway) handleLoops(w http.ResponseWriter, r *http.Request, ses *gwSession) {
	ses.mu.RLock()
	defer ses.mu.RUnlock()
	resp := g.sessionUpstream(w, r, ses, "loops", nil)
	if resp == nil {
		return
	}
	defer resp.Body.Close()
	wk := ses.w
	if resp.StatusCode != http.StatusOK || len(ses.prefix) == 0 {
		copyResponse(w, resp, wk)
		return
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		serve.HTTPError(w, http.StatusBadGateway, "worker %s: bad loops response: %v", wk.url, err)
		return
	}
	suffix, _ := out["closures"].([]any)
	all := make([]any, 0, len(ses.prefixClosures)+len(suffix))
	for _, cl := range ses.prefixClosures {
		all = append(all, cl)
	}
	shiftIndices(suffix, len(ses.prefix), "from", "to")
	all = append(all, suffix...)
	out["closures"] = all
	w.Header().Set(workerHeader, wk.url)
	serve.WriteJSON(w, http.StatusOK, out)
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request, ses *gwSession) {
	ses.mu.RLock()
	defer ses.mu.RUnlock()
	resp := g.sessionUpstream(w, r, ses, "stats", nil)
	if resp == nil {
		return
	}
	defer resp.Body.Close()
	copyResponse(w, resp, ses.w)
}

func (g *Gateway) handleDelete(w http.ResponseWriter, r *http.Request, ses *gwSession) {
	ses.mu.RLock()
	defer ses.mu.RUnlock()
	wk := ses.w
	g.dropSession(ses)
	span := g.rec.Start("delete")
	resp, err := g.doUpstream(wk, http.MethodDelete, subPath(ses.remoteID, "", ""), g.clientAuth(r), "", ses.trace, nil)
	span.End()
	if err != nil {
		g.markUnhealthy(wk, err)
		serve.HTTPError(w, http.StatusBadGateway, "worker %s: %v (gateway mapping removed)", wk.url, err)
		return
	}
	defer resp.Body.Close()
	// One bounded read: a JSON object gets the gateway's id, anything else
	// (the worker mux's plain-text 404, say) is relayed as read.
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBufferedBody))
	if err != nil {
		serve.HTTPError(w, http.StatusBadGateway, "worker %s: %v (gateway mapping removed)", wk.url, err)
		return
	}
	var out map[string]any
	if json.Unmarshal(body, &out) == nil && out != nil {
		out["id"] = ses.id
		w.Header().Set(workerHeader, wk.url)
		serve.WriteJSON(w, resp.StatusCode, out)
		return
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	copyResponse(w, resp, wk)
}

// proxyFleet proxies a fleet-wide informational endpoint to the first
// healthy worker (they all answer identically).
func (g *Gateway) proxyFleet(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		for _, wk := range g.workers {
			if !wk.healthy.Load() {
				continue
			}
			resp, err := g.doUpstream(wk, http.MethodGet, path, g.clientAuth(r), "", obs.TraceID{}, nil)
			if err != nil {
				g.markUnhealthy(wk, err)
				continue
			}
			defer resp.Body.Close()
			copyResponse(w, resp, wk)
			return
		}
		serve.WriteOverload(w, http.StatusServiceUnavailable, 1, "no healthy worker")
	}
}

// markUnhealthy records a connection-level failure against a worker.
func (g *Gateway) markUnhealthy(wk *worker, err error) {
	if wk.healthy.Swap(false) && g.logger != nil {
		g.logger.Warn("worker marked unhealthy", "worker", wk.url, "error", err.Error())
	}
}
