// Package serve implements the multi-user registration service behind
// cmd/tigris-serve: a stdlib net/http server where each session owns one
// streaming odometry engine (internal/stream) and every session shares a
// server-level concurrency limiter — which sessions may have a heavy
// stage under way — while the process's slot budget (internal/par) keeps
// the goroutines computing at GOMAXPROCS no matter how many users stream
// frames at once — the serving idiom of long-lived sessions with queued
// requests and per-session state reuse.
//
// # Endpoints
//
//	GET    /healthz                        liveness probe
//	GET    /metrics                        Prometheus text exposition
//	GET    /debug/trace/{id}               session span tree (Chrome trace JSON)
//	GET    /v1/backends                    registered search-backend names
//	GET    /v1/buildinfo                   binary build/VCS identity (JSON)
//	POST   /v1/sessions                    create a session (JSON config)
//	POST   /v1/sessions/{id}/frames        push one TIGRIS-CLOUD frame
//	GET    /v1/sessions/{id}/trajectory    accumulated trajectory (JSON)
//	GET    /v1/sessions/{id}/loops         verified loop closures (JSON)
//	GET    /v1/sessions/{id}/stats         session work counters (JSON)
//	DELETE /v1/sessions/{id}               close and remove the session
//
// # Observability
//
// Telemetry is always on and allocation-free (internal/obs). Every
// session records per-stage latencies into its own recorder — surfaced
// as latency_ms percentiles on GET /v1/sessions/{id}/stats — teed into a
// server-global recorder published on GET /metrics as the
// tigris_stage_latency_seconds{stage=...} histogram family, alongside
// request/session/frame counters and limiter/queue-depth gauges.
// /metrics and /healthz stay outside the auth gate so probes and
// scrapers need no credentials. With Config.Logger set, every request is
// logged (method, route, session, status, bytes, duration).
//
// Tracing rides the same always-on telemetry: every session carries a
// trace id (minted at create, or adopted from an inbound W3C
// `traceparent` header — the gateway propagates its own) and a bounded
// flight recorder of span events; every session-scoped response echoes
// the id in an `X-Tigris-Trace` header, and GET /debug/trace/{id}
// exports the retained span tree as Chrome trace-event JSON (loadable
// in Perfetto), including the slowest-K exemplar trees per stage.
//
// Frame pushes return the assigned frame index immediately (the engine
// pipelines the heavy work); `?wait=1` on a push or trajectory request
// blocks until every pushed frame is committed. Sessions created with
// `"loop": {"enabled": true}` run the SLAM layer: the streaming engine's
// loop-closure stage verifies place-recognition candidates, and
// `?optimized=1` on the trajectory request returns the pose-graph
// optimized trajectory alongside the raw odometry.
//
// With Config.AuthToken set, every /v1/* endpoint requires
// `Authorization: Bearer <token>`; /healthz stays open for probes.
//
// Sessions hold prepared-frame state and a pair of pipeline goroutines
// for their whole life, so a real deployment must bound abandoned ones:
// with Config.SessionTTL set, a janitor evicts (closes and removes) any
// session that has not served a request for that long.
package serve

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"tigris/internal/cloud"
	"tigris/internal/dse"
	"tigris/internal/geom"
	"tigris/internal/loop"
	"tigris/internal/obs"
	"tigris/internal/par"
	"tigris/internal/registration"
	"tigris/internal/search"
	"tigris/internal/stream"
)

// stageLatencyFamily is the Prometheus family the pipeline's per-stage
// latency histograms publish under (one series per obs stage name).
const stageLatencyFamily = "tigris_stage_latency_seconds"

// maxFrameBytes bounds one uploaded frame (ASCII clouds run ≈ 37 bytes
// per point, so this admits multi-million-point frames).
const maxFrameBytes = 256 << 20

// maxOptimizeFrames bounds the trajectory length ?optimized=1 will
// solve: the pose-graph solver is dense (O(N³) time, O(N²) memory — at
// 1000 frames the normal equations are ~290 MB), so longer sessions are
// refused instead of letting one request stall the limiter for minutes.
// A sparse solver is the lift that removes this cap (see ROADMAP).
const maxOptimizeFrames = 1000

// Config parameterizes the server.
type Config struct {
	// MaxConcurrent caps concurrent heavy stages (frame preparation and
	// pair alignment) across all sessions; <= 0 selects the slot budget
	// (par.Slots).
	MaxConcurrent int
	// Parallelism is the default per-stage batch worker count for
	// sessions that do not set their own (0 = the slot budget,
	// GOMAXPROCS).
	Parallelism int
	// DefaultBackend is the registry search-backend name for sessions
	// whose request names no backend ("" = the pipeline's default,
	// twostage; "canonical" selects the reference KD-tree).
	DefaultBackend string
	// SessionTTL evicts sessions that have served no request for this
	// long (0 disables eviction). Sessions still processing queued
	// frames are never evicted, however long ago their last request was.
	SessionTTL time.Duration
	// AuthToken, when non-empty, requires `Authorization: Bearer <token>`
	// on every /v1/* endpoint (the minimal deployment guard the ROADMAP's
	// "serve lacks auth" follow-up asks for). /healthz stays open so
	// liveness probes need no credentials.
	AuthToken string
	// MaxPending, when > 0, bounds the total uncommitted frames across
	// all sessions: a push arriving with the backlog at the cap is
	// refused with 503 Service Unavailable instead of queueing behind an
	// unbounded wait. The response carries a Retry-After header and a
	// JSON body with the same estimate — derived from the observed
	// whole-frame p50 and the limiter capacity — so gateways and load
	// generators can back off on evidence rather than guesses.
	MaxPending int
	// Logger, when non-nil, receives one structured record per request
	// (method, route pattern, session id, status, bytes, duration). Routes
	// are normalized patterns, not raw paths, so log cardinality stays
	// bounded whatever clients send.
	Logger *slog.Logger
}

// Each session's flight recorder: span events retained in its ring, and
// slowest-K exemplars kept per stage. Tracing is always on — the recorder
// is allocation-free on the record path and deterministically inert, so
// there is no off switch to reason about.
const (
	flightRingEvents = 1024
	flightSlowestK   = 4
)

// session pairs an engine with its idle-eviction bookkeeping. lastUsed is
// guarded by the server mutex and bumped at the start of every request
// that touches the session.
type session struct {
	eng      *stream.Engine
	rec      *obs.Recorder       // per-session stage latencies, teed into the global recorder
	flight   *obs.FlightRecorder // bounded span ring behind /debug/trace/{id}
	trace    obs.TraceID         // the session's identity on every X-Tigris-Trace header
	lastUsed time.Time
}

// Server hosts the sessions. It implements http.Handler.
type Server struct {
	mux     *http.ServeMux
	limiter stream.Limiter
	cfg     Config

	// Telemetry: reg backs GET /metrics; globalRec is the published
	// recorder every session's recorder tees into, so /metrics carries
	// fleet-wide per-stage histograms while per-session percentiles go
	// out through the session's stats JSON.
	reg             *obs.Registry
	globalRec       *obs.Recorder
	cSessionsOpened *obs.Counter
	cSessionsClosed *obs.Counter
	cFramesPushed   *obs.Counter
	cPointsPushed   *obs.Counter
	cOverloadReject *obs.Counter

	mu       sync.Mutex
	sessions map[string]*session
	nextID   int

	stopJanitor chan struct{} // nil when SessionTTL is 0 or after Close
}

// New creates a server with an empty session table and, when
// Config.SessionTTL is set, starts the idle-eviction janitor (stopped by
// Close).
func New(cfg Config) *Server {
	reg := obs.NewRegistry()
	s := &Server{
		mux:             http.NewServeMux(),
		limiter:         stream.NewLimiter(par.Workers(cfg.MaxConcurrent)),
		cfg:             cfg,
		reg:             reg,
		globalRec:       obs.NewPublishedRecorder(reg, stageLatencyFamily),
		cSessionsOpened: reg.Counter("tigris_sessions_created_total"),
		cSessionsClosed: reg.Counter("tigris_sessions_closed_total"),
		cFramesPushed:   reg.Counter("tigris_frames_pushed_total"),
		cPointsPushed:   reg.Counter("tigris_points_pushed_total"),
		cOverloadReject: reg.Counter("tigris_overload_rejected_total"),
		sessions:        make(map[string]*session),
	}
	// Scrape-time gauges: live values owned by the session table and the
	// limiter, computed fresh per scrape instead of mirrored on writes.
	reg.GaugeFunc("tigris_sessions_active", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.sessions))
	})
	reg.GaugeFunc("tigris_frames_pending", func() float64 {
		var n int
		for _, ses := range s.snapshotSessions() {
			n += ses.eng.Pending()
		}
		return float64(n)
	})
	reg.GaugeFunc("tigris_loop_closures_accepted", s.sumSessionStats(func(st stream.Stats) int64 { return st.Loop.Accepted }))
	// What share of its targets fine-tuning touched: normals estimated
	// over target points, across the live sessions' odometry pairs.
	reg.GaugeFunc("tigris_fine_normals_estimated", s.sumSessionStats(func(st stream.Stats) int64 { return st.FineNormals }))
	reg.GaugeFunc("tigris_fine_target_points", s.sumSessionStats(func(st stream.Stats) int64 { return st.FineTargetPoints }))
	reg.GaugeFunc("tigris_limiter_in_use", func() float64 { return float64(len(s.limiter)) })
	reg.GaugeFunc("tigris_limiter_capacity", func() float64 { return float64(cap(s.limiter)) })
	// The limiter admits stages; how wide an admitted stage runs is the
	// process's slot budget (internal/par), shared by every server in it.
	reg.GaugeFunc("tigris_par_slots", func() float64 { return float64(par.Slots()) })
	reg.GaugeFunc("tigris_par_slots_in_use", func() float64 { return float64(par.SlotsInUse()) })
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.reg.WritePrometheus(w)
	})
	s.mux.HandleFunc("GET /v1/backends", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]any{"backends": search.Backends()})
	})
	s.mux.HandleFunc("GET /v1/buildinfo", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, BuildInfo())
	})
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	s.mux.HandleFunc("POST /v1/sessions/{id}/frames", s.withSession(s.handlePush))
	s.mux.HandleFunc("GET /v1/sessions/{id}/trajectory", s.withSession(s.handleTrajectory))
	s.mux.HandleFunc("GET /v1/sessions/{id}/loops", s.withSession(s.handleLoops))
	s.mux.HandleFunc("GET /v1/sessions/{id}/stats", s.withSession(s.handleStats))
	s.mux.HandleFunc("GET /debug/trace/{id}", s.withSession(s.handleTrace))
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	if cfg.SessionTTL > 0 {
		s.stopJanitor = make(chan struct{})
		go s.janitor(s.stopJanitor)
	}
	return s
}

// snapshotSessions copies the live session pointers so scrape-time
// aggregation can query engines without holding the server mutex.
func (s *Server) snapshotSessions() []*session {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*session, 0, len(s.sessions))
	for _, ses := range s.sessions {
		out = append(out, ses)
	}
	return out
}

// BuildInfo reports the running binary's identity from the embedded
// build metadata: module path and version, Go toolchain, and — when the
// binary was built inside a checkout — VCS revision, commit time, and
// dirty flag. Served on GET /v1/buildinfo and printed by `tigris-serve
// -version`.
func BuildInfo() map[string]any {
	out := map[string]any{
		"go": runtime.Version(),
	}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	out["module"] = bi.Main.Path
	if bi.Main.Version != "" {
		out["version"] = bi.Main.Version
	}
	for _, st := range bi.Settings {
		switch st.Key {
		case "vcs.revision":
			out["revision"] = st.Value
		case "vcs.time":
			out["vcs_time"] = st.Value
		case "vcs.modified":
			out["dirty"] = st.Value == "true"
		}
	}
	return out
}

// StatusWriter captures the response status and body size for the
// request log and the per-route request counter (the worker's and the
// gateway's). Initialize Status to http.StatusOK: a handler that never
// calls WriteHeader answered 200.
type StatusWriter struct {
	http.ResponseWriter
	Status int
	Bytes  int
}

func (sw *StatusWriter) WriteHeader(code int) {
	sw.Status = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *StatusWriter) Write(p []byte) (int, error) {
	n, err := sw.ResponseWriter.Write(p)
	sw.Bytes += n
	return n, err
}

// routeLabel normalizes a request path to its route pattern plus the
// session id (empty when the route has none). Patterns — never raw
// paths — feed the request counter's route label and the request log, so
// label cardinality stays bounded whatever clients send.
func routeLabel(path string) (route, sessionID string) {
	switch path {
	case "/healthz", "/metrics", "/v1/backends", "/v1/buildinfo", "/v1/sessions":
		return path, ""
	}
	if rest, ok := strings.CutPrefix(path, "/v1/sessions/"); ok {
		id, sub, _ := strings.Cut(rest, "/")
		switch sub {
		case "":
			return "/v1/sessions/{id}", id
		case "frames", "trajectory", "loops", "stats":
			return "/v1/sessions/{id}/" + sub, id
		}
	}
	if id, ok := strings.CutPrefix(path, "/debug/trace/"); ok && !strings.Contains(id, "/") {
		return "/debug/trace/{id}", id
	}
	return "other", ""
}

// ServeHTTP implements http.Handler: bearer-token auth on the /v1/*
// surface when Config.AuthToken is set (with /healthz and /metrics left
// open for probes and scrapers), a per-route/status request counter on
// the metrics registry, and one structured log record per request when
// Config.Logger is set.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sw := &StatusWriter{ResponseWriter: w, Status: http.StatusOK}
	s.serveAuthed(sw, r)
	route, sid := routeLabel(r.URL.Path)
	s.reg.Counter(`tigris_http_requests_total{route="` + route + `",code="` + strconv.Itoa(sw.Status) + `"}`).Inc()
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info("request",
			"method", r.Method,
			"route", route,
			"session", sid,
			"status", sw.Status,
			"bytes", sw.Bytes,
			"duration_ms", float64(time.Since(start).Microseconds())/1e3,
		)
	}
}

// serveAuthed enforces the bearer-token gate, then routes.
func (s *Server) serveAuthed(w http.ResponseWriter, r *http.Request) {
	if s.cfg.AuthToken != "" && strings.HasPrefix(r.URL.Path, "/v1/") && !BearerOK(r, s.cfg.AuthToken) {
		w.Header().Set("WWW-Authenticate", `Bearer realm="tigris"`)
		HTTPError(w, http.StatusUnauthorized, "missing or invalid bearer token")
		return
	}
	s.mux.ServeHTTP(w, r)
}

// BearerOK reports whether the request carries `Authorization: Bearer
// <token>`, compared in constant time.
func BearerOK(r *http.Request, token string) bool {
	got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	return ok && subtle.ConstantTimeCompare([]byte(got), []byte(token)) == 1
}

// Drain blocks until every live session has committed all pushed frames
// (and finished any queued loop-closure verifications). Graceful
// shutdown calls it after the HTTP listener stops accepting requests, so
// in-flight work lands in trajectories before Close tears the engines
// down — the worker half of the gateway's drain/re-shard story.
func (s *Server) Drain() {
	for _, ses := range s.snapshotSessions() {
		ses.eng.Drain()
	}
}

// Close stops the janitor and shuts every session down (used by tests and
// graceful shutdown).
func (s *Server) Close() {
	s.mu.Lock()
	if s.stopJanitor != nil {
		close(s.stopJanitor)
		s.stopJanitor = nil
	}
	engines := make([]*stream.Engine, 0, len(s.sessions))
	for _, ses := range s.sessions {
		engines = append(engines, ses.eng)
	}
	s.sessions = make(map[string]*session)
	s.mu.Unlock()
	for _, e := range engines {
		e.Close()
	}
}

// janitor periodically evicts idle sessions until Close.
func (s *Server) janitor(stop <-chan struct{}) {
	interval := s.cfg.SessionTTL / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-ticker.C:
			s.EvictIdle(now)
		}
	}
}

// EvictIdle closes and removes every session whose last request predates
// now − SessionTTL, returning the evicted ids. A session still working
// through queued frames is busy on the client's behalf, not idle —
// pipelined pushes return before the work is done — so sessions with
// uncommitted frames are skipped (this also keeps the sweep from
// blocking on a mid-drain Close). A no-op when SessionTTL is 0. Exposed
// so deployments (and tests) can force a sweep.
func (s *Server) EvictIdle(now time.Time) []string {
	if s.cfg.SessionTTL <= 0 {
		return nil
	}
	cutoff := now.Add(-s.cfg.SessionTTL)
	s.mu.Lock()
	var ids []string
	var engines []*stream.Engine
	for id, ses := range s.sessions {
		if ses.lastUsed.Before(cutoff) && ses.eng.Pending() == 0 {
			ids = append(ids, id)
			engines = append(engines, ses.eng)
			delete(s.sessions, id)
		}
	}
	s.mu.Unlock()
	for _, e := range engines {
		e.Close()
		s.cSessionsClosed.Inc()
	}
	return ids
}

// sessionRequest is the JSON body of POST /v1/sessions. All fields are
// optional; the zero value yields the balanced DP5 design point on the
// server's default backend with pipelining on. Unknown fields are a 400.
type sessionRequest struct {
	// Backend is a registry search-backend name (GET /v1/backends lists
	// them).
	Backend string `json:"backend"`
	// BackendOptions carries backend-specific options (e.g.
	// {"top_height": 8, "nn_threshold": 1.0}); unknown keys are a 400, and
	// so is "parallelism" (the worker count is the field below).
	BackendOptions map[string]any `json:"backend_options"`
	// DesignPoint picks a base configuration, "DP1".."DP8" (default DP5).
	DesignPoint string `json:"design_point"`
	// Parallelism pins the per-stage batch worker count (0 = server
	// default, 1 = sequential, negative a 400; capped at the worker's
	// slot budget).
	Parallelism int `json:"parallelism"`
	// Pipelined overlaps a frame's front-end with the previous pair's
	// fine-tuning (default true; explicit false disables).
	Pipelined *bool `json:"pipelined"`
	// VoxelLeaf overrides the front-end downsampling leaf (< 0 disables
	// downsampling; 0 keeps the design point's value).
	VoxelLeaf *float64 `json:"voxel_leaf"`
	// Loop enables and tunes the SLAM layer's loop-closure stage.
	Loop *loopRequest `json:"loop"`
	// Origin, when set, anchors the session's first frame at the given
	// absolute pose instead of identity. The fleet gateway uses this to
	// re-shard a session under drain: the replacement session on the new
	// worker is created with origin = the last committed pose of its
	// predecessor, so the stitched trajectory stays continuous.
	Origin *wireTransform `json:"origin"`
}

// loopRequest is the JSON shape of the session's loop-closure options.
// Zero fields select the internal/loop defaults. Note that an enabled
// loop stage retains what verification aligns of every pushed frame —
// its raw float32 points, key-point positions and descriptors, 12 B a
// point plus ≈ 11 KB — so session memory grows with stream length.
type loopRequest struct {
	Enabled bool `json:"enabled"`
	// Backend names the signature-index search backend ("" = the
	// pipeline's default).
	Backend string `json:"backend"`
	// MinSeparation is the temporal gate in frames.
	MinSeparation int `json:"min_separation"`
	// MaxCandidates bounds proposals per frame.
	MaxCandidates int `json:"max_candidates"`
	// Cooldown suppresses proposals after an accepted closure.
	Cooldown int `json:"cooldown"`
	// EdgeWeight scales loop edges against odometry edges in the
	// optimized pose graph.
	EdgeWeight float64 `json:"edge_weight"`
}

// loopConfig resolves the request to the engine's loop configuration,
// validating the backend selection at the boundary (stream.New panics on
// invalid loop configs by contract).
func (lr *loopRequest) loopConfig() (*loop.Config, float64, error) {
	if lr == nil || !lr.Enabled {
		return nil, 0, nil
	}
	// The detector's defaults only replace zero values, so negative
	// knobs would disable the temporal gate/cooldown outright (every
	// frame verified against its predecessor); reject them here.
	if lr.MinSeparation < 0 || lr.MaxCandidates < 0 || lr.Cooldown < 0 || lr.EdgeWeight < 0 {
		return nil, 0, fmt.Errorf("loop options must be non-negative")
	}
	cfg := &loop.Config{
		Backend:       lr.Backend,
		MinSeparation: lr.MinSeparation,
		MaxCandidates: lr.MaxCandidates,
		Cooldown:      lr.Cooldown,
	}
	if err := cfg.Validate(); err != nil {
		return nil, 0, err
	}
	return cfg, lr.EdgeWeight, nil
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var body io.Reader
	if r.Body != nil {
		body = http.MaxBytesReader(w, r.Body, 1<<20)
	}
	scfg, err := s.resolveSession(body)
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The session records stage latencies into its own recorder (read
	// back as latency_ms on the stats endpoint) teed into the global
	// published recorder, so /metrics aggregates across sessions without
	// per-session label cardinality.
	rec := obs.NewRecorder().Tee(s.globalRec)
	scfg.Pipeline.Obs = rec
	// The session's trace id: adopted from an inbound W3C traceparent
	// (the gateway propagates one per g-session) or minted fresh, stamped
	// on every span the flight recorder retains and echoed on every
	// response's X-Tigris-Trace header.
	trace, ok := obs.ParseTraceParent(r.Header.Get("traceparent"))
	if !ok {
		trace = obs.NewTraceID()
	}
	flight := obs.NewFlightRecorder(flightRingEvents, flightSlowestK)
	scfg.Limiter, scfg.Flight, scfg.Trace = s.limiter, flight, trace
	eng := stream.New(scfg)

	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("s%d", s.nextID)
	s.sessions[id] = &session{eng: eng, rec: rec, flight: flight, trace: trace, lastUsed: time.Now()}
	s.mu.Unlock()
	s.cSessionsOpened.Inc()

	w.Header().Set("X-Tigris-Trace", trace.String())
	WriteJSON(w, http.StatusCreated, map[string]any{
		"id":        id,
		"pipelined": scfg.Pipelined,
		"backend":   scfg.Pipeline.Searcher.BackendName(),
		"loop":      scfg.Loop != nil,
		"trace":     trace.String(),
	})
}

// resolveSession decodes a create request's JSON body (nil or empty: every
// default) and resolves it to the engine config it asks for, all but the
// server-side fields (Limiter, Flight, Trace, Pipeline.Obs). Every error
// is the client's (a 400) and names what is wrong; nothing is started, so
// a fuzz target can call it.
func (s *Server) resolveSession(body io.Reader) (stream.Config, error) {
	var req sessionRequest
	if body != nil {
		// A misspelled or retired key is a 400 naming the field, never
		// silently a default session.
		dec := json.NewDecoder(body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
			return stream.Config{}, fmt.Errorf("bad session config: %v", err)
		}
	}
	cfg, err := s.pipelineConfig(req)
	if err != nil {
		return stream.Config{}, err
	}
	loopCfg, loopWeight, err := req.Loop.loopConfig()
	if err != nil {
		return stream.Config{}, fmt.Errorf("loop config: %v", err)
	}
	scfg := stream.Config{
		Pipeline:       cfg,
		Pipelined:      req.Pipelined == nil || *req.Pipelined,
		Loop:           loopCfg,
		LoopEdgeWeight: loopWeight,
	}
	if req.Origin != nil {
		tr, err := req.Origin.rigid()
		if err != nil {
			return stream.Config{}, err
		}
		scfg.Origin = &tr
	}
	return scfg, nil
}

// pipelineConfig resolves a session request to a registration config.
func (s *Server) pipelineConfig(req sessionRequest) (registration.PipelineConfig, error) {
	name := req.DesignPoint
	if name == "" {
		name = "DP5"
	}
	var cfg registration.PipelineConfig
	found := false
	for _, dp := range dse.NamedDesignPoints() {
		if dp.Name == name {
			cfg = dp.Config
			found = true
			break
		}
	}
	if !found {
		return cfg, fmt.Errorf("unknown design point %q (want DP1..DP8)", name)
	}
	cfg.Searcher.Backend = req.Backend
	if cfg.Searcher.Backend == "" {
		cfg.Searcher.Backend = s.cfg.DefaultBackend
	}
	if req.BackendOptions != nil {
		cfg.Searcher.Options = search.Options(req.BackendOptions)
	}
	switch {
	case req.Parallelism < 0:
		return cfg, fmt.Errorf("parallelism %d: want 0 (the server default) or a worker count", req.Parallelism)
	case req.Parallelism > 0:
		cfg.Searcher.Parallelism = req.Parallelism
	case s.cfg.Parallelism > 0:
		cfg.Searcher.Parallelism = s.cfg.Parallelism
	}
	// Per-worker state (batch arenas, approximate sessions, feature
	// scratch) is sized by the width asked for and no loop is granted more
	// than the slot budget, so a width off the wire stops there.
	if cfg.Searcher.Parallelism > par.Slots() {
		cfg.Searcher.Parallelism = par.Slots()
	}
	// A worker count under backend_options is refused (400): the session
	// has one, the top-level parallelism.
	if err := cfg.Searcher.Validate(); err != nil {
		return cfg, err
	}
	if req.VoxelLeaf != nil {
		if *req.VoxelLeaf < 0 {
			cfg.VoxelLeaf = 0
		} else if *req.VoxelLeaf > 0 {
			cfg.VoxelLeaf = *req.VoxelLeaf
		}
	}
	return cfg, nil
}

// withSession resolves the {id} path segment to its session, bumping the
// session's idle-eviction clock.
func (s *Server) withSession(fn func(http.ResponseWriter, *http.Request, *session)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		ses, ok := s.sessions[r.PathValue("id")]
		if ok {
			ses.lastUsed = time.Now()
		}
		s.mu.Unlock()
		if !ok {
			HTTPError(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
			return
		}
		// Every session-scoped response carries the session's trace id, so
		// any client (loadgen, the gateway, a curl) can jump from a slow
		// response to its span tree on /debug/trace/{id}.
		w.Header().Set("X-Tigris-Trace", ses.trace.String())
		fn(w, r, ses)
	}
}

// totalPending sums uncommitted frames across every live session.
func (s *Server) totalPending() int {
	var n int
	for _, ses := range s.snapshotSessions() {
		n += ses.eng.Pending()
	}
	return n
}

// retryAfterSeconds estimates how long a refused client should wait
// before retrying: the time for the limiter to work the backlog down to
// half the cap at the observed whole-frame p50 (1 s when no frame has
// been measured yet), clamped to [1 s, 60 s].
func (s *Server) retryAfterSeconds(pending int) int {
	capacity := cap(s.limiter)
	if capacity < 1 {
		capacity = 1
	}
	p50 := time.Second
	if sum, ok := s.globalRec.Summaries()[obs.StageFrame]; ok && sum.P50 > 0 {
		p50 = sum.P50
	}
	excess := pending - s.cfg.MaxPending/2
	if excess < 1 {
		excess = 1
	}
	secs := int(math.Ceil(p50.Seconds() * float64(excess) / float64(capacity)))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// WriteOverload emits the shared overload-rejection shape: a Retry-After
// header plus a JSON body repeating the estimate, so gateway retry and
// loadgen backoff can be driven by the server's own backlog model. The
// gateway's admission 429s and no-worker 503s use it too.
func WriteOverload(w http.ResponseWriter, status, retrySecs int, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(retrySecs))
	WriteJSON(w, status, map[string]any{
		"error":               fmt.Sprintf(format, args...),
		"retry_after_seconds": retrySecs,
	})
}

func (s *Server) handlePush(w http.ResponseWriter, r *http.Request, ses *session) {
	eng := ses.eng
	if s.cfg.MaxPending > 0 {
		if pending := s.totalPending(); pending >= s.cfg.MaxPending {
			s.cOverloadReject.Inc()
			WriteOverload(w, http.StatusServiceUnavailable, s.retryAfterSeconds(pending),
				"server overloaded: %d frames pending (cap %d)", pending, s.cfg.MaxPending)
			return
		}
	}
	f, err := cloud.ReadSlab(http.MaxBytesReader(w, r.Body, maxFrameBytes))
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "bad frame: %v", err)
		return
	}
	start := time.Now()
	n := f.Len()
	idx, err := eng.PushSlab(f)
	if err != nil {
		HTTPError(w, http.StatusConflict, "%v", err)
		return
	}
	s.cFramesPushed.Inc()
	s.cPointsPushed.Add(int64(n))
	resp := map[string]any{"frame": idx, "points": n}
	if wantWait(r) {
		eng.Drain()
		if fr, ok := eng.Frame(idx); ok {
			resp["pose"] = wireTransformOf(fr.Pose)
			resp["delta"] = wireTransformOf(fr.Delta)
		}
		resp["wall_ms"] = float64(time.Since(start).Microseconds()) / 1e3
	}
	WriteJSON(w, http.StatusAccepted, resp)
}

func (s *Server) handleTrajectory(w http.ResponseWriter, r *http.Request, ses *session) {
	eng := ses.eng
	if wantWait(r) {
		eng.Drain()
	}
	traj := eng.Trajectory()
	resp := trajectoryResponse(traj)
	if optimized, _ := strconv.ParseBool(r.URL.Query().Get("optimized")); optimized {
		if traj.Len() > maxOptimizeFrames {
			HTTPError(w, http.StatusUnprocessableEntity,
				"session has %d frames; the dense pose-graph solver is capped at %d", traj.Len(), maxOptimizeFrames)
			return
		}
		// Pose-graph optimization over the session's odometry chain plus
		// its verified loop edges. Cheap for the no-closure case (the
		// graph is consistent); callers wanting every queued frame
		// reflected combine with ?wait=1. The solve is a heavy stage like
		// any other — it is admitted by the shared limiter, so
		// -max-concurrent governs it too, and the engine takes its slot and
		// runs it at the session's own parallelism.
		s.limiter.Acquire()
		poses, res, err := eng.OptimizedPoses()
		s.limiter.Release()
		if err != nil {
			HTTPError(w, http.StatusInternalServerError, "optimize: %v", err)
			return
		}
		opt := make([]wireTransform, len(poses))
		for i, p := range poses {
			opt[i] = wireTransformOf(p)
		}
		resp["optimized"] = opt
		resp["optimization"] = map[string]any{
			"initial_cost": res.InitialCost,
			"final_cost":   res.FinalCost,
			"iterations":   res.Iterations,
			"converged":    res.Converged,
		}
	}
	WriteJSON(w, http.StatusOK, resp)
}

// wireClosure is one verified loop closure in the loops response.
type wireClosure struct {
	From            int           `json:"from"`
	To              int           `json:"to"`
	Delta           wireTransform `json:"delta"`
	Inliers         int           `json:"inliers"`
	Correspondences int           `json:"correspondences"`
	RMSE            float64       `json:"rmse"`
	SignatureDist   float64       `json:"signature_dist"`
}

func (s *Server) handleLoops(w http.ResponseWriter, r *http.Request, ses *session) {
	eng := ses.eng
	if wantWait(r) {
		eng.Drain()
	}
	closures := eng.Closures()
	out := make([]wireClosure, len(closures))
	for i, cl := range closures {
		out[i] = wireClosure{
			From:            cl.From,
			To:              cl.To,
			Delta:           wireTransformOf(cl.Delta),
			Inliers:         cl.Inliers,
			Correspondences: cl.Correspondences,
			RMSE:            cl.RMSE,
			SignatureDist:   cl.SigDist,
		}
	}
	st := eng.Stats()
	WriteJSON(w, http.StatusOK, map[string]any{
		"closures": out,
		"stats": map[string]any{
			"observed": st.Loop.Observed,
			"proposed": st.Loop.Proposed,
			"verified": st.Loop.Verified,
			"accepted": st.Loop.Accepted,
			"loop_ms":  float64(st.LoopTime.Microseconds()) / 1e3,
		},
	})
}

// wireLatency is one stage's latency digest in the stats response.
type wireLatency struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// latencyDigest renders a recorder's per-stage summaries as
// milliseconds, keyed by obs stage name.
func latencyDigest(rec *obs.Recorder) map[string]wireLatency {
	sums := rec.Summaries()
	out := make(map[string]wireLatency, len(sums))
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	for stage, sum := range sums {
		out[stage] = wireLatency{
			Count: sum.Count,
			P50:   ms(sum.P50),
			P95:   ms(sum.P95),
			P99:   ms(sum.P99),
			Max:   ms(sum.Max),
		}
	}
	return out
}

// sumSessionStats returns a scrape-time gauge: one counter of the engine
// stats, summed over the live sessions.
func (s *Server) sumSessionStats(pick func(stream.Stats) int64) func() float64 {
	return func() float64 {
		var n int64
		for _, ses := range s.snapshotSessions() {
			n += pick(ses.eng.Stats())
		}
		return float64(n)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, ses *session) {
	st := ses.eng.Stats()
	WriteJSON(w, http.StatusOK, map[string]any{
		"frames_pushed":      st.FramesPushed,
		"frames_prepared":    st.FramesPrepared,
		"pairs_aligned":      st.PairsAligned,
		"tree_builds":        st.TreeBuilds,
		"descriptor_builds":  st.DescriptorBuilds,
		"fine_normals":       st.FineNormals,
		"fine_target_points": st.FineTargetPoints,
		"search_queries":     st.Search.Queries,
		"nodes_visited":      st.Search.NodesVisited,
		"search_ms":          float64(st.Search.SearchTime.Microseconds()) / 1e3,
		"build_ms":           float64(st.Search.BuildTime.Microseconds()) / 1e3,
		"loops_proposed":     st.Loop.Proposed,
		"loops_verified":     st.Loop.Verified,
		"loops_accepted":     st.Loop.Accepted,
		"loop_ms":            float64(st.LoopTime.Microseconds()) / 1e3,
		"latency_ms":         latencyDigest(ses.rec),
	})
}

// handleTrace exports the session's retained span tree as Chrome
// trace-event JSON: the flight-recorder ring plus the slowest-K
// exemplar subtrees (which survive ring wrap), sorted by timestamp.
// Load the document in Perfetto (ui.perfetto.dev → "Open trace file")
// or chrome://tracing to see each frame's stage tree on its own track.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request, ses *session) {
	w.Header().Set("Content-Type", "application/json")
	meta := map[string]any{
		"session":  r.PathValue("id"),
		"trace_id": ses.trace.String(),
		"frames":   ses.eng.Trajectory().Len(),
	}
	_ = obs.WriteChromeTrace(w, ses.flight.Export(), meta)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	ses, ok := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if !ok {
		HTTPError(w, http.StatusNotFound, "no session %q", id)
		return
	}
	ses.eng.Close()
	s.cSessionsClosed.Inc()
	WriteJSON(w, http.StatusOK, map[string]any{"id": id, "frames": ses.eng.Trajectory().Len()})
}

// --- wire types ---------------------------------------------------------

// wireTransform is the JSON shape of a rigid transform: row-major 3×3
// rotation plus translation.
type wireTransform struct {
	R [9]float64 `json:"r"`
	T [3]float64 `json:"t"`
}

func wireTransformOf(tr geom.Transform) wireTransform {
	return wireTransform{R: [9]float64(tr.R), T: [3]float64{tr.T.X, tr.T.Y, tr.T.Z}}
}

// rigid converts a session origin from the wire shape back to a
// geom.Transform (the inverse of wireTransformOf) and refuses one that is
// not a rigid motion: every pose of the session is multiplied by it, and
// "origin": {} would otherwise be the zero matrix. R is held to the
// tolerance rigidFromStats holds a solved rotation to.
func (wt wireTransform) rigid() (geom.Transform, error) {
	tr := geom.Transform{R: geom.Mat3(wt.R), T: geom.Vec3{X: wt.T[0], Y: wt.T[1], Z: wt.T[2]}}
	if !tr.R.IsRotation(1e-6) {
		return geom.Transform{}, fmt.Errorf("origin: r %v is not a rotation matrix", wt.R)
	}
	if !tr.T.IsFinite() {
		return geom.Transform{}, fmt.Errorf("origin: t %v is not finite", wt.T)
	}
	return tr, nil
}

// wireFrame is one frame's record in the trajectory response.
type wireFrame struct {
	Index   int           `json:"index"`
	Delta   wireTransform `json:"delta"`
	Pose    wireTransform `json:"pose"`
	PrepMs  float64       `json:"prep_ms"`
	AlignMs float64       `json:"align_ms"`
	// ICP convergence of the pair that produced Delta (frame 0: zeros).
	Iterations int     `json:"icp_iterations"`
	RMSE       float64 `json:"icp_rmse"`
}

func trajectoryResponse(traj stream.Trajectory) map[string]any {
	frames := make([]wireFrame, len(traj.Frames))
	for i, fr := range traj.Frames {
		frames[i] = wireFrame{
			Index:      fr.Index,
			Delta:      wireTransformOf(fr.Delta),
			Pose:       wireTransformOf(fr.Pose),
			PrepMs:     float64(fr.PrepTime.Microseconds()) / 1e3,
			AlignMs:    float64(fr.AlignTime.Microseconds()) / 1e3,
			Iterations: fr.Reg.ICP.Iterations,
			RMSE:       fr.Reg.ICP.FinalRMSE,
		}
	}
	return map[string]any{"frames": len(frames), "trajectory": frames}
}

func wantWait(r *http.Request) bool {
	v, _ := strconv.ParseBool(r.URL.Query().Get("wait"))
	return v
}

// WriteJSON answers with status and v encoded as JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// HTTPError answers with status and {"error": <formatted message>}.
func HTTPError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
