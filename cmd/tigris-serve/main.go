// Command tigris-serve runs the streaming registration service: a
// net/http server hosting concurrent multi-user odometry sessions. Each
// session owns a long-running engine (internal/stream) that prepares
// every pushed frame's front-end exactly once and pipelines it against
// the previous pair's fine-tuning; a server-level limiter caps total
// concurrency across sessions.
//
// Usage:
//
//	tigris-serve [-addr :8089] [-parallel N] [-max-concurrent N]
//	             [-backend NAME] [-session-ttl D] [-auth-token TOKEN]
//	             [-max-pending N]
//	             [-tls-cert CERT.pem -tls-key KEY.pem]
//	             [-log-format text|json] [-pprof-addr ADDR]
//	tigris-serve -selftest [-backend NAME]
//	tigris-serve -version
//
// -backend sets the default search backend (a registry name, see GET
// /v1/backends) for sessions that do not pick their own; -session-ttl
// evicts sessions idle longer than the given duration (e.g. 30m; 0 keeps
// sessions forever); -auth-token requires `Authorization: Bearer TOKEN`
// on every /v1/* endpoint (/healthz and /metrics stay open for probes
// and scrapers); -max-pending refuses frame pushes with 503 Service
// Unavailable (Retry-After header + JSON body) once that many frames
// are queued across all sessions, so fleet gateways and load generators
// get a principled backoff signal instead of unbounded queueing;
// -tls-cert and -tls-key (both required together) serve HTTPS with the
// given PEM material — the pair is validated before the socket binds.
//
// On SIGTERM or SIGINT the server shuts down gracefully: the listener
// stops accepting requests, in-flight requests finish, every session's
// queued frames are drained to committed trajectory state, and only
// then do the engines stop — the worker lifecycle a fleet gateway's
// drain/re-shard path depends on.
//
// Observability: Prometheus metrics are always on at GET /metrics
// (per-stage latency histograms, request/session/frame counters,
// limiter gauges — see internal/serve). -log-format selects the
// structured request-log encoding on stderr (text by default; json for
// log shippers). -pprof-addr mounts net/http/pprof on a separate
// listener so profiling stays off the service port (and outside its
// auth/TLS story); leave it empty to keep profiling off. -version
// prints the binary's embedded build/VCS identity (also served at GET
// /v1/buildinfo) and exits.
//
// Session lifecycle (see internal/serve for the endpoint contract):
//
//	curl localhost:8089/v1/backends
//	curl -X POST localhost:8089/v1/sessions -d '{"backend":"twostage-approx"}'
//	curl -X POST --data-binary @frame0.cloud localhost:8089/v1/sessions/s1/frames
//	curl -X POST --data-binary @frame1.cloud localhost:8089/v1/sessions/s1/frames
//	curl 'localhost:8089/v1/sessions/s1/trajectory?wait=1'
//	curl -X DELETE localhost:8089/v1/sessions/s1
//
// -selftest starts the server on a loopback port, streams two synthetic
// LiDAR frames through the real HTTP surface — through the configured
// -backend (default: the non-default "canonical", so the registry path and
// the reference tree are always smoked) — verifies the trajectory, and
// exits non-zero on any failure (the CI smoke test).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"

	"tigris/internal/cloud"
	"tigris/internal/serve"
	"tigris/internal/synth"
)

func main() {
	addr := flag.String("addr", ":8089", "listen address")
	parallel := flag.Int("parallel", 0, "default per-stage batch worker count for sessions (0 = the slot budget, GOMAXPROCS)")
	maxConcurrent := flag.Int("max-concurrent", 0, "max concurrent heavy stages across all sessions (0 = the slot budget, GOMAXPROCS)")
	backend := flag.String("backend", "", "default search backend for sessions (registry name; \"\" = twostage, the pipeline's default; canonical is the reference KD-tree)")
	sessionTTL := flag.Duration("session-ttl", 0, "evict sessions idle longer than this (0 = never)")
	maxPending := flag.Int("max-pending", 0, "refuse frame pushes with 503 + Retry-After when this many frames are already pending (0 = never refuse)")
	authToken := flag.String("auth-token", "", "require this bearer token on every /v1/* endpoint (\"\" = open access)")
	tlsCert := flag.String("tls-cert", "", "PEM server certificate; serve HTTPS (requires -tls-key)")
	tlsKey := flag.String("tls-key", "", "PEM private key matching -tls-cert")
	logFormat := flag.String("log-format", "text", "request log encoding on stderr: text or json")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (\"\" = profiling off)")
	version := flag.Bool("version", false, "print build info (module, go toolchain, VCS revision) and exit")
	selftest := flag.Bool("selftest", false, "start on a loopback port, stream two synthetic frames over HTTP, verify, exit")
	flag.Parse()

	if *version {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(serve.BuildInfo())
		return
	}

	logger, err := serve.NewLogger(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	tlsCfg := serve.TLSConfig{CertFile: *tlsCert, KeyFile: *tlsKey}
	if err := tlsCfg.Validate(); err != nil {
		serve.Fatal(logger, "invalid TLS config", err)
	}

	srv := serve.New(serve.Config{
		MaxConcurrent:  *maxConcurrent,
		Parallelism:    *parallel,
		DefaultBackend: *backend,
		SessionTTL:     *sessionTTL,
		AuthToken:      *authToken,
		MaxPending:     *maxPending,
		Logger:         logger,
	})

	if *selftest {
		name := *backend
		if name == "" {
			name = "canonical" // smoke a non-default backend through the registry
		}
		if err := runSelftest(srv, name); err != nil {
			serve.Fatal(logger, "selftest FAILED", err)
		}
		fmt.Println("selftest ok")
		return
	}

	if *pprofAddr != "" {
		go servePprof(logger, *pprofAddr)
	}

	// Graceful shutdown: once SIGTERM/SIGINT has stopped the listener
	// (in-flight requests finish), drain every session's queued frames
	// before tearing the engines down — so a gateway draining this worker
	// sees all committed state land, never an abrupt kill.
	logger.Info("listening", "addr", *addr, "tls", tlsCfg.Enabled())
	err = tlsCfg.ListenAndServe(*addr, srv, logger, func() {
		logger.Info("draining sessions")
		srv.Drain()
		srv.Close()
		logger.Info("drained, exiting")
	})
	if err != nil {
		serve.Fatal(logger, "server exited", err)
	}
}

// servePprof mounts net/http/pprof on its own listener, keeping the
// profiling surface off the service port (and outside its auth story).
func servePprof(logger *slog.Logger, addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logger.Info("pprof listening", "addr", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Error("pprof listener exited", "error", err)
	}
}

// runSelftest exercises the service end to end over a real socket,
// streaming through the named search backend.
func runSelftest(srv *serve.Server, backend string) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go func() { _ = http.Serve(ln, srv) }()
	defer ln.Close()
	base := "http://" + ln.Addr().String()

	// Health.
	if err := expectStatus(http.Get(base + "/healthz")); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}

	// The registry must advertise the requested backend.
	resp, err := http.Get(base + "/v1/backends")
	if err != nil {
		return err
	}
	var reg struct {
		Backends []string `json:"backends"`
	}
	if err := decodeAndClose(resp, &reg); err != nil {
		return fmt.Errorf("backends: %w", err)
	}
	found := false
	for _, b := range reg.Backends {
		found = found || b == backend
	}
	if !found {
		return fmt.Errorf("backend %q not in registry %v", backend, reg.Backends)
	}
	fmt.Fprintf(os.Stderr, "backends: %v\n", reg.Backends)

	// Create the streaming session on the requested backend.
	resp, err = http.Post(base+"/v1/sessions", "application/json",
		bytes.NewReader([]byte(fmt.Sprintf(`{"backend":%q,"pipelined":true}`, backend))))
	if err != nil {
		return err
	}
	var created struct {
		ID      string `json:"id"`
		Backend string `json:"backend"`
	}
	if err := decodeAndClose(resp, &created); err != nil {
		return fmt.Errorf("create session: %w", err)
	}
	if created.ID == "" {
		return fmt.Errorf("create session: empty id")
	}
	if created.Backend != backend {
		return fmt.Errorf("session backend = %q, want %q", created.Backend, backend)
	}
	fmt.Fprintf(os.Stderr, "session %s created (backend %s)\n", created.ID, created.Backend)

	// Push two synthetic frames at the experiment scale (the quick test
	// scale is too sparse for a meaningful accuracy check).
	seq := synth.GenerateSequence(synth.EvalSequenceConfig(2, 2019))
	for i, f := range seq.Frames {
		var buf bytes.Buffer
		if err := cloud.Write(&buf, f); err != nil {
			return err
		}
		resp, err := http.Post(fmt.Sprintf("%s/v1/sessions/%s/frames", base, created.ID), "text/plain", &buf)
		if err != nil {
			return err
		}
		var pushed struct {
			Frame  int `json:"frame"`
			Points int `json:"points"`
		}
		if err := decodeAndClose(resp, &pushed); err != nil {
			return fmt.Errorf("push frame %d: %w", i, err)
		}
		if pushed.Frame != i || pushed.Points != f.Len() {
			return fmt.Errorf("push frame %d: got frame=%d points=%d", i, pushed.Frame, pushed.Points)
		}
		fmt.Fprintf(os.Stderr, "frame %d pushed (%d points)\n", pushed.Frame, pushed.Points)
	}

	// Trajectory must hold both frames with a finite, non-degenerate
	// odometry step close to the ground-truth motion.
	resp, err = http.Get(fmt.Sprintf("%s/v1/sessions/%s/trajectory?wait=1", base, created.ID))
	if err != nil {
		return err
	}
	var traj struct {
		Frames     int `json:"frames"`
		Trajectory []struct {
			Delta struct {
				R [9]float64 `json:"r"`
				T [3]float64 `json:"t"`
			} `json:"delta"`
		} `json:"trajectory"`
	}
	if err := decodeAndClose(resp, &traj); err != nil {
		return fmt.Errorf("trajectory: %w", err)
	}
	if traj.Frames != 2 || len(traj.Trajectory) != 2 {
		return fmt.Errorf("trajectory has %d frames, want 2", traj.Frames)
	}
	d := traj.Trajectory[1].Delta
	truth := seq.GroundTruthDelta(0)
	stepErr := 0.0
	for k, v := range [3]float64{truth.T.X, truth.T.Y, truth.T.Z} {
		diff := d.T[k] - v
		stepErr += diff * diff
	}
	if stepErr > 0.5*0.5 {
		return fmt.Errorf("odometry step %v is >0.5 m from ground truth %v", d.T, truth.T)
	}
	fmt.Fprintf(os.Stderr, "odometry step %.3f m (truth %.3f m)\n",
		vecNorm(d.T), truth.TranslationNorm())

	// The stats endpoint must carry the per-stage latency digest for the
	// frames just pushed.
	resp, err = http.Get(fmt.Sprintf("%s/v1/sessions/%s/stats", base, created.ID))
	if err != nil {
		return err
	}
	var stats struct {
		FramesPushed int `json:"frames_pushed"`
		Latency      map[string]struct {
			Count int     `json:"count"`
			P99   float64 `json:"p99"`
		} `json:"latency_ms"`
	}
	if err := decodeAndClose(resp, &stats); err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if stats.FramesPushed != 2 {
		return fmt.Errorf("stats frames_pushed = %d, want 2", stats.FramesPushed)
	}
	if fl, ok := stats.Latency["frame"]; !ok || fl.Count != 2 {
		return fmt.Errorf("stats latency_ms missing frame digest (got %v)", stats.Latency)
	}
	fmt.Fprintf(os.Stderr, "stats: frame p99 %.3f ms over %d stages\n",
		stats.Latency["frame"].P99, len(stats.Latency))

	// The scrape surface must expose the same activity as Prometheus
	// series: counters, scrape-time gauges, and per-stage histograms.
	body, err := fetchText(base + "/metrics")
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	for _, want := range []string{
		"tigris_frames_pushed_total 2",
		"tigris_sessions_active 1",
		"\ntigris_par_slots ",
		"\ntigris_par_slots_in_use ",
		`tigris_stage_latency_seconds_bucket{stage="frame",le="+Inf"} 2`,
		`tigris_http_requests_total{route="/v1/sessions/{id}/frames",code="202"} 2`,
	} {
		if !strings.Contains(body, want) {
			return fmt.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
	fmt.Fprintf(os.Stderr, "metrics: %d lines\n", strings.Count(body, "\n"))

	// Build identity must round-trip.
	resp, err = http.Get(base + "/v1/buildinfo")
	if err != nil {
		return err
	}
	var bi struct {
		Go string `json:"go"`
	}
	if err := decodeAndClose(resp, &bi); err != nil {
		return fmt.Errorf("buildinfo: %w", err)
	}
	if bi.Go == "" {
		return fmt.Errorf("buildinfo: empty go toolchain")
	}
	fmt.Fprintf(os.Stderr, "buildinfo: %s\n", bi.Go)

	// Delete the session.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/sessions/%s", base, created.ID), nil)
	if err := expectStatus(http.DefaultClient.Do(req)); err != nil {
		return fmt.Errorf("delete: %w", err)
	}
	return nil
}

// fetchText GETs a URL and returns its body as a string.
func fetchText(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return "", fmt.Errorf("status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return "", err
	}
	return buf.String(), nil
}

func vecNorm(v [3]float64) float64 {
	return math.Sqrt(v[0]*v[0] + v[1]*v[1] + v[2]*v[2])
}

func expectStatus(resp *http.Response, err error) error {
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

func decodeAndClose(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
