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
// The HTTP surface is tested over httptest servers in internal/serve
// (go test ./internal/serve): every endpoint, and a pipelined session on a
// named backend streamed at the experiment scale.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"

	"tigris/internal/serve"
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
