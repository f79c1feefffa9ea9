// Command tigris-gateway runs the fleet front door: a reverse proxy
// that places tigris-serve sessions on the least-loaded of N worker
// processes, with per-client token-bucket admission control, worker
// health checking with graceful drain/re-shard, and TLS termination.
//
// Usage:
//
//	tigris-gateway -workers URL[,URL...] [-addr :8088]
//	               [-admit-rate R] [-admit-burst B]
//	               [-health-interval D] [-auth-token TOKEN]
//	               [-worker-auth-token TOKEN]
//	               [-tls-cert CERT.pem -tls-key KEY.pem]
//	               [-log-format text|json]
//
// -workers lists the worker base URLs (comma-separated; at least one).
// A session goes to the worker with the fewest pending frames, as
// polled every -health-interval (see internal/gateway). -admit-rate
// grants each client that many session-creates/frame-pushes per second
// (token bucket of capacity -admit-burst); refusals are 429 with
// Retry-After. -auth-token gates the mutating /gateway/* admin surface;
// client bearer tokens for /v1/* pass through to the workers, and
// -worker-auth-token is what the gateway itself presents on migration
// traffic when workers run with -auth-token. -tls-cert/-tls-key
// terminate TLS at the gateway, so plain-HTTP workers can stay on a
// private network behind an encrypted front door.
//
// Operations:
//
//	curl localhost:8088/gateway/workers          # fleet status
//	curl -X POST 'localhost:8088/gateway/drain?worker=0'
//	                                             # migrate sessions off worker 0
//	curl -X DELETE 'localhost:8088/gateway/drain?worker=0'
//	                                             # re-admit worker 0 after its restart
//	curl localhost:8088/metrics                  # gateway telemetry
//	curl localhost:8088/gateway/decisions        # routing-decision trace
//	curl localhost:8088/gateway/trace/g1         # stitched session trace (Chrome JSON)
//	curl localhost:8088/gateway/buildinfo        # gateway build identity
//
// -version prints the same build info to stdout and exits. On
// SIGTERM/SIGINT the gateway shuts its listener down gracefully;
// sessions keep living on the workers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"tigris/internal/gateway"
	"tigris/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8088", "listen address")
	workers := flag.String("workers", "", "comma-separated worker base URLs (required)")
	admitRate := flag.Float64("admit-rate", 0, "per-client admitted requests/sec (token bucket; 0 = admission off)")
	admitBurst := flag.Int("admit-burst", 0, "admission bucket capacity (0 = max(1, ceil(rate)))")
	healthInterval := flag.Duration("health-interval", 2*time.Second, "worker health-check and load-poll period (0 = off)")
	authToken := flag.String("auth-token", "", "require this bearer token on the /gateway/* admin surface")
	workerAuthToken := flag.String("worker-auth-token", "", "bearer token the gateway presents to workers on migration traffic")
	tlsCert := flag.String("tls-cert", "", "PEM server certificate; terminate TLS at the gateway (requires -tls-key)")
	tlsKey := flag.String("tls-key", "", "PEM private key matching -tls-cert")
	logFormat := flag.String("log-format", "text", "request log encoding on stderr: text or json")
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

	if *workers == "" {
		serve.Fatal(logger, "missing -workers", fmt.Errorf("at least one worker URL is required"))
	}
	tlsCfg := serve.TLSConfig{CertFile: *tlsCert, KeyFile: *tlsKey}
	if err := tlsCfg.Validate(); err != nil {
		serve.Fatal(logger, "invalid TLS config", err)
	}

	gw, err := gateway.New(gateway.Config{
		Workers:         splitList(*workers),
		AdmitRate:       *admitRate,
		AdmitBurst:      *admitBurst,
		HealthInterval:  *healthInterval,
		AuthToken:       *authToken,
		WorkerAuthToken: *workerAuthToken,
		Logger:          logger,
	})
	if err != nil {
		serve.Fatal(logger, "gateway config", err)
	}
	defer gw.Close()

	logger.Info("gateway listening",
		"addr", *addr, "workers", splitList(*workers), "tls", tlsCfg.Enabled())
	if err := tlsCfg.ListenAndServe(*addr, gw, logger, nil); err != nil {
		serve.Fatal(logger, "gateway exited", err)
	}
}

// splitList splits a comma-separated flag, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
