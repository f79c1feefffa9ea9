// Command tigris-loadgen drives open-loop multi-client traffic against
// a tigris-serve worker or a tigris-gateway fleet and prints a JSON
// record of what the clients observed: sessions/sec, per-frame latency
// percentiles, admission rejections, and the per-worker load split.
//
// Usage:
//
//	tigris-loadgen -url http://gateway:8088 -sessions 100 -rate 5
//	tigris-loadgen -fleet 2 -sessions 20 -rate 10
//
// -url targets a running worker or gateway. -fleet N instead stands up
// a self-contained fleet in-process — N workers behind a least-loaded
// gateway — runs the load through it, and tears it down; CI uses this
// for a hermetic smoke test.
//
// -sessions is the total session count and -rate the mean arrival rate
// per second; arrivals are open loop (scheduled up front from a seeded
// Poisson process), so overload shows up as latency and rejections, not
// as a politely slowed client. -mix runs the built-in weighted scenario
// mix (compact/dense/loop-closure sessions); otherwise one profile built
// from -frames, -beams, -azimuth, and -loop is used. The same -seed
// reproduces the same schedule, mix, and synthetic frames.
//
// The JSON record goes to stdout, or to the file named by -out, tagged
// with -tag. It carries per-profile latency splits and trace-id
// exemplars: the slowest observations of each family with the
// X-Tigris-Trace id the fleet answered with, chaseable via
// /gateway/trace/{id}. -trace-out FILE additionally probes one traced
// session after the run and writes its stitched gateway trace (Chrome
// trace-event JSON, Perfetto-loadable). -version prints build info and
// exits. Exit status is nonzero if any session failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"time"

	"tigris/internal/gateway"
	"tigris/internal/loadgen"
	"tigris/internal/serve"
)

func main() {
	url := flag.String("url", "", "target worker or gateway base URL")
	fleet := flag.Int("fleet", 0, "stand up N in-process workers behind an in-process gateway instead of -url")
	sessions := flag.Int("sessions", 10, "total sessions to run")
	rate := flag.Float64("rate", 5, "mean session arrival rate per second (Poisson arrivals)")
	seed := flag.Int64("seed", 1, "deterministic seed for schedule, mix, and frames")
	frames := flag.Int("frames", 4, "frames per session (single-profile mode)")
	beams := flag.Int("beams", 16, "lidar beams per frame (single-profile mode)")
	azimuth := flag.Int("azimuth", 300, "lidar azimuth steps per frame (single-profile mode)")
	loop := flag.Bool("loop", false, "enable loop closure (single-profile mode)")
	parallelism := flag.Int("parallelism", 1, "per-session pipeline parallelism (0 = server default)")
	mix := flag.Bool("mix", false, "run the built-in weighted scenario mix instead of the single profile")
	authToken := flag.String("auth-token", "", "bearer token presented on every request")
	out := flag.String("out", "-", "output JSON path (\"-\" = stdout only)")
	tag := flag.String("tag", "", "tag recorded in the output")
	traceOut := flag.String("trace-out", "", "after the run, probe one traced session through the target and write its stitched gateway trace (Chrome trace-event JSON) here")
	version := flag.Bool("version", false, "print build info (module, go toolchain, VCS revision) and exit")
	flag.Parse()

	if *version {
		b, _ := json.MarshalIndent(serve.BuildInfo(), "", "  ")
		fmt.Println(string(b))
		return
	}

	if (*url == "") == (*fleet <= 0) {
		fmt.Fprintln(os.Stderr, "exactly one of -url or -fleet is required")
		os.Exit(2)
	}

	target := *url
	if *fleet > 0 {
		var stop func()
		var err error
		target, stop, err = startFleet(*fleet, *parallelism)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer stop()
	}

	profiles := []loadgen.Profile{{
		Name:         "cli",
		Frames:       *frames,
		Beams:        *beams,
		AzimuthSteps: *azimuth,
		Loop:         *loop,
		Parallelism:  *parallelism,
	}}
	if *mix {
		profiles = loadgen.DefaultProfiles()
	}

	res, err := loadgen.Run(loadgen.Config{
		Target:    target,
		Sessions:  *sessions,
		Rate:      *rate,
		Seed:      *seed,
		Profiles:  profiles,
		AuthToken: *authToken,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res.Tag = *tag
	printSummary(res)

	b, _ := json.MarshalIndent(res, "", "  ")
	if *out != "-" {
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *out)
	} else {
		fmt.Println(string(b))
	}

	if *traceOut != "" {
		doc, err := loadgen.TraceProbe(target, *authToken)
		if err == nil {
			err = os.WriteFile(*traceOut, append(doc, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace probe:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *traceOut)
	}
	if res.SessionsFailed > 0 {
		os.Exit(1)
	}
}

// startFleet stands up n in-process workers behind an in-process
// gateway on loopback listeners, returning the gateway URL and a
// teardown function.
func startFleet(n, parallelism int) (string, func(), error) {
	var stops []func()
	stop := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	var urls []string
	for i := 0; i < n; i++ {
		srv := serve.New(serve.Config{Parallelism: parallelism})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			return "", nil, err
		}
		hs := &http.Server{Handler: srv}
		go hs.Serve(ln)
		stops = append(stops, func() { hs.Close(); srv.Close() })
		urls = append(urls, "http://"+ln.Addr().String())
	}
	gw, err := gateway.New(gateway.Config{
		Workers:        urls,
		HealthInterval: 500 * time.Millisecond,
	})
	if err != nil {
		stop()
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		stop()
		return "", nil, err
	}
	hs := &http.Server{Handler: gw}
	go hs.Serve(ln)
	stops = append(stops, func() { hs.Close(); gw.Close() })
	fmt.Printf("fleet: %d workers behind gateway %s\n", n, ln.Addr())
	return "http://" + ln.Addr().String(), stop, nil
}

// printSummary writes the human-readable digest to stdout.
func printSummary(res *loadgen.Result) {
	fmt.Printf("target %s  rate %.3g/s  seed %d\n",
		res.Target, res.RatePerSec, res.Seed)
	fmt.Printf("sessions %d ok %d failed %d  frames %d  %.2f sessions/s over %.2fs\n",
		res.Sessions, res.SessionsOK, res.SessionsFailed, res.FramesPushed,
		res.SessionsPerSec, res.DurationSeconds)
	if res.Rejected429+res.Rejected503 > 0 {
		fmt.Printf("rejected: %d x 429, %d x 503\n", res.Rejected429, res.Rejected503)
	}
	stages := make([]string, 0, len(res.Latency))
	for s := range res.Latency {
		stages = append(stages, s)
	}
	sort.Strings(stages)
	for _, s := range stages {
		d := res.Latency[s]
		fmt.Printf("%-12s n=%-5d p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms\n",
			s, d.Count, d.P50Ms, d.P95Ms, d.P99Ms, d.MaxMs)
	}
	workers := make([]string, 0, len(res.PerWorker))
	for w := range res.PerWorker {
		workers = append(workers, w)
	}
	sort.Strings(workers)
	for _, w := range workers {
		fmt.Printf("worker %-28s %d sessions\n", w, res.PerWorker[w])
	}
}
