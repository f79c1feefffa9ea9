// Command tigris-loadgen drives open-loop multi-client traffic against
// a tigris-serve worker or a tigris-gateway fleet and prints a JSON
// record of what the clients observed: sessions/sec, per-frame latency
// percentiles, admission rejections, and the per-worker load split.
//
// Usage:
//
//	tigris-loadgen -url http://gateway:8088 -sessions 100 -rate 5
//	tigris-loadgen -fleet 2 -sessions 20 -rate 10 -policy least-loaded
//
// -url targets a running worker or gateway. -fleet N instead stands up
// a self-contained fleet in-process — N workers plus a gateway wired
// with -policy and -admit-rate — runs the load through it, and tears it
// down; CI uses this for a hermetic smoke test.
//
// -sessions is the total session count and -rate the mean arrival rate
// per second; arrivals are open loop (scheduled up front from a seeded
// -arrival poisson or gamma process — gamma takes -cv), so overload
// shows up as latency and rejections, not as a politely slowed
// client. -mix runs the built-in weighted scenario mix (compact/dense/
// loop-closure sessions); otherwise one profile built from -frames,
// -beams, -azimuth, and -loop is used. The same -seed reproduces the
// same schedule, mix, and synthetic frames.
//
// The JSON record goes to stdout, or to the file named by -out, tagged
// with -tag. -rate-ladder "2,5,10" sweeps the run across ascending
// arrival rates instead of the single -rate; the
// output is then a JSON array with one record per step (the saturation
// curve in one invocation). Each record carries per-profile latency
// splits and trace-id exemplars: the slowest observations of each
// family with the X-Tigris-Trace id the fleet answered with, chaseable
// via /gateway/trace/{id}. -trace-out FILE additionally probes one
// traced session after the run and writes its stitched gateway trace
// (Chrome trace-event JSON, Perfetto-loadable). -version prints build
// info and exits. Exit status is nonzero if any session failed.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"tigris/internal/cloud"
	"tigris/internal/gateway"
	"tigris/internal/loadgen"
	"tigris/internal/serve"
	"tigris/internal/synth"
)

func main() {
	url := flag.String("url", "", "target worker or gateway base URL")
	fleet := flag.Int("fleet", 0, "stand up N in-process workers behind an in-process gateway instead of -url")
	policy := flag.String("policy", "round-robin", "fleet-mode gateway routing policy")
	admitRate := flag.Float64("admit-rate", 0, "fleet-mode gateway per-client admission rate (0 = off)")
	sessions := flag.Int("sessions", 10, "total sessions to run")
	rate := flag.Float64("rate", 5, "mean session arrival rate per second")
	arrival := flag.String("arrival", "poisson", "inter-arrival process: poisson or gamma")
	cv := flag.Float64("cv", 1, "gamma arrivals: coefficient of variation")
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
	rateLadder := flag.String("rate-ladder", "", "comma-separated arrival rates to sweep instead of -rate; the output becomes a JSON array with one record per step")
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
		target, stop, err = startFleet(*fleet, *policy, *admitRate, *parallelism)
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

	cfg := loadgen.Config{
		Target:    target,
		Sessions:  *sessions,
		Rate:      *rate,
		Arrival:   *arrival,
		CV:        *cv,
		Seed:      *seed,
		Profiles:  profiles,
		AuthToken: *authToken,
	}

	var results []*loadgen.Result
	if *rateLadder != "" {
		rates, err := parseRates(*rateLadder)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		results, err = loadgen.RunLadder(cfg, rates)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		res, err := loadgen.Run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		results = []*loadgen.Result{res}
	}
	failed := false
	for _, res := range results {
		res.Tag = *tag
		printSummary(res)
		failed = failed || res.SessionsFailed > 0
	}

	// A single run is one JSON object; a ladder is a JSON array, one
	// record per rate step.
	var outDoc any = results[0]
	if *rateLadder != "" {
		outDoc = results
	}
	b, _ := json.MarshalIndent(outDoc, "", "  ")
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
		if err := traceProbe(target, *authToken, *traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "trace probe:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *traceOut)
	}
	if failed {
		os.Exit(1)
	}
}

// parseRates parses the -rate-ladder list.
func parseRates(s string) ([]float64, error) {
	var rates []float64
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		r, err := strconv.ParseFloat(p, 64)
		if err != nil || r <= 0 {
			return nil, fmt.Errorf("-rate-ladder: bad rate %q", p)
		}
		rates = append(rates, r)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("-rate-ladder: no rates")
	}
	return rates, nil
}

// traceProbe drives one fresh session through the target — create, two
// tiny frames with ?wait=1, trajectory — and saves the trace the fleet
// recorded for it: the gateway's stitched /gateway/trace/{id} document
// when the target is a gateway, or the worker's /debug/trace/{id} when
// it is a bare worker. The session is left alive so its flight recorder
// stays queryable; CI validates the written file as Chrome trace JSON.
func traceProbe(target, authToken, path string) error {
	client := &http.Client{Timeout: 30 * time.Second}
	do := func(method, p, contentType string, body []byte) (*http.Response, error) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, target+p, rd)
		if err != nil {
			return nil, err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		if authToken != "" {
			req.Header.Set("Authorization", "Bearer "+authToken)
		}
		return client.Do(req)
	}

	resp, err := do(http.MethodPost, "/v1/sessions", "application/json", []byte(`{"parallelism":1}`))
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("create: status %d: %s", resp.StatusCode, body)
	}
	var created struct {
		ID    string `json:"id"`
		Trace string `json:"trace"`
	}
	if err := json.Unmarshal(body, &created); err != nil || created.ID == "" {
		return fmt.Errorf("create: bad response %s", body)
	}

	seq := synth.GenerateSequence(synth.SequenceConfig{
		Scene:     synth.SceneConfig{Seed: 42, Length: 120},
		Lidar:     synth.LidarConfig{Beams: 8, AzimuthSteps: 90, Seed: 42},
		NumFrames: 2,
	})
	for _, c := range seq.Frames {
		var buf bytes.Buffer
		if err := cloud.Write(&buf, c); err != nil {
			return err
		}
		resp, err := do(http.MethodPost, "/v1/sessions/"+created.ID+"/frames?wait=1", "application/octet-stream", buf.Bytes())
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("push: status %d", resp.StatusCode)
		}
	}

	// Gateway ids start "g", worker ids "s" — pick the matching surface.
	tracePath := "/gateway/trace/" + created.ID
	if !strings.HasPrefix(created.ID, "g") {
		tracePath = "/debug/trace/" + created.ID
	}
	resp, err = do(http.MethodGet, tracePath, "", nil)
	if err != nil {
		return err
	}
	doc, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", tracePath, resp.StatusCode, doc)
	}
	return os.WriteFile(path, append(doc, '\n'), 0o644)
}

// startFleet stands up n in-process workers behind an in-process
// gateway on loopback listeners, returning the gateway URL and a
// teardown function.
func startFleet(n int, policy string, admitRate float64, parallelism int) (string, func(), error) {
	pol, err := gateway.ParsePolicy(policy)
	if err != nil {
		return "", nil, err
	}
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
		Policy:         pol,
		AdmitRate:      admitRate,
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
	fmt.Printf("fleet: %d workers behind gateway %s (policy %s)\n", n, ln.Addr(), pol)
	return "http://" + ln.Addr().String(), stop, nil
}

// printSummary writes the human-readable digest to stdout.
func printSummary(res *loadgen.Result) {
	fmt.Printf("target %s  arrival %s  rate %.3g/s  seed %d\n",
		res.Target, res.Arrival, res.RatePerSec, res.Seed)
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
