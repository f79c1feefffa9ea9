// Package loadgen drives open-loop multi-client traffic against a
// tigris-serve worker or a tigris-gateway fleet and digests the
// observed service into a benchmark record.
//
// Open loop means the session arrival schedule is drawn up front from a
// seeded Poisson process (exponential inter-arrivals) and never waits
// for completions: if the fleet falls behind, latencies grow and
// admission rejections appear in the result instead of the load
// politely backing off — the honest way to measure tail latency.
//
// Each arriving session picks a scenario profile (frame count, cloud
// density, loop closure on or off) by seeded weighted choice, creates a
// session over the /v1 API, pushes its frames with ?wait=1 (so a
// frame's latency spans queueing and the full pipeline), reads the
// trajectory back, and deletes the session. Per-phase latencies are
// recorded through internal/obs histograms, the same digests the
// servers themselves publish.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tigris/internal/cloud"
	"tigris/internal/obs"
	"tigris/internal/synth"
)

// resultName identifies loadgen records in BENCH JSON files.
const resultName = "tigris-loadgen"

// Profile is one traffic scenario: how many frames a session pushes,
// how dense its clouds are, and whether loop closure is enabled.
type Profile struct {
	Name string
	// Frames per session (default 4).
	Frames int
	// Beams and AzimuthSteps set the synthetic cloud density
	// (defaults 16 and 300, ~5k points).
	Beams        int
	AzimuthSteps int
	// Loop enables the worker-side loop-closure stage for the session.
	Loop bool
	// Parallelism pins the session's per-stage worker count (0 = server
	// default).
	Parallelism int
	// Weight is the scenario's share of arriving sessions (relative;
	// default 1).
	Weight float64
}

// DefaultProfiles is a mixed fleet workload: mostly short light
// sessions, some dense ones, and a tail of loop-closure sessions.
func DefaultProfiles() []Profile {
	return []Profile{
		{Name: "compact", Frames: 4, Beams: 16, AzimuthSteps: 300, Weight: 5},
		{Name: "dense", Frames: 6, Beams: 32, AzimuthSteps: 600, Weight: 3},
		{Name: "loop", Frames: 8, Beams: 16, AzimuthSteps: 300, Loop: true, Weight: 2},
	}
}

// Config parameterizes one load run.
type Config struct {
	// Target is the base URL of a worker or gateway (required).
	Target string
	// Sessions is the total number of sessions to run (required).
	Sessions int
	// Rate is the mean session arrival rate per second (required; finite
	// and > 0).
	Rate float64
	// Seed makes the schedule, profile mix, and synthetic frames
	// deterministic.
	Seed int64
	// Profiles is the scenario mix (default DefaultProfiles).
	Profiles []Profile
	// AuthToken, when set, is presented as a bearer token (it also
	// becomes the admission-control client key).
	AuthToken string
	// Client is the HTTP client (default a fresh one, no timeout).
	Client *http.Client
}

// Digest is one latency family in the result, in milliseconds. The
// top-level digests additionally carry trace-id exemplars: the slowest
// observations of that family with the X-Tigris-Trace id the server
// answered with, so a tail percentile in a BENCH record can be chased
// straight into /gateway/trace/{id} or /debug/trace/{id}.
type Digest struct {
	Count     int64           `json:"count"`
	P50Ms     float64         `json:"p50_ms"`
	P95Ms     float64         `json:"p95_ms"`
	P99Ms     float64         `json:"p99_ms"`
	MaxMs     float64         `json:"max_ms"`
	MeanMs    float64         `json:"mean_ms"`
	Exemplars []TraceExemplar `json:"trace_exemplars,omitempty"`
}

// TraceExemplar links one slow observation to its distributed trace.
type TraceExemplar struct {
	TraceID string  `json:"trace_id"`
	Profile string  `json:"profile"`
	Ms      float64 `json:"ms"`
}

// traceExemplarK bounds the slowest-exemplar list kept per latency
// family.
const traceExemplarK = 4

// Result is the JSON record of one run.
type Result struct {
	Name            string            `json:"name"`
	Tag             string            `json:"tag,omitempty"`
	Target          string            `json:"target"`
	RatePerSec      float64           `json:"rate_per_sec"`
	Seed            int64             `json:"seed"`
	Sessions        int               `json:"sessions"`
	SessionsOK      int               `json:"sessions_ok"`
	SessionsFailed  int               `json:"sessions_failed"`
	FramesPushed    int64             `json:"frames_pushed"`
	Rejected429     int64             `json:"rejected_429"`
	Rejected503     int64             `json:"rejected_503"`
	Errors          int64             `json:"errors"`
	DurationSeconds float64           `json:"duration_seconds"`
	SessionsPerSec  float64           `json:"sessions_per_sec"`
	PerWorker       map[string]int    `json:"per_worker"`
	ProfileSessions map[string]int    `json:"profile_sessions"`
	Latency         map[string]Digest `json:"latency_percentiles"`
	// PerProfile splits the latency digests by scenario profile, so a
	// mixed run shows which scenario owns the tail instead of blending a
	// dense session's p99 into a compact session's.
	PerProfile map[string]map[string]Digest `json:"per_profile,omitempty"`
}

// runner is the session client and the digests it records: the shared
// state of one Run, or of a TraceProbe.
type runner struct {
	cfg      Config
	client   *http.Client
	rec      *obs.Recorder
	profRecs map[string]*obs.Recorder // per-profile latency split

	framesPushed atomic.Int64
	rejected429  atomic.Int64
	rejected503  atomic.Int64
	errs         atomic.Int64

	mu        sync.Mutex
	perWorker map[string]int
	exemplars map[string][]TraceExemplar // stage → slowest traceExemplarK
}

// newRunner sets up the client and the digests for cfg's profiles.
func newRunner(cfg Config) *runner {
	r := &runner{
		cfg:       cfg,
		client:    cfg.Client,
		rec:       obs.NewRecorder(),
		profRecs:  make(map[string]*obs.Recorder, len(cfg.Profiles)),
		perWorker: make(map[string]int),
		exemplars: make(map[string][]TraceExemplar),
	}
	for _, p := range cfg.Profiles {
		r.profRecs[p.Name] = obs.NewRecorder()
	}
	if r.client == nil {
		r.client = &http.Client{}
	}
	return r
}

// observe records one latency sample into the run-wide digest, the
// profile's split digest, and (when the server attached a trace id) the
// stage's slowest-K trace exemplars.
func (r *runner) observe(stage, profile, trace string, d time.Duration) {
	r.rec.Observe(stage, d)
	if pr := r.profRecs[profile]; pr != nil {
		pr.Observe(stage, d)
	}
	if trace == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	buf := r.exemplars[stage]
	ex := TraceExemplar{TraceID: trace, Profile: profile, Ms: ms(d)}
	if len(buf) < traceExemplarK {
		r.exemplars[stage] = append(buf, ex)
		return
	}
	min := 0
	for i := 1; i < len(buf); i++ {
		if buf[i].Ms < buf[min].Ms {
			min = i
		}
	}
	if ex.Ms > buf[min].Ms {
		buf[min] = ex
	}
}

// Run executes the load schedule and digests the outcome. It returns a
// Result even when some sessions fail (their failures are counted); an
// error means the configuration itself was unusable.
func Run(cfg Config) (*Result, error) {
	if cfg.Target == "" {
		return nil, fmt.Errorf("loadgen: no target URL")
	}
	if cfg.Sessions <= 0 {
		return nil, fmt.Errorf("loadgen: sessions must be > 0, got %d", cfg.Sessions)
	}
	if len(cfg.Profiles) == 0 {
		cfg.Profiles = DefaultProfiles()
	}
	arr, err := newArrivals(cfg.Rate, cfg.Seed)
	if err != nil {
		return nil, err
	}

	// Draw the whole schedule up front from the seeded processes, so
	// goroutine scheduling cannot perturb the random sequences: session
	// i starts at offsets[i] running profile assign[i].
	mix := rand.New(rand.NewSource(cfg.Seed + 1))
	offsets := make([]time.Duration, cfg.Sessions)
	assign := make([]int, cfg.Sessions)
	var at time.Duration
	for i := range offsets {
		at += arr.Next()
		offsets[i] = at
		assign[i] = pickProfile(cfg.Profiles, mix)
	}

	// Render each profile's synthetic frames once; sessions share the
	// encoded bytes.
	frames := make([][][]byte, len(cfg.Profiles))
	for pi, p := range cfg.Profiles {
		frames[pi], err = renderProfile(p, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("loadgen: profile %s: %w", p.Name, err)
		}
	}

	r := newRunner(cfg)
	var wg sync.WaitGroup
	okCount := atomic.Int64{}
	start := time.Now()
	for i := 0; i < cfg.Sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Open loop: wait for the scheduled start, not for anyone
			// else's completion.
			if d := offsets[i] - time.Since(start); d > 0 {
				time.Sleep(d)
			}
			p := cfg.Profiles[assign[i]]
			if err := r.runSession(p, frames[assign[i]]); err != nil {
				r.errs.Add(1)
				return
			}
			okCount.Add(1)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := &Result{
		Name:            resultName,
		Target:          cfg.Target,
		RatePerSec:      cfg.Rate,
		Seed:            cfg.Seed,
		Sessions:        cfg.Sessions,
		SessionsOK:      int(okCount.Load()),
		SessionsFailed:  cfg.Sessions - int(okCount.Load()),
		FramesPushed:    r.framesPushed.Load(),
		Rejected429:     r.rejected429.Load(),
		Rejected503:     r.rejected503.Load(),
		Errors:          r.errs.Load(),
		DurationSeconds: elapsed.Seconds(),
		SessionsPerSec:  float64(okCount.Load()) / elapsed.Seconds(),
		PerWorker:       r.perWorker,
		ProfileSessions: make(map[string]int),
		Latency:         make(map[string]Digest),
	}
	for _, pi := range assign {
		res.ProfileSessions[cfg.Profiles[pi].Name]++
	}
	for stage, s := range r.rec.Summaries() {
		d := digestOf(s)
		if exs := r.exemplars[stage]; len(exs) > 0 {
			d.Exemplars = append([]TraceExemplar(nil), exs...)
			sort.Slice(d.Exemplars, func(i, j int) bool { return d.Exemplars[i].Ms > d.Exemplars[j].Ms })
		}
		res.Latency[stage] = d
	}
	for name, pr := range r.profRecs {
		sums := pr.Summaries()
		if len(sums) == 0 {
			continue
		}
		split := make(map[string]Digest, len(sums))
		for stage, s := range sums {
			split[stage] = digestOf(s)
		}
		if res.PerProfile == nil {
			res.PerProfile = make(map[string]map[string]Digest)
		}
		res.PerProfile[name] = split
	}
	return res, nil
}

func digestOf(s obs.Summary) Digest {
	return Digest{
		Count:  s.Count,
		P50Ms:  ms(s.P50),
		P95Ms:  ms(s.P95),
		P99Ms:  ms(s.P99),
		MaxMs:  ms(s.Max),
		MeanMs: ms(s.Mean),
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// pickProfile draws a profile index by weight.
func pickProfile(profiles []Profile, rng *rand.Rand) int {
	total := 0.0
	for _, p := range profiles {
		total += weight(p)
	}
	x := rng.Float64() * total
	for i, p := range profiles {
		x -= weight(p)
		if x < 0 {
			return i
		}
	}
	return len(profiles) - 1
}

func weight(p Profile) float64 {
	if p.Weight <= 0 {
		return 1
	}
	return p.Weight
}

// renderProfile generates and encodes the profile's frame sequence.
func renderProfile(p Profile, seed int64) ([][]byte, error) {
	nframes := p.Frames
	if nframes <= 0 {
		nframes = 4
	}
	beams := p.Beams
	if beams <= 0 {
		beams = 16
	}
	az := p.AzimuthSteps
	if az <= 0 {
		az = 300
	}
	seq := synth.GenerateSequence(synth.SequenceConfig{
		Scene:     synth.SceneConfig{Seed: seed, Length: 120},
		Lidar:     synth.LidarConfig{Beams: beams, AzimuthSteps: az, Seed: seed},
		NumFrames: nframes,
	})
	out := make([][]byte, len(seq.Frames))
	for i, c := range seq.Frames {
		var buf bytes.Buffer
		if err := cloud.Write(&buf, c); err != nil {
			return nil, err
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

// runSession drives one session end to end.
func (r *runner) runSession(p Profile, frames [][]byte) error {
	id, workerName, trace, err := r.createSession(p)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.perWorker[workerName]++
	r.mu.Unlock()

	for fi, frame := range frames {
		if err := r.pushFrame(id, p.Name, trace, frame); err != nil {
			return fmt.Errorf("frame %d: %w", fi, err)
		}
		r.framesPushed.Add(1)
	}

	// Read the trajectory back: the session is only counted as served
	// if every pushed frame committed.
	start := time.Now()
	resp, err := r.do(http.MethodGet, "/v1/sessions/"+id+"/trajectory?wait=1", "", nil)
	if err != nil {
		return fmt.Errorf("trajectory: %w", err)
	}
	elapsed := time.Since(start)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("trajectory: status %d", resp.StatusCode)
	}
	r.observe("trajectory", p.Name, trace, elapsed)
	var traj struct {
		Frames int `json:"frames"`
	}
	if err := json.Unmarshal(body, &traj); err != nil {
		return fmt.Errorf("trajectory: %w", err)
	}
	if traj.Frames != len(frames) {
		return fmt.Errorf("trajectory has %d frames, pushed %d", traj.Frames, len(frames))
	}

	// Retire the session (best-effort; eviction also cleans up).
	if resp, err := r.do(http.MethodDelete, "/v1/sessions/"+id, "", nil); err == nil {
		resp.Body.Close()
	}
	return nil
}

// TraceProbe drives one fresh session through target — create, two tiny
// frames with ?wait=1 — and returns the trace the fleet recorded for it:
// the gateway's stitched /gateway/trace/{id} document when the target is
// a gateway, or the worker's /debug/trace/{id} when it is a bare worker.
// The session is left alive so its flight recorder stays queryable.
func TraceProbe(target, authToken string) ([]byte, error) {
	p := Profile{Name: "trace-probe", Frames: 2, Beams: 8, AzimuthSteps: 90, Parallelism: 1}
	r := newRunner(Config{Target: target, AuthToken: authToken, Client: &http.Client{Timeout: 30 * time.Second}})
	frames, err := renderProfile(p, 42)
	if err != nil {
		return nil, err
	}
	id, _, trace, err := r.createSession(p)
	if err != nil {
		return nil, err
	}
	for fi, frame := range frames {
		if err := r.pushFrame(id, p.Name, trace, frame); err != nil {
			return nil, fmt.Errorf("push %d: %w", fi, err)
		}
	}
	// Gateway ids start "g", worker ids "s" — pick the matching surface.
	tracePath := "/gateway/trace/" + id
	if !strings.HasPrefix(id, "g") {
		tracePath = "/debug/trace/" + id
	}
	resp, err := r.do(http.MethodGet, tracePath, "", nil)
	if err != nil {
		return nil, err
	}
	doc, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", tracePath, resp.StatusCode, doc)
	}
	return doc, nil
}

// createSession creates one session, retrying per the overload policy,
// and reports the gateway/worker that placed it plus the session's
// distributed-trace id (from X-Tigris-Trace; empty against servers that
// predate tracing).
func (r *runner) createSession(p Profile) (id, workerName, trace string, err error) {
	cfg := map[string]any{}
	if p.Parallelism > 0 {
		cfg["parallelism"] = p.Parallelism
	}
	if p.Loop {
		cfg["loop"] = map[string]any{"enabled": true}
	}
	body, _ := json.Marshal(cfg)

	start := time.Now()
	resp, err := r.doWithRetry(http.MethodPost, "/v1/sessions", "application/json", body)
	if err != nil {
		return "", "", "", fmt.Errorf("create: %w", err)
	}
	elapsed := time.Since(start)
	trace = resp.Header.Get("X-Tigris-Trace")
	respBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return "", "", "", fmt.Errorf("create: status %d: %s", resp.StatusCode, respBody)
	}
	r.observe("create", p.Name, trace, elapsed)
	var created struct {
		ID     string `json:"id"`
		Worker string `json:"worker"`
	}
	if err := json.Unmarshal(respBody, &created); err != nil || created.ID == "" {
		return "", "", "", fmt.Errorf("create: bad response %s", respBody)
	}
	// Identify the serving worker: the gateway names it in the response
	// body and the X-Tigris-Worker header; a bare worker is itself.
	workerName = created.Worker
	if workerName == "" {
		workerName = resp.Header.Get("X-Tigris-Worker")
	}
	if workerName == "" {
		workerName = r.cfg.Target
	}
	return created.ID, workerName, trace, nil
}

// pushFrame pushes one frame with ?wait=1, so the recorded latency
// covers queueing plus the whole per-frame pipeline. Only an accepted
// push is a latency sample; a refused one is the session's failure.
func (r *runner) pushFrame(id, profile, trace string, frame []byte) error {
	start := time.Now()
	resp, err := r.doWithRetry(http.MethodPost, "/v1/sessions/"+id+"/frames?wait=1", "application/octet-stream", frame)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	r.observe("frame", profile, trace, elapsed)
	return nil
}

// do issues one request against the target.
func (r *runner) do(method, pathAndQuery, contentType string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, r.cfg.Target+pathAndQuery, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if r.cfg.AuthToken != "" {
		req.Header.Set("Authorization", "Bearer "+r.cfg.AuthToken)
	}
	return r.client.Do(req)
}

// The retry budget: per-request retries after a 429/503, and the longest
// Retry-After honored.
const (
	retries      = 2
	maxRetryWait = 2 * time.Second
)

// doWithRetry issues a request, honoring 429/503 Retry-After backoff
// within the bounded retry budget. Rejections are counted even when a
// retry later succeeds — they are part of the service the client saw.
func (r *runner) doWithRetry(method, pathAndQuery, contentType string, body []byte) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		resp, err := r.do(method, pathAndQuery, contentType, body)
		if err != nil {
			return nil, err
		}
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			r.rejected429.Add(1)
		case http.StatusServiceUnavailable:
			r.rejected503.Add(1)
		default:
			return resp, nil
		}
		if attempt >= retries {
			return resp, nil
		}
		wait := min(retryAfter(resp), maxRetryWait)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		time.Sleep(wait)
	}
}

// retryAfter reads an integer-seconds Retry-After header (default 1s).
func retryAfter(resp *http.Response) time.Duration {
	if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
		return time.Duration(s) * time.Second
	}
	return time.Second
}
