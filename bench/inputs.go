package main

import (
	"bytes"
	"fmt"
	"time"

	"tigris/internal/cloud"
	"tigris/internal/dse"
	"tigris/internal/geom"
	"tigris/internal/loop"
	"tigris/internal/registration"
	"tigris/internal/synth"
)

// scaleSpec sizes the generated inputs. "full" is the measured
// configuration; "tiny" exists so the tests can drive every workload
// and every probe in a few seconds.
type scaleSpec struct {
	name string
	// beams × azimuth of the driving workloads (odometry_dense,
	// serve_fleet, search_accel) and of the circuit (slam_circuit).
	beams, azimuth         int
	slamBeams, slamAzimuth int
	// Frames per pass: one engine session (odometry_dense) or one HTTP
	// session per client (serve_fleet) over the same drive, one circuit
	// (slam_circuit), the frames search_accel's pair comes from.
	driveFrames         int
	slamFrames, slamLap int
	searchFrames        int
	// probeFrames is how many leading frames the traced run's per-layer
	// probes use (slam_circuit's loop probe always uses the whole
	// circuit: closures need the laps).
	probeFrames int
	// accountable says the inputs are dense enough for the program's
	// outputs and timings to be held to account: closures must be found,
	// the latency budget must add up. At the tiny scale frames misalign
	// and a push is a few milliseconds of scheduling noise.
	accountable bool
}

// The full frame counts are set by the contract's run length, not by
// taste: a pass must be short enough that several rounds of streets fit
// in one timed region (so throughput is a median over passes), and the
// whole set of runs must fit the driver's total cap. ISSUE.md asked for
// 160/100/120 frames per pass; the shapes (density, design point,
// trajectory, frames past the first lap) are kept and the counts shrunk.
var scales = map[string]scaleSpec{
	"full": {name: "full", beams: 32, azimuth: 600, slamBeams: 16, slamAzimuth: 300,
		driveFrames: 12, slamFrames: 64, slamLap: 40, searchFrames: 3, probeFrames: 12, accountable: true},
	// compact is tigris-loadgen's default density (16×300), kept so the
	// finding that DP5 does not align there stays one command away
	// (bench/README.md, "Findings").
	"compact": {name: "compact", beams: 16, azimuth: 300, slamBeams: 16, slamAzimuth: 300,
		driveFrames: 12, slamFrames: 64, slamLap: 40, searchFrames: 3, probeFrames: 12},
	"tiny": {name: "tiny", beams: 8, azimuth: 90, slamBeams: 8, slamAzimuth: 90,
		driveFrames: 5, slamFrames: 6, slamLap: 5, searchFrames: 3, probeFrames: 3},
}

// workload is one set of inputs plus the way the program is driven over
// them. The four differ in which layers sit on the path; `why` is the
// one-line reason BENCHMARK.json carries.
type workload struct {
	name string
	why  string
	// designPoint names the registration configuration (dse.NamedDesignPoints).
	designPoint string
	// frontEndOnRaw runs the front-end on the raw clouds, the regime
	// tigris-accel -trace captures in.
	frontEndOnRaw bool
	// loop enables the loop-closure stage and the pose-graph solve.
	loop bool
	// scenes is how many streets a run drives in rotation.
	scenes int
	// sequence returns the generator configuration for a seed.
	sequence func(sc scaleSpec, seed int64) synth.SequenceConfig
	// pass runs the workload once over the environment's inputs.
	pass func(e *env, tr *tracer) (passResult, error)
	// serves says the workload pushes its frames over HTTP: set-up
	// encodes them and starts the workers and the gateway.
	serves bool
	// gate is the workload's end-of-run correctness check (verify.go);
	// nil when its passes check everything there is to check.
	gate func(e *env, first passResult, rep *report) error
}

// drivingSequence is a forward drive of the given length at the scale's
// density.
func drivingSequence(sc scaleSpec, frames int, seed int64) synth.SequenceConfig {
	cfg := synth.EvalSequenceConfig(frames, seed)
	cfg.Lidar.Beams, cfg.Lidar.AzimuthSteps = sc.beams, sc.azimuth
	// The street outlasts the drive (1 m per frame), so the last frames
	// still scan structure ahead of the vehicle.
	cfg.Scene.Length = float64(frames + 40)
	return cfg
}

// odometrySequence is what odometry_dense drives in process and
// serve_fleet pushes over HTTP: the very same frames.
func odometrySequence(sc scaleSpec, seed int64) synth.SequenceConfig {
	return drivingSequence(sc, sc.driveFrames, seed)
}

var workloads = []*workload{
	{
		name:        "odometry_dense",
		why:         "in-process pipelined engine at DP5 on dense frames: search, features and registration do all the work; ingest, serving, loop closure and the simulator do none",
		designPoint: "DP5",
		scenes:      3,
		sequence:    odometrySequence,
		pass:        odometryPass,
		gate:        odometryGate,
	},
	{
		name:        "serve_fleet",
		why:         "the same DP5 compute behind ASCII ingest, HTTP, the gateway proxy and two workers with one frame in flight per client: only ingest and serving changes show here alone",
		designPoint: "DP5",
		scenes:      3,
		sequence:    odometrySequence,
		pass:        fleetPass,
		serves:      true,
		gate:        fleetGate,
	},
	{
		name:        "slam_circuit",
		why:         "DP7 on a closed circuit with loop closure on: most time is loop verification re-registering retained frames, session state grows, and the pose graph is solved",
		designPoint: "DP7",
		loop:        true,
		scenes:      3,
		sequence: func(sc scaleSpec, seed int64) synth.SequenceConfig {
			return synth.SequenceConfig{
				Scene:      synth.SceneConfig{Seed: seed, Length: 120},
				Lidar:      synth.LidarConfig{Beams: sc.slamBeams, AzimuthSteps: sc.slamAzimuth, Seed: seed},
				NumFrames:  sc.slamFrames,
				Trajectory: synth.CircuitTrajectory{Radius: 3, FramesPerLap: sc.slamLap},
			}
		},
		pass: slamPass,
	},
	{
		name:          "search_accel",
		why:           "captured DP7 query streams, built and replayed on the search backends and simulated on the accelerator model: search in isolation, build beside query, software beside modelled hardware",
		designPoint:   "DP7",
		frontEndOnRaw: true,
		scenes:        3,
		sequence: func(sc scaleSpec, seed int64) synth.SequenceConfig {
			return drivingSequence(sc, sc.searchFrames, seed)
		},
		pass: searchPass,
		gate: searchGate,
	},
}

// vettedScenes are the generator seeds the workloads draw their streets
// from: a run's k-th street is vettedScenes[(seed+k) mod 32], and that
// value seeds both the street and the sensor noise. The program does not
// register every random street: of generator seeds 1..42 at full scale,
// seven give a run that is wrong by the benchmark's own checks — on 2,
// 14, 19 and 32 a frame's front-end settles on a confident wrong
// hypothesis and the pose is off by metres (2, 14: the DP7 pair; 19, 32:
// the DP5 drive); 35 and 36 come within 2 % of the failure threshold; 13
// closes its circuit once. A benchmark is told to choose inputs on which
// no operation fails, so those streets are left out here and written up
// in bench/README.md as a finding; a change that makes the program
// register them belongs in a robustness issue, with these seeds as its
// evidence.
var vettedScenes = []int64{
	1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 16, 17, 18, 20,
	21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 33, 34, 37, 38, 39,
}

func sceneSeed(seed int64) int64 {
	n := int64(len(vettedScenes))
	return vettedScenes[(seed%n+n)%n]
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// env is one run's inputs and everything started before the timed
// region: what setup_s pays for.
type env struct {
	w  *workload
	sc scaleSpec
	// par is the worker budget P = min(nproc, 4): GOMAXPROCS, pipeline
	// parallelism, and the most client connections ever open.
	par int
	cfg registration.PipelineConfig
	// scenes are the run's inputs: one street per entry, driven in
	// rotation, one per pass, so a run's figures average over streets
	// instead of standing on one. seq and encoded are the street in use
	// (use); warm-up, probes and the gate work on street 0.
	scenes []scene
	seq    *synth.Sequence
	// encoded holds the frames as TIGRIS-CLOUD ASCII (serve_fleet, and
	// the traced run's ingest probes).
	encoded [][]byte
	fleet   *fleet
	// stream is the captured query stream of the street in use
	// (search_accel's input; the accelerator model runs on every
	// street's).
	stream *queryStream
	// fresh is a set of frame clones made ahead of a pass, outside the
	// pass's clock and allocation window.
	fresh []*cloud.Cloud
}

// scene is one generated street: its frames and ground truth, and the
// frames as TIGRIS-CLOUD ASCII where the workload pushes them over HTTP.
type scene struct {
	seq     *synth.Sequence
	encoded [][]byte
	// stream is the query stream of the street's first pair, captured
	// during warm-up.
	stream *queryStream
}

// use makes street i (modulo the number of streets) the one in use.
func (e *env) use(i int) {
	s := e.scenes[i%len(e.scenes)]
	e.seq, e.encoded, e.stream = s.seq, s.encoded, s.stream
}

// takeFresh hands over the clones prepared for the next pass, or makes
// them now.
func (e *env) takeFresh() []*cloud.Cloud {
	if e.fresh == nil {
		return cloneFrames(e.seq.Frames)
	}
	f := e.fresh
	e.fresh = nil
	return f
}

func pipelineConfig(w *workload, par int) (registration.PipelineConfig, error) {
	for _, dp := range dse.NamedDesignPoints() {
		if dp.Name == w.designPoint {
			cfg := dp.Config
			cfg.FrontEndOnRaw = w.frontEndOnRaw
			cfg.Searcher.Parallelism = par
			return cfg, cfg.Searcher.Validate()
		}
	}
	return registration.PipelineConfig{}, fmt.Errorf("unknown design point %q", w.designPoint)
}

// loopConfig is the loop-closure configuration cmd/tigris-slam runs
// with: twostage signature index, a temporal gate just short of a lap.
func (e *env) loopConfig() *loop.Config {
	return &loop.Config{Backend: "twostage", MinSeparation: e.sc.slamLap - 2, MaxCandidates: 2, Cooldown: 1}
}

func encodeFrames(frames []*cloud.Cloud) ([][]byte, error) {
	out := make([][]byte, len(frames))
	for i, f := range frames {
		var buf bytes.Buffer
		if err := cloud.Write(&buf, f); err != nil {
			return nil, fmt.Errorf("encode frame %d: %w", i, err)
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

// setUp generates the workload's frames from the seed and starts what
// the timed region needs (serve_fleet: encode the frames, start the
// workers and the gateway). The program under test only ever sees the
// generated frames, never the seed.
func setUp(w *workload, sc scaleSpec, seed int64, par int) (*env, error) {
	cfg, err := pipelineConfig(w, par)
	if err != nil {
		return nil, err
	}
	e := &env{w: w, sc: sc, par: par, cfg: cfg}
	for i := 0; i < w.scenes; i++ {
		s := scene{seq: synth.GenerateSequence(w.sequence(sc, sceneSeed(seed+int64(i))))}
		quantize(s.seq.Frames)
		if w.serves {
			if s.encoded, err = encodeFrames(s.seq.Frames); err != nil {
				return nil, err
			}
		}
		e.scenes = append(e.scenes, s)
	}
	e.use(0)
	if w.serves {
		if e.fleet, err = startFleet(2, par, true); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// quantize rounds every coordinate to float32 precision — far below the
// sensor's 2 cm range noise, and what the program does to a frame on
// ingest anyway. It makes "the same frames" exact: the ASCII encoding
// carries nine significant digits, which round-trips a float32 but not
// a float64, so without this a frame pushed over HTTP would reach the
// pipeline an ulp away from the frame pushed in process, and
// registration near a bad hypothesis is sensitive even to that.
func quantize(frames []*cloud.Cloud) {
	for _, f := range frames {
		for i, p := range f.Points {
			f.Points[i] = geom.Vec3{X: float64(float32(p.X)), Y: float64(float32(p.Y)), Z: float64(float32(p.Z))}
		}
	}
}

func (e *env) tearDown() {
	if e.fleet != nil {
		e.fleet.stop()
		e.fleet = nil
	}
}

// A run sets up setupReps times at least, and on (up to setupMaxReps)
// while the set-ups add up to less than setupMinTotal; setup_s is the
// median, so one slow generation does not read as a set-up regression and
// a set-up of a few milliseconds is not timed on three samples.
const (
	setupReps     = 3
	setupMaxReps  = 15
	setupMinTotal = time.Second
)

// timedSetUp sets up repeatedly and keeps the last environment.
func timedSetUp(w *workload, sc scaleSpec, seed int64, par int) (*env, time.Duration, error) {
	var e *env
	var durs []time.Duration
	var total time.Duration
	for i := 0; i < setupReps || (total < setupMinTotal && i < setupMaxReps); i++ {
		if e != nil {
			e.tearDown()
		}
		start := time.Now()
		var err error
		if e, err = setUp(w, sc, seed, par); err != nil {
			return nil, 0, err
		}
		durs = append(durs, time.Since(start))
		total += durs[i]
	}
	return e, medianDuration(durs), nil
}

func cloneFrames(frames []*cloud.Cloud) []*cloud.Cloud {
	out := make([]*cloud.Cloud, len(frames))
	for i, f := range frames {
		out[i] = f.Clone()
	}
	return out
}
