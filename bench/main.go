// Command bench is the repository's one benchmark: four workloads over
// the same program, every number named, the end-to-end ones measured
// with tracing off and the per-layer ones by a separate traced run.
// BENCHMARK.json at the repository root declares the workloads, the
// metrics and their regression bounds; bench/README.md explains them.
//
//	go run ./bench -workload all -seed 1 [-runs K] [-out FILE]
//	go run ./bench -workload odometry_dense -seed 1 -seconds 20 -trace 0
//	go run ./bench -workload serve_fleet -seed 1 -trace 1 [-trace-out FILE]
//	go run ./bench -compare A B
//
// A single-workload run prints its metrics as a table on standard error
// and one JSON object {correct, attempted, failed, metrics} as the last
// line of standard output; it exits non-zero when its outputs are wrong.
// "-workload all" runs every workload -runs times, each run in its own
// child process so peak memory, heap and pools never leak from one
// workload into the next.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"tigris/internal/serve"
)

func main() {
	workloadName := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same frames")
	seconds := flag.Float64("seconds", 20, "length of the timed region of one run")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics; 0 the end-to-end metrics")
	traceOut := flag.String("trace-out", "", "where the traced run writes its Chrome trace (default .bench_build/trace-<workload>.json)")
	runs := flag.Int("runs", 3, "with -workload all: runs per workload")
	out := flag.String("out", "", "append one JSON record per run to this file")
	scaleName := flag.String("scale", "full", "input scale: full (measured), compact (16x300 frames) or tiny (tests)")
	compare := flag.Bool("compare", false, "compare two record files: -compare PARENT CHANGE")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: bench -compare PARENT CHANGE")
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), "BENCHMARK.json"); err != nil {
			fatal("%v", err)
		}
		return
	}
	sc, ok := scales[*scaleName]
	if !ok {
		fatal("unknown scale %q (want full, compact or tiny)", *scaleName)
	}
	if *workloadName == "all" {
		if err := runAll(sc, *seed, *seconds, *trace, *runs, *out); err != nil {
			fatal("%v", err)
		}
		return
	}
	w := findWorkload(*workloadName)
	if w == nil {
		fatal("unknown workload %q", *workloadName)
	}
	opts := runOptions{scale: sc, seed: *seed, seconds: *seconds, trace: *trace != 0, traceOut: *traceOut, table: os.Stderr}
	res, err := runOne(w, opts)
	if err != nil {
		fatal("%s: %v", w.name, err)
	}
	if *out != "" {
		if err := appendRecord(*out, newRecord(w.name, opts, res)); err != nil {
			fatal("%v", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// workerBudget is P = min(nproc, 4): the harness is one process beside
// the program it measures, so it pins GOMAXPROCS, runs the pipeline at
// this parallelism and never opens more client connections than this —
// the numbers must measure the program, not the scheduler.
func workerBudget() int {
	return min(runtime.NumCPU(), 4)
}

type runOptions struct {
	scale    scaleSpec
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	// table is where the run's metric table goes (nil: nowhere).
	table io.Writer
}

// runOne runs one workload once in this process.
func runOne(w *workload, o runOptions) (result, error) {
	par := workerBudget()
	runtime.GOMAXPROCS(par)
	e, setupDur, err := timedSetUp(w, o.scale, o.seed, par)
	if err != nil {
		return result{}, err
	}
	defer e.tearDown()
	// One untimed pair of every street through the pipeline before
	// anything is timed: it fills the pools and, with the trace backend
	// around it, yields the query streams the search workload and the
	// accelerator model run on.
	for i := range e.scenes {
		e.use(i)
		e.scenes[i].stream = captureStream(e)
	}
	e.use(0)

	ms := metricSet{}
	var rep *report
	defs := endToEnd
	if o.trace {
		defs = perLayer
		rep, err = runTraced(e, o, ms)
	} else {
		ms["setup_s"] = setupDur.Seconds()
		rep, err = runEndToEnd(e, o, ms)
	}
	if err != nil {
		return result{}, err
	}
	metrics, missing := ms.render(defs)
	rep.problems = append(rep.problems, missing...)
	printTable(w, o, defs, metrics, rep)
	return result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   metrics,
	}, nil
}

// report is what a run found besides its metrics.
type report struct {
	attempted, failed int
	problems          []string
	notes             []string
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// runEndToEnd is the untraced run: passes over the workload's inputs
// until the timed region is used up, then the accelerator model on the
// run's query streams, then the correctness gate.
func runEndToEnd(e *env, o runOptions, ms metricSet) (*report, error) {
	rep := &report{}
	var (
		rates, allocMB []float64
		latency        samples
		total          passResult
		mem0, mem1     runtime.MemStats
	)
	// firsts holds each street's first pass: later passes over the same
	// street must reproduce it bit for bit.
	firsts := make([]passResult, len(e.scenes))
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for passes := 1; ; passes++ {
		street := (passes - 1) % len(e.scenes)
		e.use(street)
		e.fresh = cloneFrames(e.seq.Frames)
		// Every pass starts from a collected heap, so what one pass
		// leaves behind is not billed to the next.
		runtime.GC()
		runtime.ReadMemStats(&mem0)
		r, err := e.w.pass(e, nil)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&mem1)
		rates = append(rates, float64(r.ops)/r.wall.Seconds())
		allocMB = append(allocMB, float64(mem1.TotalAlloc-mem0.TotalAlloc)/1e6/float64(r.ops))
		for _, d := range r.latency {
			latency.add(d)
		}
		total.ops += r.ops
		total.failed += r.failed
		total.builds += r.builds
		total.search.Merge(r.search)
		rep.problems = append(rep.problems, r.problems...)
		if passes <= len(e.scenes) {
			firsts[street] = r
		} else if r.digest != firsts[street].digest {
			rep.problem("pass %d produced different outputs than pass %d from the same inputs", passes, street+1)
		}
		// Stop at the end of the round of streets nearest the budget: a
		// pass is never cut short and every street is driven equally
		// often, so the region is the budget give or take half a round.
		elapsed := time.Since(start)
		if rounds := passes / len(e.scenes); passes%len(e.scenes) == 0 && elapsed+elapsed/time.Duration(2*rounds) >= budget {
			rep.note("timed region: %d passes over %d streets, %d operations, %.1f s", passes, len(e.scenes), total.ops, elapsed.Seconds())
			break
		}
	}
	e.use(0)
	ms["frames_per_s"] = median(rates)
	ms["alloc_mb_per_frame"] = median(allocMB)
	p50, _ := latency.percentile(50)
	p90, beyond := latency.percentile(90)
	ms["frame_p50_ms"], ms["frame_p90_ms"] = p50, p90
	rep.note("frame latency: %d samples, %d beyond p90", latency.n(), beyond)
	ms["search_queries_per_s"] = float64(total.search.Queries) / total.search.SearchTime.Seconds()
	ms["search_build_ms"] = msOf(total.search.BuildTime) / float64(total.builds)
	rep.attempted, rep.failed = total.ops, total.failed

	streams := make([]*queryStream, len(e.scenes))
	for i, s := range e.scenes {
		streams[i] = s.stream
	}
	acc, gpu, err := runAccel(streams, e.par)
	if err != nil {
		return nil, err
	}
	ms["accel_speedup_x"] = gpu.time.Seconds() / acc.time.Seconds()
	ms["accel_power_reduction_x"] = gpu.power() / acc.power()
	if acc.nnWrong > 0 {
		rep.problem("accelerator model: %d of %d sampled NN results differ from the software search", acc.nnWrong, acc.nnSeen)
	}
	if e.w.gate != nil {
		if err := e.w.gate(e, firsts[0], rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// printTable prints every metric by name with its unit, then what the
// run noted and what it found wrong.
func printTable(w *workload, o runOptions, defs []metricDef, metrics map[string]metricValue, rep *report) {
	out := o.table
	if out == nil {
		out = io.Discard
	}
	kind := "end-to-end"
	if o.trace {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(out, "== %s  seed %d  scale %s  %s ==\n", w.name, o.seed, o.scale.name, kind)
	for _, d := range defs {
		if v, ok := metrics[d.Name]; ok {
			fmt.Fprintf(out, "  %-36s %16.6g %s\n", d.Name, v.Value, v.Unit)
		}
	}
	fmt.Fprintf(out, "  attempted %d  failed %d\n", rep.attempted, rep.failed)
	for _, n := range rep.notes {
		fmt.Fprintf(out, "  note: %s\n", n)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(out, "  WRONG: %s\n", p)
	}
}

// environment is the header every record carries, so two record files
// can be told apart before they are compared.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func currentEnvironment() environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: workerBudget(),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
		f.Close()
	}
	// The binary's own build identity, as the service reports it.
	if rev, ok := serve.BuildInfo()["revision"].(string); ok {
		env.Commit = rev
	}
	return env
}

// record is one run as written to an -out file (one JSON object per line).
type record struct {
	Env      environment    `json:"env"`
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Scale    string         `json:"scale"`
	Frames   map[string]int `json:"frames"`
	Trace    bool           `json:"trace"`
	Result   result         `json:"result"`
}

func newRecord(workload string, o runOptions, res result) record {
	return record{
		Env: currentEnvironment(), Workload: workload, Seed: o.seed, Seconds: o.seconds,
		Scale: o.scale.name, Trace: o.trace, Result: res,
		Frames: map[string]int{
			"odometry_dense": o.scale.driveFrames, "serve_fleet": o.scale.driveFrames,
			"slam_circuit": o.scale.slamFrames, "search_accel": o.scale.searchFrames,
		},
	}
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload `runs` times, each run a child process of
// this same binary, and prints each metric's median and quartiles over
// the runs.
func runAll(sc scaleSpec, seed int64, seconds float64, trace, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	began := time.Now()
	for _, w := range workloads {
		values := make(map[string][]float64)
		units := make(map[string]string)
		for run := 0; run < runs; run++ {
			args := []string{
				"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(trace), "-scale", sc.name,
			}
			if out != "" {
				args = append(args, "-out", out)
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.name, run+1, err)
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s run %d: bad result line: %w", w.name, run+1, err)
			}
			for name, v := range res.Metrics {
				values[name] = append(values[name], v.Value)
				units[name] = v.Unit
			}
		}
		names := make([]string, 0, len(values))
		for name := range values {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("== %s: median [q1, q3] over %d runs ==\n", w.name, runs)
		for _, name := range names {
			q1, q3 := quartiles(values[name])
			fmt.Printf("  %-36s %14.6g [%.6g, %.6g] %s  (n=%d)\n", name, median(values[name]), q1, q3, units[name], len(values[name]))
		}
	}
	fmt.Printf("total wall time: %.0f s\n", time.Since(began).Seconds())
	return nil
}
