package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkFile is BENCHMARK.json's declarations: what a comparison
// needs (each end-to-end metric's direction and the bound by which it may
// worsen) and what bench_test.go holds the program's own lists to.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// readRecords loads the untraced records of an -out file, grouped as
// workload → metric → one value per run, in file order.
func readRecords(path string) (map[string]map[string][]float64, []record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	values := make(map[string]map[string][]float64)
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, rec)
		if rec.Trace {
			continue
		}
		if values[rec.Workload] == nil {
			values[rec.Workload] = make(map[string][]float64)
		}
		for name, v := range rec.Result.Metrics {
			values[rec.Workload][name] = append(values[rec.Workload][name], v.Value)
		}
		values[rec.Workload]["failed"] = append(values[rec.Workload]["failed"], float64(rec.Result.Failed))
	}
	return values, recs, sc.Err()
}

// minRunsForGain is how many runs each side needs before a difference
// is called a gain.
const minRunsForGain = 10

// Verdicts of one metric on one workload.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// verdict judges a change against its parent on one metric of one
// workload, by the rule later performance issues are held to:
//
//   - worse: the change's median is worse than the parent's by more than
//     the metric's bound;
//   - better: every run of the change beats every run of the parent, or
//     the medians differ in the good direction by more than the spread
//     between the parent's own runs (its inter-quartile distance) and the
//     change wins at least nine tenths of the run pairs, ties counting
//     for neither — and both sides have at least minRunsForGain runs;
//   - unresolved: it would be better but for too few runs; or neither of
//     the above and the parent's spread is wider than the bound while the
//     two sides' runs interleave — the benchmark cannot tell;
//   - unchanged: otherwise.
//
// The box this was written on drifts by 5–10 % over tens of minutes, so
// two back-to-back sets of the same code separate cleanly; interleave
// the two sides' runs and make at least ten of each before reading
// "better" as a gain.
func verdict(parent, change []float64, higherIsBetter bool, bound float64) string {
	if len(parent) == 0 || len(change) == 0 {
		return verdictUnresolved
	}
	sign := 1.0 // turns "better" into "larger"
	if !higherIsBetter {
		sign = -1
	}
	pm, cm := median(parent), median(change)
	gain := sign * (cm - pm)
	if -gain > bound*math.Abs(pm) {
		return verdictWorse
	}
	wins, losses := 0, 0
	for _, c := range change {
		for _, p := range parent {
			switch d := sign * (c - p); {
			case d > 0:
				wins++
			case d < 0:
				losses++
			}
		}
	}
	separated := losses == 0 && wins > 0
	q1, q3 := quartiles(parent)
	iqr := q3 - q1
	if separated || (gain > iqr && float64(wins) >= 0.9*float64(wins+losses) && wins > 0) {
		if min(len(parent), len(change)) < minRunsForGain {
			return verdictUnresolved
		}
		return verdictBetter
	}
	interleave := wins > 0 && losses > 0
	if interleave && iqr > bound*math.Abs(pm) {
		return verdictUnresolved
	}
	return verdictUnchanged
}

// compareFiles prints one row per end-to-end metric and workload.
func compareFiles(w io.Writer, parentPath, changePath, benchmarkPath string) error {
	bf, err := readBenchmarkFile(benchmarkPath)
	if err != nil {
		return err
	}
	parent, precs, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, crecs, err := readRecords(changePath)
	if err != nil {
		return err
	}
	for _, side := range []struct {
		label string
		recs  []record
	}{{"parent", precs}, {"change", crecs}} {
		if len(side.recs) > 0 {
			r := side.recs[0]
			fmt.Fprintf(w, "%s: %d records, commit %s, %s, nproc %d, GOMAXPROCS %d, %s, seed %d, scale %s\n",
				side.label, len(side.recs), r.Env.Commit, r.Env.GoVersion, r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.CPUModel, r.Seed, r.Scale)
		}
	}
	names := make([]string, 0, len(parent))
	for name := range parent {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-16s %-26s %34s %34s %7s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "bound", "verdict")
	row := func(workload, metric string, higher bool, bound float64) {
		p, c := parent[workload][metric], change[workload][metric]
		pq1, pq3 := quartiles(p)
		cq1, cq3 := quartiles(c)
		fmt.Fprintf(w, "%-16s %-26s %34s %34s %6.0f%%  %s\n", workload, metric,
			fmt.Sprintf("%.5g [%.5g, %.5g] n=%d", median(p), pq1, pq3, len(p)),
			fmt.Sprintf("%.5g [%.5g, %.5g] n=%d", median(c), cq1, cq3, len(c)),
			bound*100, verdict(p, c, higher, bound))
	}
	for _, workload := range names {
		for _, m := range bf.EndToEnd {
			row(workload, m.Name, m.Better == "higher", m.Bound)
		}
		// Failed operations may not increase at all.
		row(workload, "failed", false, 0)
	}
	return nil
}
