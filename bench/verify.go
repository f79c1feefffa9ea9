package main

import (
	"bytes"
	"fmt"

	"tigris/internal/cloud"
	"tigris/internal/geom"
)

// gatePrefix is how many leading frames the parallelism-determinism
// check re-registers.
const gatePrefix = 10

// The gates are the correctness checks of an end-to-end run beyond what
// every pass already checks (missing or misaligned frames count as
// failed operations; a later pass over a street must reproduce the
// first; slam_circuit's passes check that the circuit yields a verified
// closure and that optimising repairs the injected drift). Each workload
// names its gate in the workload table; `first` is street 0's first
// pass. What a gate finds wrong goes into the report, and a report with
// anything wrong makes the run exit non-zero.
//
// On every workload, besides, the accelerator model's NN output is
// compared with the software search (runEndToEnd), and every declared
// metric must have been emitted, finite, with its unit
// (metricSet.render).

// odometryGate: the poses of a prefix must be bit-identical at
// parallelism 1, unpipelined, to what the timed passes produced
// pipelined at parallelism P.
func odometryGate(e *env, first passResult, rep *report) error {
	n := min(gatePrefix, len(e.seq.Frames))
	ref, err := odometryOver(e, cloneFrames(e.seq.Frames[:n]), 1, false, nil, 0)
	if err != nil {
		return err
	}
	if !samePoses(ref.poses, first.poses[:min(n, len(first.poses))]) {
		rep.problem("poses at parallelism 1 differ from the poses at parallelism %d on the first %d frames", e.par, n)
	}
	return nil
}

// fleetGate: the trajectory read back over HTTP must be bit-identical to
// an in-process engine fed the same encoded bytes.
func fleetGate(e *env, first passResult, rep *report) error {
	decoded := make([]*cloud.Cloud, len(e.encoded))
	for i, b := range e.encoded {
		c, err := cloud.Read(bytes.NewReader(b))
		if err != nil {
			return fmt.Errorf("decode frame %d: %w", i, err)
		}
		decoded[i] = c
	}
	ref, err := runStream(decoded, odometryConfig(e, e.par, true), nil, 0)
	if err != nil {
		return err
	}
	if !samePoses(ref.traj.Poses, first.poses) {
		rep.problem("trajectory read back over HTTP differs from the in-process engine over the same encoded bytes")
	}
	return nil
}

// searchGate: a fixed 1 % sample of every stage batch is answered on the
// exact backends and compared with the brute-force oracle; each checked
// stage batch is one more operation attempted.
func searchGate(e *env, _ passResult, rep *report) error {
	checked, wrong, err := oracleCheck(e.stream)
	if err != nil {
		return err
	}
	rep.attempted += checked
	rep.failed += wrong
	if wrong > 0 {
		rep.problem("%d of %d stage batches answered differently from the brute-force oracle", wrong, checked)
	}
	return nil
}

// samePoses reports whether two trajectories are bit-identical.
func samePoses(a, b []geom.Transform) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
