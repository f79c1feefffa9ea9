package main

import (
	"fmt"
	"math"
)

// metricDef names one reported number. The two lists below are the
// benchmark's vocabulary; BENCHMARK.json at the repository root declares
// the same names (bench_test.go holds them equal), with each end-to-end
// metric's direction and regression bound.
type metricDef struct {
	Name, Unit string
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them with tracing off; bench/README.md says what each
// means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"frames_per_s", "1/s"},
	{"frame_p50_ms", "ms"},
	{"frame_p90_ms", "ms"},
	{"alloc_mb_per_frame", "MB"},
	{"search_queries_per_s", "1/s"},
	{"search_build_ms", "ms"},
	{"accel_speedup_x", "x"},
	{"accel_power_reduction_x", "x"},
}

// perLayer is what the traced run reports: every layer probed on the
// workload's own frames, named <module>.<metric>.
var perLayer = []metricDef{
	{"cloud.read_ms", "ms"},
	{"cloud.read_mb_per_s", "MB/s"},
	{"cloud.frame_bytes", "B"},
	{"cloud.to_slab_ms", "ms"},
	{"cloud.voxel_ms", "ms"},
	{"cloud.points_in", "count"},
	{"cloud.points_voxel", "count"},

	{"kdtree.build_ms", "ms"},
	{"kdtree.nn_ns", "ns"},
	{"kdtree.radius_ns", "ns"},
	{"kdtree.nodes_per_query", "count"},
	{"twostage.build_ms", "ms"},
	{"twostage.nn_ns", "ns"},
	{"twostage.radius_ns", "ns"},
	{"twostage.nodes_per_query", "count"},
	{"twostage.approx_nn_ns", "ns"},
	{"twostage.approx_radius_ns", "ns"},
	{"twostage.approx_nodes_per_query", "count"},
	{"twostage.approx_follower_share", "ratio"},
	{"twostage.approx_nn_mismatch_share", "ratio"},

	{"search.batch_speedup_x", "x"},
	{"search.queries_per_frame", "count"},
	{"search.nodes_per_frame", "count"},
	{"search.builds_per_frame", "count"},
	{"search.build_ms_per_frame", "ms"},
	{"search.replay_ms_per_frame", "ms"},
	{"search.share_of_frame", "ratio"},

	{"features.normals_ms", "ms"},
	{"features.keypoints_ms", "ms"},
	{"features.descriptors_ms", "ms"},
	{"features.keypoints", "count"},

	{"registration.prepare_ms", "ms"},
	{"registration.align_first_ms", "ms"},
	{"registration.align_warm_ms", "ms"},
	{"registration.kpce_ms", "ms"},
	{"registration.rejection_ms", "ms"},
	{"registration.icp_ms", "ms"},
	{"registration.icp_iterations", "count"},
	{"registration.inlier_ratio", "ratio"},
	{"registration.misaligned_frames", "count"},
	{"registration.trans_err_pct", "%"},

	{"stream.frame_ms", "ms"},
	{"stream.push_block_ms", "ms"},
	{"stream.unpipelined_frames_per_s", "1/s"},
	{"stream.pipeline_overlap_x", "x"},
	{"stream.residual_ms", "ms"},

	{"loop.observed", "count"},
	{"loop.proposed", "count"},
	{"loop.verified", "count"},
	{"loop.accepted", "count"},
	{"loop.accept_ratio", "ratio"},
	{"loop.verify_ms_total", "ms"},
	{"loop.share_of_run", "ratio"},
	{"loop.retained_mb", "MB"},

	{"posegraph.solve_ms", "ms"},
	{"posegraph.iterations", "count"},
	{"posegraph.nodes", "count"},
	{"posegraph.edges", "count"},
	{"posegraph.ate_rmse_m", "m"},

	{"serve.create_ms", "ms"},
	{"serve.push_ms", "ms"},
	{"serve.pipeline_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.trajectory_ms", "ms"},
	{"serve.trajectory_bytes", "B"},

	{"gateway.push_ms", "ms"},
	{"gateway.overhead_ms", "ms"},
	{"gateway.create_ms", "ms"},
	{"gateway.trajectory_ms", "ms"},
	{"gateway.worker_split", "ratio"},

	{"budget.client_p50_ms", "ms"},
	{"budget.residual_ms", "ms"},
	{"budget.residual_share", "ratio"},

	{"sim.cycles", "count"},
	{"sim.prepare_ms", "ms"},
	{"sim.simulate_ms", "ms"},
	{"sim.host_queries_per_s", "1/s"},
	{"sim.ru_utilization", "ratio"},
	{"sim.su_utilization", "ratio"},
	{"sim.traffic_total", "count"},
	{"sim.energy_mj", "mJ"},
	{"sim.power_w", "W"},
	{"sim.acc_kd_speedup_x", "x"},
	{"sim.approx_speedup_x", "x"},
	{"sim.paper_gap_x", "x"},
	{"baseline.gpu_ms", "ms"},
	{"baseline.gpu_2skd_ms", "ms"},
	{"baseline.cpu_ms", "ms"},

	{"runtime.allocs_per_frame", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms_total", "ms"},
	{"runtime.heap_inuse_mb", "MB"},
	{"runtime.peak_rss_mb", "MB"},
	{"trace.overhead_pct", "%"},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricSet collects the numbers a run measures, by name.
type metricSet map[string]float64

// render turns the collected numbers into the declared list, and
// reports every declared metric that is missing or not finite — a run
// that cannot fill its own vocabulary is not correct.
func (m metricSet) render(defs []metricDef) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var problems []string
	for _, d := range defs {
		v, ok := m[d.Name]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("metric %s was not emitted", d.Name))
		case math.IsNaN(v) || math.IsInf(v, 0):
			problems = append(problems, fmt.Sprintf("metric %s is not finite", d.Name))
		default:
			out[d.Name] = metricValue{Value: v, Unit: d.Unit}
		}
	}
	return out, problems
}
