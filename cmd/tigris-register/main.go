// Command tigris-register registers two point cloud files (TIGRIS-CLOUD
// format, see internal/cloud) and prints the estimated 4×4 transformation
// matrix that maps the source cloud onto the target cloud — the paper's
// Eq. 1 output. This is the downstream-user entry point: feed it two
// LiDAR frames, get the odometry step.
//
// Usage:
//
//	tigris-register [-backend NAME] [-opt key=value]... [-parallel N] [-profile]
//	                [-cpuprofile FILE] [-memprofile FILE] source.cloud target.cloud
//
// -backend selects any registered search backend by name (canonical,
// twostage, twostage-approx, bruteforce, ...); -opt passes
// backend-specific options, e.g. `-backend twostage -opt top_height=8`.
// Generate sample inputs with `go run ./cmd/tigris-synth` or via
// tigris.WriteCloud.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"tigris/internal/cloud"
	"tigris/internal/dse"
	"tigris/internal/registration"
	"tigris/internal/search"
)

// optFlag collects repeated -opt key=value pairs into a backend option
// bag, parsing values as bool, int, or float before falling back to
// string.
type optFlag struct{ opts search.Options }

func (f *optFlag) String() string { return fmt.Sprintf("%v", f.opts) }

func (f *optFlag) Set(v string) error {
	key, val, ok := strings.Cut(v, "=")
	if !ok || key == "" {
		return fmt.Errorf("want key=value, got %q", v)
	}
	if f.opts == nil {
		f.opts = search.Options{}
	}
	switch {
	case val == "true" || val == "false":
		f.opts[key] = val == "true"
	default:
		if n, err := strconv.Atoi(val); err == nil {
			f.opts[key] = n
		} else if x, err := strconv.ParseFloat(val, 64); err == nil {
			f.opts[key] = x
		} else {
			f.opts[key] = val
		}
	}
	return nil
}

func main() {
	backend := flag.String("backend", search.BackendTwoStage, "search backend registry name (see internal/search; canonical is the reference KD-tree)")
	var opts optFlag
	flag.Var(&opts, "opt", "backend option as key=value (repeatable)")
	parallel := flag.Int("parallel", 0, "batch search worker count (0 = the slot budget, GOMAXPROCS; 1 = sequential)")
	profile := flag.Bool("profile", false, "print stage timing and KD-tree search breakdown")
	designPoint := flag.String("dp", "DP5", "design point to run (DP1..DP8)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: tigris-register [flags] source.cloud target.cloud")
		os.Exit(2)
	}

	src := mustLoad(flag.Arg(0))
	dst := mustLoad(flag.Arg(1))
	fmt.Fprintf(os.Stderr, "source: %d points, target: %d points\n", src.Len(), dst.Len())

	cfg, ok := findDesignPoint(*designPoint)
	if !ok {
		log.Fatalf("unknown design point %q (want DP1..DP8)", *designPoint)
	}
	cfg.Searcher.Backend = *backend
	cfg.Searcher.Options = opts.opts
	cfg.Searcher.Parallelism = *parallel
	if err := cfg.Searcher.Validate(); err != nil {
		log.Fatalf("%v", err)
	}

	// Profiling brackets only the registration itself, and every fatal
	// exit path (bad flags, unreadable clouds, profile-file creation) is
	// behind us or handled before StartCPUProfile, so a written profile
	// is always complete — log.Fatal's os.Exit would otherwise skip the
	// deferred flushes and leave a truncated file.
	var memFile *os.File
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatalf("memprofile: %v", err)
		}
		memFile = f
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	res := registration.Register(src, dst, cfg)

	if memFile != nil {
		runtime.GC()
		if err := pprof.WriteHeapProfile(memFile); err != nil {
			log.Printf("memprofile: %v", err)
		}
		memFile.Close()
	}

	// The 4×4 homogeneous matrix, row per line (paper Eq. 1).
	m := res.Transform.Mat4()
	for r := 0; r < 4; r++ {
		fmt.Printf("% .9f % .9f % .9f % .9f\n", m.At(r, 0), m.At(r, 1), m.At(r, 2), m.At(r, 3))
	}

	if *profile {
		fmt.Fprintf(os.Stderr, "\nbackend: %s\n", cfg.Searcher.BackendName())
		fmt.Fprintf(os.Stderr, "total: %v (ICP iterations %d, converged %v)\n",
			res.Total.Round(1e6), res.ICP.Iterations, res.ICP.Converged)
		fmt.Fprintf(os.Stderr, "stages: NE %v | keypt %v | desc %v | KPCE %v | reject %v | RPCE %v | solve %v\n",
			res.Stage.NormalEstimation.Round(1e6), res.Stage.KeypointDetection.Round(1e6),
			res.Stage.DescriptorCalculation.Round(1e6), res.Stage.KPCE.Round(1e6),
			res.Stage.Rejection.Round(1e6), res.Stage.RPCE.Round(1e6),
			res.Stage.ErrorMinimization.Round(1e6))
		if res.FineTargetPoints > 0 {
			fmt.Fprintf(os.Stderr, "fine-tuning normals: %v for %d of %d target points (%.0f%%)\n",
				res.ICP.NormalTime.Round(1e6), res.FineNormals, res.FineTargetPoints,
				100*float64(res.FineNormals)/float64(res.FineTargetPoints))
		}
		fmt.Fprintf(os.Stderr, "KD-tree: search %v (%.0f%%), construction %v, other %v\n",
			res.KDSearchTime.Round(1e6),
			100*float64(res.KDSearchTime)/float64(res.Total),
			res.KDBuildTime.Round(1e6), res.OtherTime().Round(1e6))
		fmt.Fprintf(os.Stderr, "keypoints %d/%d, correspondences %d, inliers %d\n",
			res.SrcKeypoints, res.DstKeypoints, res.Correspondences, res.Inliers)
	}
}

func mustLoad(path string) *cloud.Cloud {
	f, err := os.Open(path)
	if err != nil {
		log.Fatalf("open %s: %v", path, err)
	}
	defer f.Close()
	c, err := cloud.Read(f)
	if err != nil {
		log.Fatalf("parse %s: %v", path, err)
	}
	return c
}

func findDesignPoint(name string) (registration.PipelineConfig, bool) {
	for _, dp := range dse.NamedDesignPoints() {
		if dp.Name == name {
			return dp.Config, true
		}
	}
	return registration.PipelineConfig{}, false
}
