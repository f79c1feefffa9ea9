package tigris_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"sync"
	"testing"

	"tigris"
	"tigris/internal/cloud"
	"tigris/internal/geom"
)

var updateCounts = flag.Bool("update", false, "rewrite testdata/counts.json from this run")

const countsFile = "testdata/counts.json"

// countsRow is one street's streamed session at the default design point:
// what its pairs cost and where they ended.
type countsRow struct {
	Seed          int64 `json:"seed"`
	ICPIterations int   `json:"icp_iterations"`
	Converged     int   `json:"converged"`
	FineNormals   int   `json:"fine_normals"`
	// InitialSources counts the pairs by where their ICP started.
	InitialSources map[string]int `json:"initial_sources"`
	// TransErrPct is each pair's translational error, %.17g.
	TransErrPct []string `json:"trans_err_pct"`
	// PoseDigest is a SHA-256 prefix of every pose's bits.
	PoseDigest string `json:"pose_digest"`
}

// countsSummary sums a fixture's rows.
type countsSummary struct {
	Pairs                  int     `json:"pairs"`
	ICPIterationsPerPair   float64 `json:"icp_iterations_per_pair"`
	MeanTransErrPct        string  `json:"mean_trans_err_pct"`
	PairsOverTenPercentErr int     `json:"pairs_over_10pct_err"`
}

type countsFixture struct {
	Summary countsSummary `json:"summary"`
	Rows    []countsRow   `json:"rows"`
}

// counts is testdata/counts.json: the exact outcome of streaming DP5 over
// ten streets at 1 m frame steps (frames 0–3 of EvalSequenceConfig(4,
// seed)) and at 3 m steps (frames 0, 3, 6, 9 of EvalSequenceConfig(10,
// seed)), seeds 1–10.
type counts struct {
	Stride1m countsFixture `json:"stride_1m"`
	Stride3m countsFixture `json:"stride_3m"`
	// RegisterInitialSources counts where per-pair Register, which has no
	// prior, started the 1 m pairs' ICP.
	RegisterInitialSources map[string]int `json:"register_initial_sources_1m"`
}

// TestCounts regenerates testdata/counts.json at one worker, unpipelined,
// and at two workers, pipelined, and requires both to equal the committed
// file byte for byte. A change that moves a count, an error or a pose
// commits the new file (go test -run '^TestCounts$' -update .), and its
// diff is the record of what moved.
func TestCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 60 pairs at the benchmark's frame size")
	}
	// The streets render, and the two passes run, side by side: each is a
	// deterministic function of its own inputs.
	strides := []int{1, 3}
	streets := make([][]*cloud.Cloud, 20)
	truths := make([][]geom.Transform, 20)
	var wg sync.WaitGroup
	for k := range streets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stride := strides[k/10]
			seq := tigris.GenerateSequence(tigris.EvalSequenceConfig(3*stride+1, int64(k%10+1)))
			for i := 0; i < seq.Len(); i += stride {
				streets[k] = append(streets[k], seq.Frames[i])
				truths[k] = append(truths[k], seq.Poses[i])
			}
		}()
	}
	wg.Wait()

	var runs [2]counts
	for run, shape := range []struct {
		workers   int
		pipelined bool
	}{{1, false}, {2, true}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for fi, fx := range []*countsFixture{&runs[run].Stride1m, &runs[run].Stride3m} {
				for s := 0; s < 10; s++ {
					fx.Rows = append(fx.Rows, countStreet(int64(s+1), streets[fi*10+s], truths[fi*10+s], shape.workers, shape.pipelined))
				}
				fx.summarize()
			}
		}()
	}
	register := map[string]int{}
	wg.Add(1)
	go func() {
		defer wg.Done()
		cfg := tigris.DefaultPipelineConfig()
		cfg.Searcher.Parallelism = 1
		for _, frames := range streets[:10] {
			for i := 1; i < len(frames); i++ {
				register[string(tigris.Register(frames[i], frames[i-1], cfg).InitialSource)]++
			}
		}
	}()
	wg.Wait()
	var got [2][]byte
	for run := range runs {
		runs[run].RegisterInitialSources = register
		b, err := json.MarshalIndent(runs[run], "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got[run] = append(b, '\n')
	}
	c := runs[0]

	// A 3 m step is where starting ICP from the identity misaligns (frame
	// 9 onto 6 of seeds 6 and 8); the motion prior must keep every pair of
	// both fixtures within 10 % of its path.
	for _, fx := range []countsFixture{c.Stride1m, c.Stride3m} {
		if n := fx.Summary.PairsOverTenPercentErr; n > 0 {
			t.Errorf("%d of %d pairs end more than 10 %% off", n, fx.Summary.Pairs)
		}
	}
	if !bytes.Equal(got[0], got[1]) {
		t.Fatalf("two workers, pipelined, differ from one worker, unpipelined:\n%s\nvs\n%s", got[1], got[0])
	}
	checkCountsFile(t, func(doc *countsDoc) { doc.counts = c })
}

// countsDoc is the whole of testdata/counts.json: TestCounts owns the
// odometry fixtures, TestLoopCounts the loop-on row, and each test
// regenerates (or, with -update, rewrites) its own part alone.
type countsDoc struct {
	counts
	LoopCircuit *loopCounts `json:"loop_circuit,omitempty"`
}

// checkCountsFile lets set put this run's part into the committed file's
// contents and requires the result to equal the file byte for byte; with
// -update it writes the result instead.
func checkCountsFile(t *testing.T, set func(*countsDoc)) {
	t.Helper()
	want, err := os.ReadFile(countsFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc countsDoc
	if err := json.Unmarshal(want, &doc); err != nil {
		t.Fatal(err)
	}
	set(&doc)
	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *updateCounts {
		if err := os.WriteFile(countsFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from this run (rewrite it with -update and commit the diff):\n%s", countsFile, got)
	}
}

// countStreet streams one street's frames through a fresh session.
func countStreet(seed int64, frames []*cloud.Cloud, truth []geom.Transform, workers int, pipelined bool) countsRow {
	cfg := tigris.DefaultPipelineConfig()
	cfg.Searcher.Parallelism = workers
	eng := tigris.NewStream(tigris.StreamConfig{Pipeline: cfg, Pipelined: pipelined})
	for _, f := range frames {
		if _, err := eng.Push(f); err != nil {
			panic(err)
		}
	}
	eng.Close()
	traj := eng.Trajectory()

	row := countsRow{Seed: seed, InitialSources: map[string]int{}}
	for i, fr := range traj.Frames {
		if i == 0 {
			continue
		}
		row.ICPIterations += fr.Reg.ICP.Iterations
		if fr.Reg.ICP.Converged {
			row.Converged++
		}
		row.FineNormals += fr.Reg.FineNormals
		row.InitialSources[string(fr.Reg.InitialSource)]++
		e := tigris.EvaluatePair(fr.Delta, truth[i-1].Inverse().Compose(truth[i]))
		row.TransErrPct = append(row.TransErrPct, fmt.Sprintf("%.17g", e.TranslationalPct))
	}
	row.PoseDigest = digest(traj.Poses...)
	return row
}

// digest is a SHA-256 prefix of the transforms' bits.
func digest(ts ...geom.Transform) string {
	h := sha256.New()
	for _, t := range ts {
		for _, v := range append(t.R[:], t.T.X, t.T.Y, t.T.Z) {
			_ = binary.Write(h, binary.LittleEndian, math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// summarize totals the fixture's rows.
func (fx *countsFixture) summarize() {
	var iters int
	var sum float64
	s := &fx.Summary
	for _, r := range fx.Rows {
		iters += r.ICPIterations
		for _, e := range r.TransErrPct {
			v, err := strconv.ParseFloat(e, 64)
			if err != nil {
				panic(err)
			}
			s.Pairs++
			sum += v
			if v > 10 {
				s.PairsOverTenPercentErr++
			}
		}
	}
	s.ICPIterationsPerPair = float64(iters) / float64(s.Pairs)
	s.MeanTransErrPct = fmt.Sprintf("%.17g", sum/float64(s.Pairs))
}
