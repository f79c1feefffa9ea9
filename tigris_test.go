package tigris_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"tigris"
	"tigris/internal/cloud"
	"tigris/internal/geom"
	"tigris/internal/registration"
)

// TestPublicAPIEndToEnd drives the whole public surface the way the
// quickstart example does: dataset → registration → evaluation →
// accelerator simulation → baseline comparison.
func TestPublicAPIEndToEnd(t *testing.T) {
	seq := tigris.GenerateSequence(tigris.QuickSequenceConfig(2, 8))
	if seq.Len() != 2 || seq.Frames[0].Len() == 0 {
		t.Fatal("sequence generation failed")
	}

	cfg := tigris.DefaultPipelineConfig()
	res := tigris.Register(seq.Frames[1], seq.Frames[0], cfg)
	e := tigris.EvaluatePair(res.Transform, seq.GroundTruthDelta(0))
	if math.IsNaN(e.TranslationalPct) || e.TranslationalPct < 0 {
		t.Fatalf("bad error metric: %+v", e)
	}
	if res.Total <= 0 || res.KDSearchTime <= 0 {
		t.Fatal("instrumentation missing")
	}

	agg := tigris.AggregateErrors([]tigris.FrameError{e, e})
	if agg.Frames != 2 {
		t.Fatal("aggregation broken")
	}

	// Search structures.
	pts := seq.Frames[0].Points
	kd := tigris.BuildKDTree(pts)
	two := tigris.BuildTwoStageTreeWithLeafSize(pts, 64)
	q := pts[0]
	a, _ := kd.Nearest(q, nil)
	b, _ := two.Nearest(q, nil)
	if a.Index != b.Index {
		t.Fatal("tree variants disagree")
	}

	// Accelerator + baselines. The workload must be frame-scale for the
	// GPU's throughput to beat its kernel-launch overhead.
	w := tigris.SimWorkload{Kind: tigris.NNSearch, Queries: pts}
	rep, err := tigris.Simulate(two, w, tigris.DefaultAccelConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles == 0 || len(rep.NNResults) != len(pts) {
		t.Fatal("simulation empty")
	}
	prof := tigris.ProfileCanonicalSearch(kd, w)
	if tigris.GPUBaseline().Time(prof) <= 0 || tigris.CPUBaseline().Time(prof) <= 0 {
		t.Fatal("baseline models broken")
	}
	if tigris.GPUBaseline().Time(prof) >= tigris.CPUBaseline().Time(prof) {
		t.Fatal("GPU should beat CPU at this workload size")
	}
}

func TestPublicAPICloudHelpers(t *testing.T) {
	c := tigris.NewCloud(3)
	c.Points = append(c.Points,
		geom.V3(0.1, 0.1, 0), geom.V3(0.2, 0.2, 0), geom.V3(5, 5, 0))
	d := tigris.VoxelDownsample(c, 1.0)
	if d.Len() != 2 {
		t.Fatalf("downsample = %d cells", d.Len())
	}
	var buf bytes.Buffer
	if err := tigris.WriteCloud(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := cloud.Read(&buf)
	if err != nil || back.Len() != d.Len() {
		t.Fatalf("cloud IO round trip: %v", err)
	}
}

func TestPublicAPIDesignPoints(t *testing.T) {
	dps := tigris.NamedDesignPoints()
	if len(dps) != 8 {
		t.Fatalf("expected DP1..DP8, got %d", len(dps))
	}
	if !reflect.DeepEqual(tigris.DefaultPipelineConfig(), dps[4].Config) {
		t.Fatal("the default pipeline is not DP5")
	}
	seq := tigris.GenerateSequence(tigris.QuickSequenceConfig(2, 9))
	if res := tigris.Register(seq.Frames[1], seq.Frames[0], dps[3].Config); res.Total <= 0 { // DP4
		t.Fatal("design point registration produced no timing")
	}
}

// TestPublicAPIStream drives the streaming engine surface: push a short
// synthetic sequence, drain, and check the trajectory matches the
// per-pair loop that prepares both clouds of every pair and aligns it
// from the previous pair's delta (bit-identical for the exact backend).
func TestPublicAPIStream(t *testing.T) {
	const frames = 3
	seq := tigris.GenerateSequence(tigris.QuickSequenceConfig(frames, 12))
	cfg := tigris.DefaultPipelineConfig()

	ref := make([]*cloud.Cloud, frames)
	for i, f := range seq.Frames {
		ref[i] = f.Clone()
	}

	eng := tigris.NewStream(tigris.StreamConfig{Pipeline: cfg, Pipelined: true})
	for _, f := range seq.Frames {
		if _, err := eng.Push(f); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	eng.Close()
	traj := eng.Trajectory()
	if traj.Len() != frames {
		t.Fatalf("trajectory has %d frames, want %d", traj.Len(), frames)
	}
	prior := tigris.IdentityTransform()
	for i := 1; i < frames; i++ {
		src, dst := registration.PrepareFrame(ref[i], cfg), registration.PrepareFrame(ref[i-1], cfg)
		prior = registration.AlignFrom(src, dst, cfg, prior).Transform
		if traj.Frames[i].Delta != prior {
			t.Fatalf("frame %d: streamed delta differs from the per-pair loop", i)
		}
	}
	if st := eng.Stats(); st.FramesPrepared != frames || st.DescriptorBuilds != frames {
		t.Fatalf("front-end not build-once: %+v", st)
	}
}

func TestPublicAPITransforms(t *testing.T) {
	tr := tigris.IdentityTransform()
	if !tr.NearlyEqual(tr.Compose(tr), 1e-12) {
		t.Fatal("identity compose broken")
	}
	v := geom.V3(1, 2, 3)
	if tr.Apply(v) != v {
		t.Fatal("identity apply broken")
	}
}

// TestFacadeNamesHaveAConsumer keeps the facade at what its traffic
// uses: every exported package-level name in tigris.go must appear as
// tigris.<Name> in a file under examples/ or in README.md.
func TestFacadeNamesHaveAConsumer(t *testing.T) {
	var traffic []byte
	examples, err := filepath.Glob("examples/*/*.go")
	if err != nil || len(examples) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	for _, name := range append(examples, "README.md") {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		traffic = append(traffic, b...)
	}
	f, err := parser.ParseFile(token.NewFileSet(), "tigris.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []*ast.Ident
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			names = append(names, d.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					names = append(names, sp.Name)
				case *ast.ValueSpec:
					names = append(names, sp.Names...)
				}
			}
		}
	}
	for _, name := range names {
		if !name.IsExported() {
			continue
		}
		if ok, _ := regexp.Match(`\btigris\.`+name.Name+`\b`, traffic); !ok {
			t.Errorf("tigris.%s is used by no example and no README snippet", name.Name)
		}
	}
}
