package stream

import (
	"sync"
	"testing"

	"tigris/internal/cloud"
	"tigris/internal/dse"
	"tigris/internal/geom"
	"tigris/internal/kdtree"
	"tigris/internal/loop"
	"tigris/internal/par"
	"tigris/internal/registration"
	"tigris/internal/search"
	"tigris/internal/synth"
)

// testSeq generates a small synthetic drive shared by the tests.
func testSeq(t testing.TB, frames int, seed int64) *synth.Sequence {
	t.Helper()
	return synth.GenerateSequence(synth.QuickSequenceConfig(frames, seed))
}

// testConfig is a front-end-on-raw configuration (no voxel leaf) so each
// frame needs exactly one search index.
func testConfig(backend string) registration.PipelineConfig {
	cfg := registration.PipelineConfig{}
	cfg.Searcher.Backend = backend
	cfg.Rejection.Method = registration.RejectRANSAC
	cfg.Rejection.Seed = 7
	cfg.ICP.MaxIterations = 12
	return cfg
}

// cloneFrames deep-copies a sequence's clouds. Neither the engine nor
// Register writes into its input (each quantizes a copy), but equivalence
// runs take their own copies so no run can see another's frames.
func cloneFrames(seq *synth.Sequence) []*cloud.Cloud {
	out := make([]*cloud.Cloud, len(seq.Frames))
	for i, f := range seq.Frames {
		out[i] = f.Clone()
	}
	return out
}

// runStream pushes every frame through a fresh engine and returns the
// final trajectory and stats.
func runStream(frames []*cloud.Cloud, cfg Config) (Trajectory, Stats) {
	eng := New(cfg)
	for _, f := range frames {
		if _, err := eng.Push(f); err != nil {
			panic(err)
		}
	}
	eng.Close()
	return eng.Trajectory(), eng.Stats()
}

// TestStreamMatchesPerPairExact is the tentpole acceptance test: for the
// exact backends, a streamed session's deltas and poses are bit-identical
// to the sequential per-pair Register loop, pipelined or not.
func TestStreamMatchesPerPairExact(t *testing.T) {
	const frames = 4
	seq := testSeq(t, frames, 21)
	for _, kind := range []string{search.BackendCanonical, search.BackendTwoStage} {
		cfg := testConfig(kind)

		// Reference: the classic per-pair loop.
		ref := cloneFrames(seq)
		wantDeltas := make([]geom.Transform, 0, frames-1)
		for i := 0; i+1 < frames; i++ {
			res := registration.Register(ref[i+1], ref[i], cfg)
			wantDeltas = append(wantDeltas, res.Transform)
		}

		for _, pipelined := range []bool{false, true} {
			traj, _ := runStream(cloneFrames(seq), Config{Pipeline: cfg, Pipelined: pipelined})
			if traj.Len() != frames {
				t.Fatalf("%v pipelined=%v: trajectory has %d frames, want %d", kind, pipelined, traj.Len(), frames)
			}
			pose := geom.IdentityTransform()
			for i, fr := range traj.Frames {
				if i == 0 {
					if fr.Delta != geom.IdentityTransform() {
						t.Fatalf("%v: frame 0 delta not identity", kind)
					}
				} else if fr.Delta != wantDeltas[i-1] {
					t.Fatalf("%v pipelined=%v: frame %d delta differs from per-pair Register", kind, pipelined, i)
				}
				pose = poseOrCompose(pose, fr, i)
				if traj.Poses[i] != pose {
					t.Fatalf("%v pipelined=%v: frame %d pose not the composed deltas", kind, pipelined, i)
				}
			}
		}
	}
}

func poseOrCompose(prev geom.Transform, fr FrameResult, i int) geom.Transform {
	if i == 0 {
		return geom.IdentityTransform()
	}
	return prev.Compose(fr.Delta)
}

// TestStreamBuildOnceStats asserts the reuse contract: N pushed frames
// cost exactly N front-end preparations, N descriptor builds, and N tree
// builds (no voxel leaf ⇒ one index per frame) — where the per-pair loop
// prepares 2(N−1) clouds.
func TestStreamBuildOnceStats(t *testing.T) {
	const frames = 5
	seq := testSeq(t, frames, 22)
	_, stats := runStream(cloneFrames(seq), Config{Pipeline: testConfig(search.BackendCanonical), Pipelined: true})
	if stats.FramesPushed != frames || stats.FramesPrepared != frames {
		t.Fatalf("pushed/prepared = %d/%d, want %d/%d", stats.FramesPushed, stats.FramesPrepared, frames, frames)
	}
	if stats.DescriptorBuilds != frames {
		t.Fatalf("descriptor builds = %d, want %d (per-pair would be %d)", stats.DescriptorBuilds, frames, 2*(frames-1))
	}
	if stats.TreeBuilds != frames {
		t.Fatalf("tree builds = %d, want %d", stats.TreeBuilds, frames)
	}
	if stats.PairsAligned != frames-1 {
		t.Fatalf("pairs aligned = %d, want %d", stats.PairsAligned, frames-1)
	}
	if stats.Search.Queries == 0 || stats.Search.BuildTime <= 0 {
		t.Fatal("released-frame search metrics not folded into session stats")
	}
}

// TestStreamDownsampledFineIndex covers the voxel-leaf path: each target
// frame lazily builds one extra raw-cloud index, and the trajectory still
// matches the per-pair loop bit for bit.
func TestStreamDownsampledFineIndex(t *testing.T) {
	const frames = 3
	seq := testSeq(t, frames, 23)
	cfg := testConfig(search.BackendCanonical)
	cfg.VoxelLeaf = 0.4

	ref := cloneFrames(seq)
	var wantDeltas []geom.Transform
	for i := 0; i+1 < frames; i++ {
		wantDeltas = append(wantDeltas, registration.Register(ref[i+1], ref[i], cfg).Transform)
	}

	traj, stats := runStream(cloneFrames(seq), Config{Pipeline: cfg, Pipelined: true})
	for i := 1; i < frames; i++ {
		if traj.Frames[i].Delta != wantDeltas[i-1] {
			t.Fatalf("frame %d delta differs under downsampling", i)
		}
	}
	// One front-end index per frame + one fine index per *target* frame
	// (the last frame is never a target).
	want := int64(frames + frames - 1)
	if stats.TreeBuilds != want {
		t.Fatalf("tree builds = %d, want %d", stats.TreeBuilds, want)
	}
}

// TestStreamApproxDeterministic runs the approximate backend twice and
// expects identical trajectories (chunk-determinism carries over to the
// session), pipelined and not — on the front-end-on-raw configuration and
// on a downsampled point-to-plane one, whose fine-tuning estimates the
// target's raw normals on demand: the batches those queries form depend
// on the matches of each ICP iteration, not on the schedule, so the
// trajectory must also be the same at any Parallelism.
func TestStreamApproxDeterministic(t *testing.T) {
	const frames = 3
	seq := testSeq(t, frames, 24)
	onRaw := testConfig(search.BackendTwoStageApprox)
	plane := testConfig(search.BackendTwoStageApprox)
	plane.VoxelLeaf = 0.4
	plane.ICP.Metric = registration.PointToPlane
	plane.ICP.SourceStride = 2
	for name, cfg := range map[string]registration.PipelineConfig{"front-end on raw": onRaw, "point-to-plane, downsampled": plane} {
		cfg.Searcher.Parallelism = 1
		want, st := runStream(cloneFrames(seq), Config{Pipeline: cfg, Pipelined: false})
		if lazy := cfg.VoxelLeaf > 0; lazy != (st.FineNormals > 0) {
			t.Errorf("%s: %d normals estimated on demand", name, st.FineNormals)
		}
		for _, p := range []int{1, 4} {
			for _, pipelined := range []bool{true, false} {
				cfg.Searcher.Parallelism = p
				got, _ := runStream(cloneFrames(seq), Config{Pipeline: cfg, Pipelined: pipelined})
				for i := range want.Poses {
					if got.Poses[i] != want.Poses[i] {
						t.Fatalf("%s: approximate backend diverged at frame %d (parallelism %d, pipelined %v)", name, i, p, pipelined)
					}
				}
			}
		}
	}
}

// TestStreamConcurrentSessions exercises the server shape under the race
// detector: several engines share one Limiter, each fed from its own
// goroutine, with trajectory snapshots read mid-flight.
func TestStreamConcurrentSessions(t *testing.T) {
	const sessions = 3
	const frames = 3
	lim := NewLimiter(2)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			seq := testSeq(t, frames, seed)
			eng := New(Config{Pipeline: testConfig(search.BackendCanonical), Pipelined: true, Limiter: lim})
			for _, f := range cloneFrames(seq) {
				if _, err := eng.Push(f); err != nil {
					t.Error(err)
					return
				}
				_ = eng.Trajectory() // snapshot while streaming
			}
			eng.Drain()
			if got := eng.Trajectory().Len(); got != frames {
				t.Errorf("session drained with %d frames, want %d", got, frames)
			}
			eng.Close()
			if _, err := eng.Push(cloud.New(0)); err != errClosed {
				t.Errorf("push after close: err = %v, want errClosed", err)
			}
		}(int64(30 + s))
	}
	wg.Wait()
}

// TestStreamOrigin anchors the first frame at a non-identity origin.
func TestStreamOrigin(t *testing.T) {
	seq := testSeq(t, 2, 25)
	origin := geom.Transform{R: geom.RotZ(0.3), T: geom.V3(4, 5, 6)}
	traj, _ := runStream(cloneFrames(seq), Config{Pipeline: testConfig(search.BackendCanonical), Origin: &origin})
	if traj.Poses[0] != origin {
		t.Fatalf("pose 0 = %+v, want origin", traj.Poses[0])
	}
	if traj.Poses[1] != origin.Compose(traj.Frames[1].Delta) {
		t.Fatal("pose 1 not composed from origin")
	}
}

// TestPending: the uncommitted-frame counter servers use to tell idle
// sessions from busy ones. A saturated limiter holds the front-end
// before it starts, so the pushed frame stays pending deterministically.
func TestPending(t *testing.T) {
	lim := NewLimiter(1)
	lim <- struct{}{} // occupy the only slot: prepare cannot start
	eng := New(Config{Pipeline: testConfig(search.BackendCanonical), Pipelined: true, Limiter: lim})
	seq := testSeq(t, 1, 70)
	if eng.Pending() != 0 {
		t.Fatalf("fresh engine Pending = %d", eng.Pending())
	}
	if _, err := eng.Push(seq.Frames[0].Clone()); err != nil {
		t.Fatal(err)
	}
	if eng.Pending() != 1 {
		t.Fatalf("Pending = %d with a queued frame", eng.Pending())
	}
	<-lim // release the stage slot
	eng.Drain()
	if eng.Pending() != 0 {
		t.Fatalf("Pending = %d after Drain", eng.Pending())
	}
	eng.Close()
}

// slotLog is what a slotSearcher writes down: the process's slots in use
// (internal/par) at the moment each of its batches began.
type slotLog struct {
	mu    sync.Mutex
	inUse []int
}

// slotSearcher is the canonical searcher noting, as a batch begins on the
// stage's goroutine, how many slots are held.
type slotSearcher struct {
	search.Searcher
	log *slotLog
}

func (s *slotSearcher) note() {
	s.log.mu.Lock()
	s.log.inUse = append(s.log.inUse, par.SlotsInUse())
	s.log.mu.Unlock()
}

func (s *slotSearcher) NearestBatch(qs []geom.Vec3) []kdtree.Neighbor {
	s.note()
	return s.Searcher.NearestBatch(qs)
}

func (s *slotSearcher) RadiusBatch(qs []geom.Vec3, r float64) [][]kdtree.Neighbor {
	s.note()
	return s.Searcher.RadiusBatch(qs, r)
}

// slotBackend registers the slotSearcher backend once a process (so
// -count=N works); every searcher it builds writes to the one log.
var slotBackend struct {
	once sync.Once
	log  slotLog
}

const slotBackendName = "test-stream-slots"

// TestAdaptiveSplitRebalances: a stage running alone is granted the full
// width — the engine's half of it. (The name is the one the EWMA pool
// split was tested under; the slot budget replaced it.) With one frame in
// flight the other stages are idle or blocked on a channel, and an idle
// stage must hold no slot: at the start of every batch of the frame's
// front-end and of its alignment the only slot in use is the one the
// batch's own stage computes on, so every other slot of the budget is
// free for its loops to borrow — which they do, all of them, up to
// Parallelism (internal/par: TestLoopBorrowsOnlyFreeSlots on one loop,
// TestLoneStageGetsFullWidth on this engine).
func TestAdaptiveSplitRebalances(t *testing.T) {
	slotBackend.once.Do(func() {
		err := search.RegisterBackend(search.NewBackend(slotBackendName, func(slab *cloud.Slab, opts search.Options) (search.Searcher, error) {
			inner, err := search.NewByNameSlab(search.BackendCanonical, slab, opts)
			if err != nil {
				return nil, err
			}
			return &slotSearcher{Searcher: inner, log: &slotBackend.log}, nil
		}))
		if err != nil {
			t.Fatal(err)
		}
	})
	cfg := testConfig(slotBackendName)
	cfg.Searcher.Parallelism = 4
	slotBackend.log.inUse = nil
	eng := New(Config{Pipeline: cfg, Pipelined: true})
	for _, f := range cloneFrames(testSeq(t, 3, 26)) {
		if _, err := eng.Push(f); err != nil {
			t.Fatal(err)
		}
		eng.Drain()
	}
	eng.Close()
	if len(slotBackend.log.inUse) == 0 {
		t.Fatal("the session issued no batch")
	}
	for i, n := range slotBackend.log.inUse {
		if n != 1 {
			t.Fatalf("batch %d of %d began with %d slots in use, want 1: its own stage's, the idle neighbour's lent", i, len(slotBackend.log.inUse), n)
		}
	}
	if n := par.SlotsInUse(); n != 0 {
		t.Errorf("%d slots in use after the session closed", n)
	}
}

// TestAdaptiveSplitNarrowPool: a budget of one slot completes a pipelined
// three-stage session. The test holds every slot of the process's budget
// but one, so the front-end, alignment and loop verification — each asking
// for four workers — take turns on the one that is left, nothing can ever
// borrow, and nothing deadlocks; the trajectory is the sequential one.
// (internal/par's own tests cover the other widths on this engine: a busy
// neighbour lends nothing, and no more goroutines compute than there are
// slots.)
func TestAdaptiveSplitNarrowPool(t *testing.T) {
	for i := 1; i < par.Slots(); i++ {
		par.Acquire()
		defer par.Release()
	}
	cfg := dse.NamedDesignPoints()[3].Config // DP4: cheap
	cfg.Searcher.Parallelism = 4
	lc := &loop.Config{MinSeparation: 6, MaxCandidates: 2, Cooldown: 1}
	seq := slamSequence(10)
	want, _ := runStream(cloneFrames(seq), Config{Pipeline: cfg, Loop: lc})
	eng := New(Config{Pipeline: cfg, Pipelined: true, Loop: lc})
	for _, f := range cloneFrames(seq) {
		if _, err := eng.Push(f); err != nil {
			t.Fatal(err)
		}
	}
	eng.Close()
	got, st := eng.Trajectory(), eng.Stats()
	if st.Loop.Verified == 0 {
		t.Fatal("no loop candidate was verified: the third stage never ran")
	}
	if got.Len() != want.Len() {
		t.Fatalf("%d of %d frames committed", got.Len(), want.Len())
	}
	for i := range want.Poses {
		if got.Poses[i] != want.Poses[i] {
			t.Fatalf("frame %d: pose differs from the sequential session's", i)
		}
	}
	if n := par.SlotsInUse(); n != par.Slots()-1 {
		t.Errorf("%d slots in use after the session closed, want the %d this test holds", n, par.Slots()-1)
	}
}

// TestStreamPipelinedAdaptiveMatchesRegister: which slots a stage's loops
// could borrow changes only worker counts, and exact backends are
// parallelism-invariant, so a pipelined session whose stages lend each
// other the machine must still be bit-identical to the per-pair Register
// loop.
func TestStreamPipelinedAdaptiveMatchesRegister(t *testing.T) {
	seq := testSeq(t, 4, 41)
	cfg := testConfig(search.BackendCanonical)
	cfg.Searcher.Parallelism = 4

	ref := cloneFrames(seq)
	var want []geom.Transform
	for i := 0; i+1 < len(ref); i++ {
		res := registration.Register(ref[i+1], ref[i], cfg)
		want = append(want, res.Transform)
	}

	traj, _ := runStream(cloneFrames(seq), Config{Pipeline: cfg, Pipelined: true})
	for i, w := range want {
		if got := traj.Frames[i+1].Delta; got != w {
			t.Fatalf("pair %d: adaptive pipelined delta differs from Register:\n%v\nvs\n%v", i, got, w)
		}
	}
}
