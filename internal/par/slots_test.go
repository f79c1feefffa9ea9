package par_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"tigris/internal/dse"
	"tigris/internal/loop"
	"tigris/internal/par"
	"tigris/internal/stream"
	"tigris/internal/synth"
)

// The budget's two promises, checked on the engine that relies on them
// (an external test package, so it can drive internal/stream, which
// imports par).

// circuit renders a short closed-circuit drive whose frames propose loop
// candidates (too few to accept one; they are verified all the same).
func circuit(frames int) *synth.Sequence {
	cfg := synth.QuickSequenceConfig(frames, 77)
	cfg.Trajectory = synth.CircuitTrajectory{Radius: 3, FramesPerLap: 40}
	return synth.GenerateSequence(cfg)
}

// session is a pipelined session at DP4 (downsampled, point-to-plane,
// cheap) asking for four workers in every stage.
func session(withLoop bool) stream.Config {
	cfg := dse.NamedDesignPoints()[3].Config
	cfg.Searcher.Parallelism = 4
	sc := stream.Config{Pipeline: cfg, Pipelined: true}
	if withLoop {
		sc.Loop = &loop.Config{MinSeparation: 6, MaxCandidates: 2, Cooldown: 1}
	}
	return sc
}

// TestSlotsNeverExceedBudget is the slot-exact half: three stages that
// each ask for four workers, on a budget of two slots, never have more
// than two goroutines computing — and do have two, so the bound is not
// met by running everything one-wide.
func TestSlotsNeverExceedBudget(t *testing.T) {
	par.WithBudget(t, 2)
	var inUse, high atomic.Int64
	par.Probe(t, func(delta int) {
		n := inUse.Add(int64(delta))
		for h := high.Load(); n > h && !high.CompareAndSwap(h, n); h = high.Load() {
		}
	}, nil)
	eng := stream.New(session(true))
	for _, f := range circuit(14).Frames {
		if _, err := eng.Push(f.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	eng.Close()
	if st := eng.Stats(); st.Loop.Verified == 0 || st.PairsAligned == 0 {
		t.Fatalf("the session aligned %d pairs and verified %d candidates: not all three stages ran", st.PairsAligned, st.Loop.Verified)
	}
	if h := high.Load(); h != 2 {
		t.Errorf("at most %d slots were in use at once on a budget of 2", h)
	}
	if n := inUse.Load(); n != 0 || par.SlotsInUse() != 0 {
		t.Errorf("%d slots (%d by the budget's count) still held after the session closed", n, par.SlotsInUse())
	}
}

// grants collects what every parallel loop asked for and was granted.
type grants struct {
	mu    sync.Mutex
	loops [][2]int
}

func (g *grants) record(asked, granted int) {
	g.mu.Lock()
	g.loops = append(g.loops, [2]int{asked, granted})
	g.mu.Unlock()
}

// oneFrameInFlight pushes two frames through a fresh session, waiting for
// each before pushing the next, so no two stages ever compute at once.
func oneFrameInFlight(t *testing.T) {
	t.Helper()
	eng := stream.New(session(false))
	defer eng.Close()
	for _, f := range circuit(2).Frames {
		if _, err := eng.Push(f.Clone()); err != nil {
			t.Fatal(err)
		}
		eng.Drain()
	}
}

// TestLoneStageGetsFullWidth is the work-conserving half: a stage running
// alone is granted the full width. With one frame in flight the
// neighbouring stage is idle, so every loop of the frame's front-end and
// of its alignment gets all it asked for, up to the budget.
func TestLoneStageGetsFullWidth(t *testing.T) {
	par.WithBudget(t, 2)
	var g grants
	par.Probe(t, nil, g.record)
	oneFrameInFlight(t)
	wide := 0
	for _, l := range g.loops {
		if want := min(l[0], 2); l[1] != want {
			t.Fatalf("a loop asking for %d workers was granted %d with its neighbour idle, want %d", l[0], l[1], want)
		}
		if l[0] == 4 {
			wide++
		}
	}
	if wide == 0 {
		t.Fatalf("none of the frame's %d loops asked for the session's Parallelism", len(g.loops))
	}
}

// TestBusyNeighbourLendsNothing: with both slots of a budget of two held
// by busy stages — the session's own, and a neighbour played by the test
// — neither is granted a helper.
func TestBusyNeighbourLendsNothing(t *testing.T) {
	par.WithBudget(t, 2)
	var g grants
	par.Probe(t, nil, g.record)
	par.Acquire()
	defer par.Release()
	oneFrameInFlight(t)
	if len(g.loops) == 0 {
		t.Fatal("the frame ran no parallel loop")
	}
	for _, l := range g.loops {
		if l[1] != 1 {
			t.Fatalf("a loop asking for %d workers was granted %d beside a busy neighbour", l[0], l[1])
		}
	}
}
