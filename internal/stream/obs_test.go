package stream

import (
	"sync"
	"testing"

	"tigris/internal/obs"
	"tigris/internal/search"
)

// TestRecordingInert is the tentpole's determinism contract: telemetry
// only taps durations the pipeline already measured, so an identical
// session with a recorder attached must produce a bit-identical
// trajectory — poses AND deltas — to one recording nothing. Covers both
// pipelining modes, since the recorder also sits on the pipeline
// hand-off paths there.
func TestRecordingInert(t *testing.T) {
	const frames = 4
	seq := testSeq(t, frames, 51)
	cfg := testConfig(search.BackendCanonical)

	// The session's one recorder is the pipeline's: set there and nowhere
	// else, it receives the engine's samples as well as the stages'. New
	// must not replace it with one of its own, or a recorder set only on
	// the pipeline records nothing.
	only := cfg
	only.Obs = obs.NewRecorder()
	runStream(cloneFrames(seq)[:2], Config{Pipeline: only})
	for _, stage := range []string{obs.StagePrep, obs.StageAlign, obs.StageFrame} {
		if only.Obs.Summaries()[stage].Count == 0 {
			t.Fatalf("a recorder set only on the pipeline config recorded no %s sample", stage)
		}
	}

	for _, pipelined := range []bool{false, true} {
		off, _ := runStream(cloneFrames(seq), Config{Pipeline: cfg, Pipelined: pipelined})

		rec := obs.NewRecorder()
		onCfg := cfg
		onCfg.Obs = rec
		on, _ := runStream(cloneFrames(seq), Config{Pipeline: onCfg, Pipelined: pipelined})

		if on.Len() != off.Len() {
			t.Fatalf("pipelined=%v: %d frames with recording, %d without", pipelined, on.Len(), off.Len())
		}
		for i := range off.Poses {
			if on.Poses[i] != off.Poses[i] {
				t.Fatalf("pipelined=%v: pose %d differs with recording on", pipelined, i)
			}
			if on.Frames[i].Delta != off.Frames[i].Delta {
				t.Fatalf("pipelined=%v: delta %d differs with recording on", pipelined, i)
			}
		}

		// And the recorder actually saw the pipeline: per-stage and
		// whole-frame histograms must hold the expected sample counts.
		sums := rec.Summaries()
		if got := sums[obs.StageFrame].Count; got != frames {
			t.Fatalf("pipelined=%v: %d frame samples, want %d", pipelined, got, frames)
		}
		if got := sums[obs.StagePrep].Count; got != frames {
			t.Fatalf("pipelined=%v: %d prep samples, want %d", pipelined, got, frames)
		}
		if got := sums[obs.StageAlign].Count; got != frames-1 {
			t.Fatalf("pipelined=%v: %d align samples, want %d", pipelined, got, frames-1)
		}
		if pipelined {
			if got := sums[obs.StageQueueWaitPrep].Count; got != frames {
				t.Fatalf("%d queue_wait_prep samples, want %d", got, frames)
			}
			if got := sums[obs.StageQueueWaitAlign].Count; got != frames {
				t.Fatalf("%d queue_wait_align samples, want %d", got, frames)
			}
		} else if _, ok := sums[obs.StageQueueWaitPrep]; ok {
			t.Fatal("sequential mode recorded a queue-wait span")
		}
	}
}

// TestStatsConcurrentPolling hammers Stats and Pending from pollers
// while a pipelined session streams — the /stats endpoint's access
// pattern. The counters are atomics, so under -race this asserts the
// snapshot path really is synchronization-clean, and afterwards the
// drained session's counts must be exact.
func TestStatsConcurrentPolling(t *testing.T) {
	const frames = 4
	seq := testSeq(t, frames, 52)
	cfg := testConfig(search.BackendCanonical)
	cfg.Obs = obs.NewRecorder()
	eng := New(Config{Pipeline: cfg, Pipelined: true})

	stop := make(chan struct{})
	var pollers sync.WaitGroup
	for p := 0; p < 3; p++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					st := eng.Stats()
					if st.FramesPrepared > frames {
						t.Errorf("FramesPrepared = %d, beyond the %d pushed", st.FramesPrepared, frames)
						return
					}
					_ = eng.Pending()
				}
			}
		}()
	}

	for _, f := range cloneFrames(seq) {
		if _, err := eng.Push(f); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	close(stop)
	pollers.Wait()
	eng.Close()

	st := eng.Stats()
	if st.FramesPushed != frames || st.FramesPrepared != frames || st.PairsAligned != frames-1 {
		t.Fatalf("drained counts pushed/prepared/aligned = %d/%d/%d, want %d/%d/%d",
			st.FramesPushed, st.FramesPrepared, st.PairsAligned, frames, frames, frames-1)
	}
	if st.TreeBuilds != frames {
		t.Fatalf("tree builds = %d, want %d", st.TreeBuilds, frames)
	}
}
