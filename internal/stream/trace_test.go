package stream

import (
	"testing"

	"tigris/internal/obs"
	"tigris/internal/search"
)

// TestTracingInert extends the recording-determinism contract to the
// flight recorder: a session with span tracing on must produce a
// bit-identical trajectory to one with it off, in both pipelining
// modes — tracing only records durations the pipeline already measured.
// It also pins the span-tree shape: one root span per frame with the
// deterministic id idx+1, and every stage span parented to its frame's
// root under the session's one trace id.
func TestTracingInert(t *testing.T) {
	const frames = 4
	seq := testSeq(t, frames, 53)
	cfg := testConfig(search.BackendCanonical)
	for _, pipelined := range []bool{false, true} {
		off, _ := runStream(cloneFrames(seq), Config{Pipeline: cfg, Pipelined: pipelined})

		fr := obs.NewFlightRecorder(4096, 2)
		trace := obs.NewTraceID()
		on, _ := runStream(cloneFrames(seq), Config{Pipeline: cfg, Pipelined: pipelined, Flight: fr, Trace: trace})

		if on.Len() != off.Len() {
			t.Fatalf("pipelined=%v: %d frames with tracing, %d without", pipelined, on.Len(), off.Len())
		}
		for i := range off.Poses {
			if on.Poses[i] != off.Poses[i] {
				t.Fatalf("pipelined=%v: pose %d differs with tracing on", pipelined, i)
			}
			if on.Frames[i].Delta != off.Frames[i].Delta {
				t.Fatalf("pipelined=%v: delta %d differs with tracing on", pipelined, i)
			}
		}

		evs := fr.Events()
		if len(evs) == 0 {
			t.Fatalf("pipelined=%v: flight recorder saw nothing", pipelined)
		}
		roots := map[uint64]int32{} // frame span id -> frame index
		for _, ev := range evs {
			if ev.Trace != trace {
				t.Fatalf("pipelined=%v: span %q carries trace %s, want %s", pipelined, ev.Stage, ev.Trace, trace)
			}
			if ev.Stage == obs.StageFrame {
				if ev.Parent != 0 {
					t.Fatalf("frame span has parent %d, want root", ev.Parent)
				}
				if want := uint64(ev.Frame) + 1; ev.Span != want {
					t.Fatalf("frame %d span id = %d, want deterministic %d", ev.Frame, ev.Span, want)
				}
				roots[ev.Span] = ev.Frame
			}
		}
		if len(roots) != frames {
			t.Fatalf("pipelined=%v: %d frame root spans, want %d", pipelined, len(roots), frames)
		}
		for _, ev := range evs {
			if ev.Stage == obs.StageFrame || ev.Stage == obs.StagePoseGraph {
				continue
			}
			frame, ok := roots[ev.Parent]
			if !ok {
				t.Fatalf("pipelined=%v: %q span parented to unknown span %d", pipelined, ev.Stage, ev.Parent)
			}
			if frame != ev.Frame {
				t.Fatalf("pipelined=%v: %q span tagged frame %d but parented to frame %d's root",
					pipelined, ev.Stage, ev.Frame, frame)
			}
		}

		// Slowest-K exemplars for the whole-frame stage retain subtrees.
		slow := fr.Slowest()[obs.StageFrame]
		if len(slow) == 0 {
			t.Fatalf("pipelined=%v: no frame exemplars retained", pipelined)
		}
		for _, ex := range slow {
			if len(ex.Events) < 2 {
				t.Fatalf("pipelined=%v: frame %d exemplar subtree has %d events, want root plus stage children",
					pipelined, ex.Frame, len(ex.Events))
			}
		}
	}
}

// TestFlightRecorderKeepsTheWholeSession: an unpipelined 40-frame
// session records about 400 spans, all from one goroutine; a 1,024-event
// recorder keeps every one of them, frame 0's root included. Every span
// the engine records is also one sample in a stage histogram.
func TestFlightRecorderKeepsTheWholeSession(t *testing.T) {
	cfg := testConfig(search.BackendCanonical)
	rec := obs.NewRecorder()
	cfg.Obs = rec
	fr := obs.NewFlightRecorder(1024, 1)
	runStream(cloneFrames(testSeq(t, 40, 53)), Config{Pipeline: cfg, Flight: fr})

	var recorded int64
	for _, s := range rec.Summaries() {
		recorded += s.Count
	}
	evs := fr.Events()
	if int64(len(evs)) != recorded || recorded > 1024 {
		t.Fatalf("flight recorder kept %d of the %d spans recorded", len(evs), recorded)
	}
	for _, ev := range evs {
		if ev.Stage == obs.StageFrame && ev.Frame == 0 {
			return
		}
	}
	t.Fatal("frame 0's root span is gone")
}

// TestTracingDefaultsTraceID pins that an engine given a flight
// recorder but no trace id mints one and stamps it on every span.
func TestTracingDefaultsTraceID(t *testing.T) {
	seq := testSeq(t, 2, 54)
	fr := obs.NewFlightRecorder(256, 1)
	eng := New(Config{Pipeline: testConfig(search.BackendCanonical), Flight: fr})
	for _, f := range cloneFrames(seq) {
		if _, err := eng.Push(f); err != nil {
			t.Fatal(err)
		}
	}
	eng.Close()
	events := fr.Events()
	if len(events) == 0 {
		t.Fatal("no spans recorded")
	}
	trace := events[0].Trace
	if trace.IsZero() {
		t.Fatal("engine with a flight recorder minted no trace id")
	}
	for _, ev := range events {
		if ev.Trace != trace {
			t.Fatalf("span %q trace %s != first span's trace %s", ev.Stage, ev.Trace, trace)
		}
	}
}
