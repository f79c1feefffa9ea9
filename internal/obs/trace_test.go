package obs

import (
	"encoding/hex"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceIDRoundTrip(t *testing.T) {
	id := NewTraceID()
	if id.IsZero() {
		t.Fatal("NewTraceID returned the zero id")
	}
	s := id.String()
	if len(s) != 32 || strings.ToLower(s) != s {
		t.Fatalf("String() = %q, want 32 lowercase hex chars", s)
	}
	back, ok := ParseTraceID(s)
	if !ok || back != id {
		t.Fatalf("ParseTraceID(%q) = %v, %v", s, back, ok)
	}
	if id2 := NewTraceID(); id2 == id {
		t.Fatal("two NewTraceID calls collided")
	}

	for _, bad := range []string{
		"",
		"0102",
		strings.Repeat("0", 32), // all-zero forbidden
		strings.Repeat("g", 32), // not hex
		strings.Repeat("a", 31), // short
		strings.Repeat("a", 33), // long
	} {
		if _, ok := ParseTraceID(bad); ok {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
}

func TestTraceParentRoundTrip(t *testing.T) {
	id := NewTraceID()
	for _, span := range []uint64{0, 1, 0xdeadbeef} {
		hdr := FormatTraceParent(id, span)
		if len(hdr) != 55 {
			t.Fatalf("FormatTraceParent len = %d, want 55 (%q)", len(hdr), hdr)
		}
		back, ok := ParseTraceParent(hdr)
		if !ok || back != id {
			t.Fatalf("ParseTraceParent(%q) = %v, %v", hdr, back, ok)
		}
	}

	for _, bad := range []string{
		"",
		"00-" + strings.Repeat("0", 32) + "-0000000000000001-01", // all-zero trace id
		"01-" + NewTraceID().String() + "-0000000000000001-01",   // unknown version
		"00-" + NewTraceID().String() + "-0000000000000001",      // truncated
		strings.Repeat("x", 55),                                  // right length, wrong shape
		// W3C trace-context: lower-case hex in every field, and a
		// non-zero parent-id.
		"00-4bf92f3577b34da6a3ce929d0e0e4736-zzzzzzzzzzzzzzzz-01", // parent-id not hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // all-zero parent-id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz", // flags not hex
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // upper-case trace-id
	} {
		if _, ok := ParseTraceParent(bad); ok {
			t.Errorf("ParseTraceParent(%q) accepted", bad)
		}
	}
}

// TestFlightRecorderRingWrap: a recorder keeps exactly its newest
// capacity events, however many were recorded and from however few
// goroutines (a recorder striped by goroutine kept a quarter of them).
// FuzzTraceParent holds ParseTraceParent to the W3C header shape on any
// input: it never panics, whatever it accepts is 55 bytes of lower-case
// hex fields, and a header FormatTraceParent wrote parses back to its
// trace id.
func FuzzTraceParent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", []byte("0123456789abcdef"), uint64(0))
	f.Add("00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", []byte{1}, uint64(1))
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", make([]byte, 16), uint64(0xdeadbeef))
	f.Add("", []byte(nil), ^uint64(0))
	f.Fuzz(func(t *testing.T, hdr string, id []byte, span uint64) {
		if _, ok := ParseTraceParent(hdr); ok {
			if len(hdr) != 55 {
				t.Fatalf("accepted %q of %d bytes", hdr, len(hdr))
			}
			for _, field := range strings.Split(hdr, "-") {
				if _, err := hex.DecodeString(field); err != nil || strings.ToLower(field) != field {
					t.Fatalf("accepted %q: field %q is not lower-case hex", hdr, field)
				}
			}
		}
		var want TraceID
		copy(want[:], id)
		if want.IsZero() {
			return
		}
		if got, ok := ParseTraceParent(FormatTraceParent(want, span)); !ok || got != want {
			t.Fatalf("FormatTraceParent(%s, %d) parsed back as %s, %v", want, span, got, ok)
		}
	})
}

func TestFlightRecorderRingWrap(t *testing.T) {
	const capacity, n = 1024, 5000
	fr := NewFlightRecorder(capacity, 1)
	trace := NewTraceID()
	for i := 0; i < n; i++ {
		fr.Record(SpanEvent{
			Trace: trace,
			Span:  uint64(i) + 1,
			Frame: int32(i),
			Stage: "wrap_stage",
			Start: int64(i),
			Dur:   1,
		})
	}
	evs := fr.Events()
	if len(evs) != capacity {
		t.Fatalf("ring snapshot has %d events, want %d", len(evs), capacity)
	}
	for i, ev := range evs {
		if want := int64(n - capacity + i); ev.Start != want {
			t.Fatalf("event %d starts at %d, want %d: not the newest %d, oldest first", i, ev.Start, want, capacity)
		}
	}
}

// TestSlowestKSurvivesWrap pins the exemplar contract: the slowest K
// root spans of a stage keep their full subtree snapshots even after
// the ring has wrapped far past the events they refer to.
func TestSlowestKSurvivesWrap(t *testing.T) {
	const k = 2
	fr := NewFlightRecorder(64, k)
	trace := NewTraceID()

	// 100 frames, each a root span with two stage children recorded
	// first (as the pipeline does). Root durations ascend, so the
	// slowest K are the last two frames.
	for i := 0; i < 100; i++ {
		root := uint64(i)*10 + 1
		base := int64(i * 1000)
		fr.Record(SpanEvent{Trace: trace, Span: root + 1, Parent: root, Frame: int32(i), Stage: "prep", Start: base, Dur: 5})
		fr.Record(SpanEvent{Trace: trace, Span: root + 2, Parent: root, Frame: int32(i), Stage: "align", Start: base + 5, Dur: 5})
		fr.Record(SpanEvent{Trace: trace, Span: root, Parent: 0, Frame: int32(i), Stage: "frame", Start: base, Dur: int64(i + 1)})
	}

	slow := fr.Slowest()["frame"]
	if len(slow) != k {
		t.Fatalf("retained %d frame exemplars, want %d", len(slow), k)
	}
	if slow[0].Dur < slow[1].Dur {
		t.Fatalf("exemplars not slowest-first: %d then %d", slow[0].Dur, slow[1].Dur)
	}
	if slow[0].Frame != 99 || slow[1].Frame != 98 {
		t.Fatalf("retained frames %d, %d; want 99, 98", slow[0].Frame, slow[1].Frame)
	}
	for _, ex := range slow {
		if len(ex.Events) != 3 {
			t.Fatalf("frame %d subtree has %d events, want root + 2 children", ex.Frame, len(ex.Events))
		}
		if ex.Events[0].Span != ex.Span || ex.Events[0].Parent != 0 {
			t.Fatalf("subtree not root-first: %+v", ex.Events[0])
		}
		for _, child := range ex.Events[1:] {
			if child.Parent != ex.Span {
				t.Fatalf("child %+v not parented to root %d", child, ex.Span)
			}
		}
		if ex.Events[1].Start > ex.Events[2].Start {
			t.Fatal("children not sorted by start")
		}
	}

	// The children of frame 98/99 are long gone from the 64-slot ring —
	// prove the exemplar copies are what preserved them.
	evs := fr.Events()
	oldest := evs[0].Start
	if oldest <= 98*1000 {
		t.Skipf("ring unexpectedly still holds old events (oldest start %d)", oldest)
	}
}

func TestFlightRecorderConcurrentRecord(t *testing.T) {
	// Sized to hold every event: none may be lost.
	fr := NewFlightRecorder(8*500, 4)
	trace := NewTraceID()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				fr.Record(SpanEvent{Trace: trace, Frame: int32(i), Stage: "conc", Start: int64(i), Dur: int64(g*1000 + i)})
				if i%100 == 0 {
					_ = fr.Events()
					_ = fr.Slowest()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := len(fr.Events()); got != 8*500 {
		t.Fatalf("%d events retained, want %d", got, 8*500)
	}
	// Auto-assigned span ids must be unique across goroutines.
	seen := map[uint64]bool{}
	for _, ev := range fr.Events() {
		if ev.Span == 0 || seen[ev.Span] {
			t.Fatalf("duplicate or zero span id %d", ev.Span)
		}
		seen[ev.Span] = true
	}
}

// TestTracedObserveZeroAlloc holds the traced Observe path to the same
// steady-state allocation contract as the bare histogram path: once the
// stage's exemplar buffer is warm, recording a span allocates nothing.
func TestTracedObserveZeroAlloc(t *testing.T) {
	fr := NewFlightRecorder(1024, 2)
	rec := NewRecorder().Traced(fr, NewTraceID())
	rec.SetScope(7, 3)
	// Warm: create the stage and fill the slowest-K buffer so the
	// measured runs take the replace-or-reject path only.
	for i := 0; i < 4; i++ {
		rec.Observe("traced_stage", 2*time.Millisecond)
	}
	allocs := testing.AllocsPerRun(200, func() {
		rec.Observe("traced_stage", time.Millisecond) // never beats the retained 2ms tail
	})
	if allocs != 0 {
		t.Fatalf("traced Observe allocates %.2f per op in steady state, want 0", allocs)
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var fr *FlightRecorder
	fr.Record(SpanEvent{Stage: "x"})
	if fr.Events() != nil || fr.Slowest() != nil {
		t.Fatal("nil FlightRecorder not inert")
	}
	exp := fr.Export()
	if exp.Events != nil || exp.Slowest != nil {
		t.Fatal("nil Export not empty")
	}
}
