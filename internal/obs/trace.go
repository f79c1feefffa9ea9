package obs

import (
	"crypto/rand"
	"encoding/hex"
	"sort"
	"sync"
	"sync/atomic"
)

// Trace layer: structured span trees on top of the histogram recorder.
//
// A TraceID names one logical request stream (one serving session, one
// bench run); SpanEvents are completed intervals inside it, linked by
// span/parent ids into a tree (frame spans parent the per-stage spans
// the registration pipeline already times). Events land in a
// FlightRecorder — a bounded ring that is always on and
// allocation-free on the record path, so it rides the same hot paths as
// the histograms without disturbing the pipeline's determinism or its
// per-frame allocation budgets. Slowest-K exemplar buffers per stage
// retain the span trees behind the current tail even after the ring
// wraps past them.

// TraceID is a 16-byte W3C-trace-context-compatible trace identifier.
// The zero value means "no trace".
type TraceID [16]byte

// IsZero reports whether t is the absent trace id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the id as 32 lowercase hex characters (the W3C
// trace-id field, and the X-Tigris-Trace header value).
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// NewTraceID mints a random trace id. Randomness here is fine — ids
// only name traces, they never influence pipeline computation.
func NewTraceID() TraceID {
	var t TraceID
	if _, err := rand.Read(t[:]); err != nil {
		// Entropy failure: fall back to a counter so ids stay unique
		// within the process rather than panicking a serving path.
		n := fallbackTraceCtr.Add(1)
		for i := 0; i < 8; i++ {
			t[15-i] = byte(n >> (8 * i))
		}
		t[0] = 0xfb
	}
	return t
}

var fallbackTraceCtr atomic.Uint64

// ParseTraceID parses 32 hex characters into a TraceID. The all-zero
// id is rejected, per the W3C trace-context spec.
func ParseTraceID(s string) (TraceID, bool) {
	var t TraceID
	if len(s) != 32 {
		return t, false
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	if t.IsZero() {
		return t, false
	}
	return t, true
}

// ParseTraceParent extracts the trace id from a W3C traceparent header
// (`00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>`). Only the
// trace id is used — tigris spans form their own tree under it — but
// the header comes from outside the program, so the whole of it is
// checked as the spec asks: lower-case hex in all three fields, and
// neither id all zero.
func ParseTraceParent(s string) (TraceID, bool) {
	if len(s) != 55 || s[:3] != "00-" || s[35] != '-' || s[52] != '-' {
		return TraceID{}, false
	}
	parent := s[36:52]
	if !lowerHex(s[3:35]) || !lowerHex(parent) || !lowerHex(s[53:]) || parent == "0000000000000000" {
		return TraceID{}, false
	}
	return ParseTraceID(s[3:35])
}

// lowerHex reports whether s is made of the digits 0-9 and a-f only.
func lowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// FormatTraceParent renders a traceparent header for outbound
// propagation. span is the caller's current span id (0 is rendered as
// a synthetic non-zero parent, since the spec forbids all-zero).
func FormatTraceParent(t TraceID, span uint64) string {
	if span == 0 {
		span = 1
	}
	var b [55]byte
	b[0], b[1], b[2] = '0', '0', '-'
	hex.Encode(b[3:35], t[:])
	b[35] = '-'
	var sp [8]byte
	for i := 0; i < 8; i++ {
		sp[i] = byte(span >> (8 * (7 - i)))
	}
	hex.Encode(b[36:52], sp[:])
	b[52], b[53], b[54] = '-', '0', '1'
	return string(b[:])
}

// SpanEvent is one completed span: a (stage, duration) observation
// annotated with its position in a trace's tree. Plain value type, no
// heap references beyond the stage-name string (call sites pass the
// obs.Stage* constants), so ring writes are a fixed-size copy.
type SpanEvent struct {
	Trace  TraceID
	Span   uint64 // this span's id (unique within the recorder)
	Parent uint64 // parent span id; 0 = root (a whole-frame span)
	Frame  int32  // frame index the span belongs to; -1 if frameless
	Stage  string // obs.Stage* vocabulary
	Start  int64  // wall-clock start, UnixNano
	Dur    int64  // nanoseconds
}

// Exemplar is one retained slowest-K entry for a stage: the span plus,
// for root (whole-frame) spans, a copy of its subtree taken at
// admission time — so the trees behind the tail survive ring wrap.
type Exemplar struct {
	Trace  TraceID
	Span   uint64
	Frame  int32
	Start  int64
	Dur    int64
	Events []SpanEvent // root-first subtree snapshot; nil for leaf spans
}

// FlightRecorder is a bounded in-memory span sink: a ring buffer
// holding the newest capacity span events, whichever goroutine recorded
// them, plus per-stage slowest-K exemplars. All methods are safe on a
// nil receiver and for concurrent use: one mutex guards the ring and the
// exemplars. Record never allocates in steady state (a fixed-slot copy;
// exemplar admission allocates only when a new tail-beating sample
// arrives).
type FlightRecorder struct {
	slowestK int

	mu        sync.Mutex
	lastSpan  uint64                // last counter-allocated span id
	pos       uint64                // total events written
	ring      []SpanEvent           // event p lives at ring[p%len(ring)]
	exemplars map[string][]Exemplar // stage -> slowest K, unordered (K is small)
}

// exemplarSpanBase keeps counter-allocated span ids disjoint from the
// deterministic small ids the stream engine assigns to frame spans.
const exemplarSpanBase = 1 << 32

// NewFlightRecorder returns a recorder retaining the newest `capacity`
// events (min 64) and `slowestK` exemplars per stage (min 1).
func NewFlightRecorder(capacity, slowestK int) *FlightRecorder {
	return &FlightRecorder{
		slowestK:  max(slowestK, 1),
		lastSpan:  exemplarSpanBase,
		ring:      make([]SpanEvent, max(capacity, 64)),
		exemplars: map[string][]Exemplar{},
	}
}

// Record appends one completed span to the ring (overwriting the
// oldest event once full) and runs slowest-K admission for the span's
// stage. ev.Span == 0 gets a fresh id. Nil-safe.
func (f *FlightRecorder) Record(ev SpanEvent) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if ev.Span == 0 {
		f.lastSpan++
		ev.Span = f.lastSpan
	}
	f.ring[f.pos%uint64(len(f.ring))] = ev
	f.pos++
	f.admit(ev)
}

// Events returns a snapshot of the ring, oldest first (sorted by start
// time). Export path — allocates freely.
func (f *FlightRecorder) Events() []SpanEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	out := append([]SpanEvent(nil), f.retained()...)
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Span < out[j].Span
	})
	return out
}

// retained is the filled part of the ring, in slot order. Called with
// f.mu held.
func (f *FlightRecorder) retained() []SpanEvent {
	return f.ring[:min(f.pos, uint64(len(f.ring)))]
}

// admit runs slowest-K admission: keep ev if the stage has room or ev
// outlasts its current minimum. Steady-state samples that do not beat
// the retained tail cost a map lookup and a K-element scan — no
// allocation. Called with f.mu held.
func (f *FlightRecorder) admit(ev SpanEvent) {
	es := f.exemplars[ev.Stage]
	if es == nil {
		es = make([]Exemplar, 0, f.slowestK)
	}
	slot := len(es)
	if slot < cap(es) {
		es = es[:slot+1]
		f.exemplars[ev.Stage] = es
	} else {
		slot = 0
		for i := 1; i < len(es); i++ {
			if es[i].Dur < es[slot].Dur {
				slot = i
			}
		}
		if ev.Dur <= es[slot].Dur {
			return
		}
	}
	ex := Exemplar{Trace: ev.Trace, Span: ev.Span, Frame: ev.Frame, Start: ev.Start, Dur: ev.Dur}
	if ev.Parent == 0 {
		// Root span: copy its subtree out of the ring now, before the
		// ring wraps past the children. Admission is rare after warmup,
		// so the allocation and scan stay off the steady-state budget.
		ex.Events = f.collectTree(ev)
	}
	es[slot] = ex
}

// collectTree snapshots root and every ring event reachable from it
// through parent links (the stage spans of one frame), root first,
// children by start time. The span forest is at most three levels deep
// (frame → stage → sub-stage), so two expansion passes suffice. Called
// with f.mu held.
func (f *FlightRecorder) collectTree(root SpanEvent) []SpanEvent {
	in := map[uint64]bool{root.Span: true}
	tree := []SpanEvent{root}
	for pass := 0; pass < 2; pass++ {
		for _, ev := range f.retained() {
			if ev.Trace == root.Trace && in[ev.Parent] && !in[ev.Span] {
				in[ev.Span] = true
				tree = append(tree, ev)
			}
		}
	}
	sort.Slice(tree[1:], func(i, j int) bool { return tree[i+1].Start < tree[j+1].Start })
	return tree
}

// Slowest returns each stage's retained exemplars, slowest first.
func (f *FlightRecorder) Slowest() map[string][]Exemplar {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	out := make(map[string][]Exemplar, len(f.exemplars))
	for stage, kept := range f.exemplars {
		es := make([]Exemplar, len(kept))
		for i := range kept {
			es[i] = kept[i]
			if kept[i].Events != nil {
				es[i].Events = append([]SpanEvent(nil), kept[i].Events...)
			}
		}
		out[stage] = es
	}
	f.mu.Unlock()
	for _, es := range out {
		sort.Slice(es, func(i, j int) bool { return es[i].Dur > es[j].Dur })
	}
	return out
}

// Export is a consistent read-side view of a flight recorder: the ring
// snapshot plus the exemplar buffers (whose copied subtrees may reach
// further back than the ring itself).
type Export struct {
	Events  []SpanEvent
	Slowest map[string][]Exemplar
}

// Export snapshots the recorder for serialization. Nil-safe.
func (f *FlightRecorder) Export() Export {
	if f == nil {
		return Export{}
	}
	return Export{Events: f.Events(), Slowest: f.Slowest()}
}
