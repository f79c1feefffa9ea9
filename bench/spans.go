package main

import (
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"tigris/internal/obs"
)

// tracer records one span per public call the harness makes into the
// program: name, start, end, the span that caused it, and the frame (or
// operation) it belongs to. Spans stay in memory and are written as
// Chrome trace-event JSON when the run ends. A nil *tracer still times
// the call, so the same code path runs traced and untraced and the only
// difference is the record — which is what trace.overhead_pct measures.
//
// Spans are recorded from outside the program; spans inside it are a
// later change.
type tracer struct {
	mu     sync.Mutex
	events []obs.SpanEvent
	next   uint64
	id     obs.TraceID
}

func newTracer() *tracer { return &tracer{id: obs.NewTraceID()} }

// span times fn as a span called name under parent (0 = root) for the
// given frame, and returns the span id and its duration. fn receives
// the span id so nested calls can name it as their parent.
func (t *tracer) span(name string, frame int, parent uint64, fn func(id uint64)) (uint64, time.Duration) {
	var id uint64
	if t != nil {
		t.mu.Lock()
		t.next++
		id = t.next
		t.mu.Unlock()
	}
	start := time.Now()
	fn(id)
	dur := time.Since(start)
	if t != nil {
		t.mu.Lock()
		t.events = append(t.events, obs.SpanEvent{
			Trace: t.id, Span: id, Parent: parent, Frame: int32(frame),
			Stage: name, Start: start.UnixNano(), Dur: int64(dur),
		})
		t.mu.Unlock()
	}
	return id, dur
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover (overlapping children are
// merged first, so concurrent children are not subtracted twice).
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	events := append([]obs.SpanEvent(nil), t.events...)
	t.mu.Unlock()
	children := make(map[uint64][]obs.SpanEvent)
	for _, ev := range events {
		if ev.Parent != 0 {
			children[ev.Parent] = append(children[ev.Parent], ev)
		}
	}
	self := make(map[string]time.Duration)
	for _, ev := range events {
		kids := children[ev.Span]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, end int64
		end = ev.Start
		for _, k := range kids {
			ks, ke := k.Start, k.Start+k.Dur
			if ks < end {
				ks = end
			}
			if stop := ev.Start + ev.Dur; ke > stop {
				ke = stop
			}
			if ke > ks {
				covered += ke - ks
				end = ke
			}
		}
		self[ev.Stage] += time.Duration(ev.Dur - covered)
	}
	return self
}

// write renders the recorded spans as Chrome trace-event JSON
// (Perfetto-loadable) through the repository's own exporter.
func (t *tracer) write(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t.mu.Lock()
	exp := obs.Export{Events: append([]obs.SpanEvent(nil), t.events...)}
	t.mu.Unlock()
	if err := obs.WriteChromeTrace(f, exp, meta); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
