package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// Chrome trace-event export: renders a flight-recorder snapshot in the
// Chrome trace-event JSON object format, which Perfetto and
// chrome://tracing load directly. Every span becomes a complete ("X")
// event with microsecond ts/dur; tid is the frame index, so each
// frame's stage tree occupies one track and pipeline overlap between
// consecutive frames is visible as overlapping rows. Extra top-level
// keys (session metadata, exemplars, routing decisions) are legal in
// the object format and ignored by viewers.

// ChromeEvent is one trace-event entry.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args"`
}

// ChromeTrace is the serializable export document.
type ChromeTrace struct {
	DisplayTimeUnit string                   `json:"displayTimeUnit"`
	TraceEvents     []ChromeEvent            `json:"traceEvents"`
	Slowest         map[string][]ExemplarDoc `json:"slowest,omitempty"`
	Meta            map[string]any           `json:"otherData,omitempty"`
}

// ExemplarDoc is the JSON shape of one slowest-K entry.
type ExemplarDoc struct {
	TraceID string  `json:"trace_id"`
	Span    uint64  `json:"span"`
	Frame   int32   `json:"frame"`
	DurMs   float64 `json:"dur_ms"`
	Spans   int     `json:"spans"` // subtree size retained (1 = leaf)
}

// chromeEvent converts one span event. pid distinguishes sources when
// several recorders are merged into one timeline (bench modes,
// pre/post-migration workers); single-source exports pass pid 1.
func chromeEvent(ev SpanEvent, pid int) ChromeEvent {
	tid := int64(ev.Frame)
	if tid < 0 {
		tid = 0
	}
	return ChromeEvent{
		Name: ev.Stage,
		Cat:  "tigris",
		Ph:   "X",
		Ts:   float64(ev.Start) / 1e3,
		Dur:  float64(ev.Dur) / 1e3,
		Pid:  pid,
		Tid:  tid,
		Args: map[string]any{
			"trace_id": ev.Trace.String(),
			"span":     ev.Span,
			"parent":   ev.Parent,
			"frame":    ev.Frame,
		},
	}
}

// buildChromeTrace assembles the export document from a flight
// snapshot: ring events plus any exemplar-retained subtree events the
// ring has already wrapped past, deduplicated by span id and sorted by
// ts (jq-checkable monotone order).
func buildChromeTrace(exp Export, pid int, meta map[string]any) ChromeTrace {
	seen := make(map[uint64]bool, len(exp.Events))
	events := make([]ChromeEvent, 0, len(exp.Events))
	add := func(ev SpanEvent) {
		if ev.Span == 0 || seen[ev.Span] {
			return
		}
		seen[ev.Span] = true
		events = append(events, chromeEvent(ev, pid))
	}
	for _, ev := range exp.Events {
		add(ev)
	}
	doc := ChromeTrace{DisplayTimeUnit: "ms", Meta: meta}
	if len(exp.Slowest) > 0 {
		doc.Slowest = make(map[string][]ExemplarDoc, len(exp.Slowest))
		for stage, exs := range exp.Slowest {
			ds := make([]ExemplarDoc, 0, len(exs))
			for _, ex := range exs {
				spans := len(ex.Events)
				if spans == 0 {
					spans = 1
				}
				ds = append(ds, ExemplarDoc{
					TraceID: ex.Trace.String(),
					Span:    ex.Span,
					Frame:   ex.Frame,
					DurMs:   float64(ex.Dur) / 1e6,
					Spans:   spans,
				})
				for _, ev := range ex.Events {
					add(ev)
				}
			}
			doc.Slowest[stage] = ds
		}
	}
	sortChromeEvents(events)
	doc.TraceEvents = events
	return doc
}

// sortChromeEvents orders events by ts, then span id for determinism
// among equal timestamps.
func sortChromeEvents(events []ChromeEvent) {
	sort.Slice(events, func(i, j int) bool {
		if events[i].Ts != events[j].Ts {
			return events[i].Ts < events[j].Ts
		}
		si, _ := events[i].Args["span"].(uint64)
		sj, _ := events[j].Args["span"].(uint64)
		return si < sj
	})
}

// WriteChromeTrace serializes a flight snapshot as Chrome trace-event
// JSON to w.
func WriteChromeTrace(w io.Writer, exp Export, meta map[string]any) error {
	enc := json.NewEncoder(w)
	return enc.Encode(buildChromeTrace(exp, 1, meta))
}
