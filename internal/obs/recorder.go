package obs

import (
	"sync"
	"time"
)

// Canonical stage names the pipeline records under. One shared
// vocabulary keeps the per-session stats JSON, the /metrics stage
// labels, and the BENCH latency_percentiles columns mutually
// comparable: the same name means the same span everywhere.
const (
	// Per-frame front-end (registration.PrepareFrame) and its sub-stages.
	StagePrep        = "prep"
	StageNormals     = "normal_estimation"
	StageKeypoints   = "keypoint_detection"
	StageDescriptors = "descriptor_calculation"
	// Pair-level back end (registration.Align) and its sub-stages.
	StageAlign     = "align"
	StageKPCE      = "kpce"
	StageRejection = "rejection"
	StageRPCE      = "rpce"
	StageSolve     = "error_minimization"
	// Target raw-cloud normals estimated on demand between ICP's
	// correspondence search and its solve (recorded only by pairs that
	// take that path).
	StageFineNormals = "fine_normals"
	// Whole-frame latency: front-end plus alignment, the number a serving
	// SLO is written against.
	StageFrame = "frame"
	// Pipeline hand-off waits (stream.Engine): time a pushed cloud sat in
	// the input queue before its front-end started, and time a prepared
	// frame waited for the alignment stage. Non-trivial values mean the
	// pipeline is stalling on a stage, not on compute.
	StageQueueWaitPrep  = "queue_wait_prep"
	StageQueueWaitAlign = "queue_wait_align"
	// Loop-closure stage: signature aggregation + candidate ranking
	// (cheap, every frame) and candidate verification (expensive, rare).
	StageLoopObserve = "loop_observe"
	StageLoopVerify  = "loop_verify"
	// Pose-graph optimization (the SLAM back end solve).
	StagePoseGraph = "posegraph_solve"
)

// recorderCore is the histogram storage a recorder and all its traced
// derivatives share: one set of per-stage histograms however many
// scoped handles record into them.
type recorderCore struct {
	reg    *Registry // nil for standalone recorders
	family string    // Prometheus family name when published

	hists sync.Map // stage name -> *Histogram

	mu     sync.Mutex
	stages []string // creation-ordered stage names, for Summaries
}

// Recorder is the pipeline-facing telemetry handle: a set of named
// per-stage latency histograms. A nil *Recorder is valid and records
// nothing — the default for library users, and the reason observability
// is deterministically inert: every call site works identically with
// recording on or off.
//
// Observe on an existing stage is lock-free and allocation-free (one
// sync.Map load plus a sharded histogram record); a stage's histogram
// is created once on first use. Recorders can be chained with Tee so a
// per-session recorder also feeds a server-global one, and published
// into a Registry so the same histograms appear on /metrics.
//
// A recorder may additionally carry a trace scope (Traced): every
// observation is then also recorded as a SpanEvent into a
// FlightRecorder, under an ambient (parent span, frame) set with
// SetScope. Traced handles share the parent's histograms and tee
// chain, so the aggregate numbers are identical with tracing on or
// off.
type Recorder struct {
	core *recorderCore
	next *Recorder // optional tee target

	// Trace scope. flight == nil means histograms only. The scope
	// fields are mutated by SetScope without synchronization: a traced
	// handle belongs to exactly one goroutine (the stream engine keeps
	// one per pipeline stage).
	flight *FlightRecorder
	trace  TraceID
	parent uint64
	frame  int32
}

// NewRecorder returns a standalone recorder (histograms not exposed on
// any registry — read them back with Summaries).
func NewRecorder() *Recorder { return &Recorder{core: &recorderCore{}} }

// NewPublishedRecorder returns a recorder whose stage histograms are
// registered in reg under family{stage="<name>"}, so everything the
// pipeline records is scrapeable as Prometheus series.
func NewPublishedRecorder(reg *Registry, family string) *Recorder {
	return &Recorder{core: &recorderCore{reg: reg, family: family}}
}

// Tee chains next after r: every Observe records into both r and next
// (and next's own tee, recursively). Returns r for construction
// chaining. Must be called before the recorder is shared.
func (r *Recorder) Tee(next *Recorder) *Recorder {
	r.next = next
	return r
}

// Traced returns a handle sharing r's histograms and tee chain that
// additionally records every observation as a span event into fr,
// tagged with the given trace id. The returned handle is intended for
// a single goroutine: set its span context with SetScope before each
// unit of work. Nil r or fr returns r unchanged.
func (r *Recorder) Traced(fr *FlightRecorder, trace TraceID) *Recorder {
	if r == nil || fr == nil {
		return r
	}
	return &Recorder{core: r.core, next: r.next, flight: fr, trace: trace, frame: -1}
}

// SetScope sets the ambient parent span id and frame index stamped on
// subsequent observations. Only meaningful on a Traced handle; must
// not race with Observe on the same handle (one goroutine owns it).
func (r *Recorder) SetScope(parent uint64, frame int) {
	if r == nil {
		return
	}
	r.parent = parent
	r.frame = int32(frame)
}

// histogram returns the stage's histogram, creating it on first use.
func (r *Recorder) histogram(stage string) *Histogram {
	c := r.core
	if h, ok := c.hists.Load(stage); ok {
		return h.(*Histogram)
	}
	var h *Histogram
	if c.reg != nil {
		h = c.reg.Histogram(c.family + `{stage="` + stage + `"}`)
	} else {
		h = new(Histogram)
	}
	if actual, loaded := c.hists.LoadOrStore(stage, h); loaded {
		return actual.(*Histogram)
	}
	c.mu.Lock()
	c.stages = append(c.stages, stage)
	c.mu.Unlock()
	return h
}

// Observe records one duration sample for a stage. Safe on a nil
// receiver (no-op) and for concurrent use. On a traced handle the
// sample is also appended to the flight recorder as a span ending now.
func (r *Recorder) Observe(stage string, d time.Duration) {
	if r == nil {
		return
	}
	r.histogram(stage).Record(d)
	if r.flight != nil {
		r.flight.Record(SpanEvent{
			Trace:  r.trace,
			Parent: r.parent,
			Frame:  r.frame,
			Stage:  stage,
			Start:  time.Now().Add(-d).UnixNano(),
			Dur:    int64(d),
		})
	}
	r.next.Observe(stage, d)
}

// Span is an open interval started by Start. The zero value (from a nil
// recorder) is valid: End is a no-op returning 0.
type Span struct {
	r     *Recorder
	stage string
	t0    time.Time
}

// Start opens a span for a stage. On a nil recorder the returned span
// does nothing — call sites need no branches.
func (r *Recorder) Start(stage string) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, stage: stage, t0: time.Now()}
}

// End closes the span, records its duration, and returns it.
func (s Span) End() time.Duration {
	if s.r == nil {
		return 0
	}
	d := time.Since(s.t0)
	s.r.Observe(s.stage, d)
	return d
}

// Summaries returns every recorded stage's percentile digest, keyed by
// stage name. Safe on a nil receiver (returns nil).
func (r *Recorder) Summaries() map[string]Summary {
	if r == nil {
		return nil
	}
	c := r.core
	c.mu.Lock()
	stages := append([]string(nil), c.stages...)
	c.mu.Unlock()
	out := make(map[string]Summary, len(stages))
	for _, st := range stages {
		if h, ok := c.hists.Load(st); ok {
			out[st] = h.(*Histogram).Summary()
		}
	}
	return out
}
