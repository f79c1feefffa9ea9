// Package stream implements the streaming odometry engine: a
// long-running registration session that consumes LiDAR frames one at a
// time and accumulates a trajectory, the paper's §2.2 continuous-perception
// use case run as a service instead of per-pair batch calls.
//
// The engine's two wins over calling registration.Register per pair:
//
//   - Front-end reuse. Register re-runs the whole front-end (downsample,
//     normals, key-points, descriptors, search-index construction) for
//     BOTH clouds of every pair, so a frame in the middle of a stream is
//     processed twice — once as a pair's source and once as the next
//     pair's target. The engine prepares each frame exactly once
//     (registration.PrepareFrameSlab) and reuses the state for both roles,
//     halving steady-state front-end work; with the loop stage on, a
//     verification aligns those same front-ends, a frame's third role.
//
//   - Frame-level pipelining. With Config.Pipelined, frame N's front-end
//     overlaps frame N−1's pair alignment (KPCE, rejection, ICP
//     fine-tuning) on a two-stage channel pipeline — the ROADMAP's
//     "overlap frame N's front-end with frame N−1's fine-tuning". A
//     stage holds one slot of the process's budget (internal/par) while
//     it computes and its parallel loops borrow the slots that are free:
//     two busy stages run one-wide each, and a stage whose neighbour is
//     idle or blocked on the register between them gets the whole
//     machine, at the configured Parallelism at most.
//
// Unlike Register, which has no history, a session starts a pair's ICP
// from the last committed pair's delta whenever the guards reject the
// front-end's estimate (registration.AlignFrom): a constant-velocity
// prior. For the exact search backends the resulting trajectory is
// bit-identical to the sequential per-pair loop that prepares both clouds
// of every pair and aligns it from the previous pair's delta, at any
// pipelining or parallelism setting, because every stage is a
// deterministic function of its input clouds, the config and that delta;
// the approximate backend is deterministic (two identical sessions
// produce identical trajectories).
//
// A session's worker count and recorder each have one place, its
// registration config: Pipeline.Searcher.Parallelism is the width every
// stage, loop verification and the pose-graph solve run at, and
// Pipeline.Obs receives every stage's latency and the engine's own.
package stream

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tigris/internal/cloud"
	"tigris/internal/geom"
	"tigris/internal/loop"
	"tigris/internal/obs"
	"tigris/internal/par"
	"tigris/internal/posegraph"
	"tigris/internal/registration"
	"tigris/internal/search"
)

// Limiter caps concurrent heavy stages (frame preparation, pair
// alignment, loop verification) across the engines that share it. It is
// admission: which of a server's sessions may start a stage now. How
// wide an admitted stage runs is not its business — the stage then takes
// one slot of the process's budget (internal/par) and borrows what is
// free. A nil Limiter admits everything.
type Limiter chan struct{}

// NewLimiter returns a Limiter admitting up to n concurrent stages
// (n <= 0 returns nil: unlimited).
func NewLimiter(n int) Limiter {
	if n <= 0 {
		return nil
	}
	return make(Limiter, n)
}

func (l Limiter) acquire() {
	if l != nil {
		l <- struct{}{}
	}
}

func (l Limiter) release() {
	if l != nil {
		<-l
	}
}

// Acquire blocks until the limiter admits another heavy stage (a no-op
// for a nil limiter). Exported so the serving layer can gate its own
// heavy work — pose-graph optimization — under the same budget as the
// pipeline stages.
func (l Limiter) Acquire() { l.acquire() }

// Release returns a slot taken by Acquire (no-op for a nil limiter).
func (l Limiter) Release() { l.release() }

// Config parameterizes a streaming session.
type Config struct {
	// Pipeline is the registration configuration every pair runs with,
	// each from the previous pair's delta when its front-end's estimate is
	// rejected (registration.AlignFrom).
	// Its Searcher.Parallelism is the session's one worker count, and its
	// Obs the session's one recorder (internal/obs): besides every
	// registration stage, Obs receives whole-frame latency
	// (obs.StageFrame), the pipeline hand-off waits (obs.StageQueueWaitPrep
	// / obs.StageQueueWaitAlign — non-trivial values mean the pipeline is
	// stalling, not computing), the loop-closure stage's observe/verify
	// spans, and the pose-graph solve. Recording is allocation-free and
	// deterministically inert: trajectories, closures, and optimized poses
	// are bit-identical with a recorder set or nil.
	Pipeline registration.PipelineConfig
	// Pipelined overlaps frame N's front-end with frame N−1's alignment.
	// Off, each Push runs both stages synchronously before returning —
	// same trajectory, no overlap. Either way every stage runs at the
	// pipeline's configured Parallelism on as many slots as are free
	// (internal/par). On, one pushed frame may wait for the
	// front-end before Push blocks, which bounds session memory: at most
	// that raw frame plus four frames in or past the front-end (the one
	// being prepared, one in the register between the stages, the pair
	// being aligned) are alive at once.
	Pipelined bool
	// Origin is the pose assigned to the first frame (zero value:
	// identity).
	Origin *geom.Transform
	// Limiter, when non-nil, admits every prepare/align/verify stage
	// (shared across engines by the registration server); the stage takes
	// its slot of the process's budget after it is admitted.
	Limiter Limiter
	// Loop, when non-nil, enables the loop-closure stage: every committed
	// frame's descriptors are aggregated into a place signature
	// (internal/loop), candidates proposed by the signature index are
	// verified by aligning the two frames' front-ends (registration.Align;
	// no frame is prepared twice), and accepted closures accumulate for
	// pose-graph optimization (OptimizedPoses). In pipelined mode
	// verification runs on its own worker goroutine, a third stage beside
	// the other two under the same slot budget. Enabling
	// the stage retains, for the session's life, what Align reads of every
	// pushed frame — raw points (12 B each, 24 B with a raw-cloud
	// front-end's normals), key-point positions, a copy of the descriptors
	// (≈ 11 KB) — so bound session length accordingly. The config must name
	// a valid search backend (validate with loop.Config.Validate at the
	// boundary); New panics otherwise, like the registration layer does on
	// invalid searcher configs.
	Loop *loop.Config
	// LoopEdgeWeight scales verified loop edges relative to odometry
	// edges in the optimized pose graph (default 10): one globally
	// accurate constraint against many locally consistent drifting ones.
	LoopEdgeWeight float64
	// Flight, when non-nil, additionally records every observation as a
	// structured span event: each frame gets a whole-frame root span
	// (deterministic span id, wall-clock interval from front-end start
	// to commit) and every stage/queue-wait observation becomes a child
	// span, forming the per-frame tree the /debug/trace surface and the
	// slowest-K exemplars expose. Same inertness contract as
	// Pipeline.Obs: the trajectory, closures, and optimized poses are
	// bit-identical with the flight recorder attached or not, in both
	// pipelining modes.
	// Note the frame root span measures the wall interval (including
	// pipeline hand-off waits), while the obs.StageFrame histogram keeps
	// its compute-only PrepTime+AlignTime semantic.
	Flight *obs.FlightRecorder
	// Trace is the trace id stamped on every span (a session's identity
	// end to end). Zero with Flight set mints a fresh id; read it back
	// with TraceID.
	Trace obs.TraceID
}

// FrameResult records one frame's outcome in the trajectory.
type FrameResult struct {
	// Index is the frame's position in the session (0-based).
	Index int
	// Delta registers this frame onto the previous one (identity for
	// frame 0) — the odometry step, Register's Transform.
	Delta geom.Transform
	// Pose is the accumulated absolute pose: Pose[N] = Pose[N−1]∘Delta.
	Pose geom.Transform
	// PrepTime is the frame's front-end wall time (once per frame —
	// compare with Register, which pays it twice per pair).
	PrepTime time.Duration
	// AlignTime is the pair-level back-end wall time (zero for frame 0).
	AlignTime time.Duration
	// Reg is the pair's registration result (zero value for frame 0).
	// Its front-end stage times cover only this frame's preparation,
	// since the target's front-end ran a frame earlier.
	Reg registration.Result
}

// Trajectory is a snapshot of the session's accumulated output.
type Trajectory struct {
	// Poses are the absolute per-frame poses (Poses[0] = Origin).
	Poses []geom.Transform
	// Frames are the per-frame records, aligned with Poses.
	Frames []FrameResult
}

// Len returns the number of frames in the trajectory.
func (t Trajectory) Len() int { return len(t.Poses) }

// Stats counts the work a session has performed. The front-end counters
// are the reuse proof: after N frames, FramesPrepared and
// DescriptorBuilds are N (a per-pair loop would have prepared 2(N−1)
// clouds), and TreeBuilds is N plus one fine-tuning index per target
// frame when downsampling is active. Loop verification runs no front-end,
// so that is every front-end of the session; TreeBuilds and Search cover
// the odometry frames only — a verification's one raw index and its
// queries are inside LoopTime instead. The scalar counters are maintained
// on lock-free atomics (internal/obs), so a server polling Stats
// concurrently with running stages reads them without contending on the
// engine mutex.
type Stats struct {
	FramesPushed     int64
	FramesPrepared   int64
	PairsAligned     int64
	TreeBuilds       int64
	DescriptorBuilds int64
	// FineNormals counts the target raw-cloud normals the odometry pairs'
	// fine-tuning estimated, FineTargetPoints the raw points of those
	// targets: their ratio is the share of a target ICP's matches touch
	// (≈ 0.7 at the default design point), the rest being normals nobody
	// reads and nobody estimates. Both stay zero when fine-tuning reads
	// the front-end's normals or none (registration.Result).
	FineNormals      int64
	FineTargetPoints int64
	// Search aggregates the released frames' searcher metrics (query
	// counts, node visits, build/search wall time).
	Search search.Metrics
	// Loop counts the loop-closure stage's work (zero value when the
	// stage is disabled).
	Loop loop.Stats
	// LoopTime is wall time spent verifying loop candidates.
	LoopTime time.Duration
}

// Engine is a streaming odometry session. Frames enter through PushSlab
// (or Push, for an AoS cloud); the accumulated trajectory is read with
// Trajectory. An Engine's methods are safe for concurrent use, but frames
// are processed in push order regardless of caller interleaving.
type Engine struct {
	cfg Config

	// pushMu serializes PushSlab so frame indices match arrival order even
	// with concurrent callers (the HTTP server pushes from handler
	// goroutines).
	pushMu sync.Mutex

	// rec is the session's telemetry sink (Config.Pipeline.Obs, which
	// every stage's pipeline config carries; nil records nothing).
	rec *obs.Recorder

	// Tracing (Config.Flight). stageRecs holds one traced handle per
	// pipeline stage, each owned by exactly one goroutine (prep worker,
	// align worker, loop worker — or the serialized Push path in
	// sequential mode), so rescoping them per frame with SetScope is
	// race-free and allocation-free. The loop stage's observe span is
	// recorded on the align handle: Observe runs on the commit goroutine.
	flight    *obs.FlightRecorder
	trace     obs.TraceID
	stageRecs [3]*obs.Recorder

	// Work counters, on lock-free atomics so Stats can be polled
	// concurrently with running stages (the /stats endpoint does) without
	// touching the engine mutex. searchStats (a struct of durations)
	// stays under mu: it is merged only when frames retire.
	cFramesPushed     obs.Counter
	cFramesPrepared   obs.Counter
	cPairsAligned     obs.Counter
	cTreeBuilds       obs.Counter
	cDescriptorBuilds obs.Counter
	cFineNormals      obs.Counter
	cFineTargetPoints obs.Counter
	cLoopTimeNs       obs.Counter

	// mu guards everything below.
	mu          sync.Mutex
	cond        *sync.Cond
	traj        Trajectory
	searchStats search.Metrics
	pushed      int
	done        int
	closed      bool

	// Pipelined mode.
	in chan queuedSlab
	wg sync.WaitGroup

	// Loop-closure stage (enabled by Config.Loop).
	det         *loop.Detector
	closures    []loop.Closure // guarded by mu
	loopPending int            // frames with queued verifications, guarded by mu
	loopCh      chan loopTask
	loopWg      sync.WaitGroup

	// Sequential mode: the previous frame's prepared state.
	prev *registration.PreparedFrame

	// prior is the last committed pair's Delta (the identity before the
	// first pair): where the next pair's ICP starts when the front-end's
	// estimate is rejected (registration.AlignFrom). Only commit reads or
	// writes it, and commits run one at a time in frame order in both
	// modes, so the trajectory does not depend on pipelining or width.
	prior geom.Transform
}

// Pipeline stage indices (stageRecs).
const (
	stagePrep = iota
	stageAlign
	stageLoop
)

// loopTask is one committed frame's proposed loop candidates, awaiting
// verification on the loop worker.
type loopTask struct {
	cands []loop.Candidate
}

// queuedSlab is a raw frame in flight to the front-end worker, stamped
// at enqueue so the hand-off wait (obs.StageQueueWaitPrep) is visible.
// idx is the frame's push-order index, threaded through the pipeline so
// every stage can scope its spans to the right frame before the frame
// is committed.
type queuedSlab struct {
	s   *cloud.Slab
	idx int
	enq time.Time
}

// queuedFrame is a prepared frame in flight to the alignment worker,
// stamped at enqueue (obs.StageQueueWaitAlign). prepStart anchors the
// frame's wall-clock root span.
type queuedFrame struct {
	pf        *registration.PreparedFrame
	idx       int
	prepStart time.Time
	enq       time.Time
}

// frameSpanID is the deterministic span id of frame idx's whole-frame
// root span: stable across the prep/align/loop stages (which parent
// their spans to it before the frame span itself is recorded at
// commit) and disjoint from the flight recorder's counter-allocated
// stage-span ids.
func frameSpanID(idx int) uint64 { return uint64(idx) + 1 }

// errClosed is returned by Push after Close.
var errClosed = errors.New("stream: engine closed")

// New creates an engine and, in pipelined mode, starts its stage
// workers (two, or three with the loop-closure stage). Callers must
// Close the engine to stop them. An invalid Config.Loop (unknown
// backend, bad options) panics — validate at the boundary with
// loop.Config.Validate, exactly as SearcherConfig.Validate guards the
// searcher selection.
func New(cfg Config) *Engine {
	e := &Engine{cfg: cfg, prior: geom.IdentityTransform()}
	e.cond = sync.NewCond(&e.mu)
	e.rec = cfg.Pipeline.Obs
	if cfg.Flight != nil {
		e.flight = cfg.Flight
		e.trace = cfg.Trace
		if e.trace.IsZero() {
			e.trace = obs.NewTraceID()
		}
		// Tracing without a histogram recorder still needs a core for
		// the traced handles to share.
		if e.rec == nil {
			e.rec = obs.NewRecorder()
			e.cfg.Pipeline.Obs = e.rec
		}
		for s := range e.stageRecs {
			e.stageRecs[s] = e.rec.Traced(e.flight, e.trace)
		}
	}
	if cfg.Loop != nil {
		det, err := loop.NewDetector(*cfg.Loop)
		if err != nil {
			panic(fmt.Sprintf("stream: %v (validate loop configs at the boundary with loop.Config.Validate)", err))
		}
		e.det = det
	}
	if cfg.Pipelined {
		// Capacity 1: one pushed frame may wait for the front-end before
		// Push blocks (see Config.Pipelined for the memory bound).
		e.in = make(chan queuedSlab, 1)
		// Capacity 1 is the pipeline register between the two stages:
		// the front-end worker may run one frame ahead of alignment.
		preparedCh := make(chan queuedFrame, 1)
		e.wg.Add(2)
		go e.prepWorker(preparedCh)
		go e.alignWorker(preparedCh)
		if e.det != nil {
			// The loop stage rarely has queued work (candidates are gated
			// and cooled down), so a small queue suffices; commit never
			// blocks on it because the channel is drained by a dedicated
			// worker.
			e.loopCh = make(chan loopTask, 8)
			e.loopWg.Add(1)
			go e.loopWorker()
		}
	}
	return e
}

// Push submits the next frame of the stream as PushSlab does, quantizing
// c into a slab first (its columns drawn from the ones released frames
// handed back); c itself is left as it was.
func (e *Engine) Push(c *cloud.Cloud) (int, error) {
	s := cloud.SlabFromCloud(c)
	idx, err := e.PushSlab(s)
	if err != nil {
		s.Recycle()
	}
	return idx, err
}

// PushSlab submits the next frame of the stream and returns its index.
// The engine takes ownership of s (its normal columns are filled in
// place, exactly as PrepareFrameSlab does, and its columns go back to the
// slab pool once the frame is released); after an error s is still the
// caller's. In pipelined mode PushSlab returns as soon as the frame is
// queued; otherwise it returns after the frame's pose is committed. Use
// Drain to wait for all pushed frames.
func (e *Engine) PushSlab(s *cloud.Slab) (int, error) {
	e.pushMu.Lock()
	defer e.pushMu.Unlock()

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return 0, errClosed
	}
	idx := e.pushed
	e.pushed++
	e.mu.Unlock()
	e.cFramesPushed.Inc()

	if e.cfg.Pipelined {
		e.in <- queuedSlab{s: s, idx: idx, enq: time.Now()}
		return idx, nil
	}
	e.process(s, idx)
	return idx, nil
}

// process runs both stages synchronously (sequential mode).
func (e *Engine) process(s *cloud.Slab, idx int) {
	prepStart := time.Now()
	pf := e.prepare(s, idx)
	prev := e.prev
	e.prev = pf
	e.commit(pf, prev, idx, prepStart)
}

// stageRec returns the recorder a stage records frame idx under: its
// traced handle rescoped to the frame, or the session recorder when
// tracing is off. Each handle is owned by the one goroutine that runs the
// stage, so the rescope is race-free.
func (e *Engine) stageRec(stage, idx int) *obs.Recorder {
	sr := e.stageRecs[stage]
	if sr == nil {
		return e.rec
	}
	sr.SetScope(frameSpanID(idx), idx)
	return sr
}

// enter starts one heavy stage: the limiter admits it (which tenant may
// start a stage), then it takes the slot it computes on (how wide it runs
// is what its loops can borrow beside that). leave undoes both. A stage
// holds neither while it waits on another stage.
func (e *Engine) enter() {
	e.cfg.Limiter.acquire()
	par.Acquire()
}

func (e *Engine) leave() {
	par.Release()
	e.cfg.Limiter.release()
}

// prepare runs the front-end stage. The build-once counters are bumped
// here — at the site that actually builds — so the stats assert real
// work, not commits.
func (e *Engine) prepare(s *cloud.Slab, idx int) *registration.PreparedFrame {
	e.enter()
	defer e.leave()
	cfg := e.cfg.Pipeline
	cfg.Obs = e.stageRec(stagePrep, idx)
	pf := registration.PrepareFrameSlab(s, cfg)
	e.cFramesPrepared.Inc()
	e.cDescriptorBuilds.Inc()
	return pf
}

// commit aligns pf against prev (nil for the first frame), appends the
// frame's trajectory record, releases prev, and wakes Drain waiters.
func (e *Engine) commit(pf, prev *registration.PreparedFrame, idx int, prepStart time.Time) {
	fr := FrameResult{PrepTime: pf.PrepTotal, Delta: geom.IdentityTransform()}
	if prev != nil {
		e.enter()
		cfg := e.cfg.Pipeline
		cfg.Obs = e.stageRec(stageAlign, idx)
		start := time.Now()
		fr.Reg = registration.AlignFrom(pf, prev, cfg, e.prior)
		fr.AlignTime = time.Since(start)
		e.leave()
		fr.Delta = fr.Reg.Transform
		e.prior = fr.Delta
		// Surface this frame's front-end shares in the pair result so
		// per-frame records read like Register's (the target's shares
		// belong to the previous frame's record).
		fr.Reg.Stage.NormalEstimation = pf.NormalTime
		fr.Reg.Stage.KeypointDetection = pf.KeypointTime
		fr.Reg.Stage.DescriptorCalculation = pf.DescriptorTime
	}

	e.mu.Lock()
	fr.Index = len(e.traj.Poses)
	if fr.Index == 0 {
		if e.cfg.Origin != nil {
			fr.Pose = *e.cfg.Origin
		} else {
			fr.Pose = geom.IdentityTransform()
		}
	} else {
		fr.Pose = e.traj.Poses[fr.Index-1].Compose(fr.Delta)
	}
	e.traj.Poses = append(e.traj.Poses, fr.Pose)
	e.traj.Frames = append(e.traj.Frames, fr)
	e.mu.Unlock()
	if prev != nil {
		e.cPairsAligned.Inc()
		e.cFineNormals.Add(int64(fr.Reg.FineNormals))
		e.cFineTargetPoints.Add(int64(fr.Reg.FineTargetPoints))
	}
	e.rec.Observe(obs.StageFrame, fr.PrepTime+fr.AlignTime)
	if e.flight != nil {
		// The whole-frame root span: the wall interval from front-end
		// start to commit, under the frame's deterministic span id so the
		// stage spans recorded earlier already point at it.
		e.flight.Record(obs.SpanEvent{
			Trace: e.trace, Span: frameSpanID(idx), Parent: 0,
			Frame: int32(idx), Stage: obs.StageFrame,
			Start: prepStart.UnixNano(), Dur: int64(time.Since(prepStart)),
		})
	}

	e.observeLoop(fr.Index, pf)

	if prev != nil {
		e.release(prev)
	}

	e.mu.Lock()
	e.done++
	e.cond.Broadcast()
	e.mu.Unlock()
}

// release retires a frame that has played both of its roles: its search
// metrics fold into the session stats and everything it allocated goes
// back to the pools the frames still to come draw from
// (registration.PreparedFrame.Release; what the loop detector shares with
// it stays out).
func (e *Engine) release(f *registration.PreparedFrame) {
	m := f.SearchMetrics()
	e.mu.Lock()
	e.searchStats.Merge(m)
	e.mu.Unlock()
	e.cTreeBuilds.Add(int64(f.Builds))
	f.Release()
}

// observeLoop runs the loop-closure stage's cheap half for a committed
// frame: signature aggregation and candidate proposal. Candidate
// verification is expensive and runs inline in sequential mode, or on
// the loop worker in pipelined mode.
//
// Determinism: proposals depend on the detector's cooldown state, which
// verification outcomes advance — so in pipelined mode Observe waits
// for any still-queued verifications of earlier frames first. That keeps
// the closure set, and therefore the optimized trajectory, bit-identical
// across pipelining and Parallelism, and it is not free: a verification
// costs several frames of compute, so on a looping route the align stage
// spends much of its time waiting here. Not waiting (the loop worker
// re-checking the cooldown instead) gained nothing end to end when it
// was tried: ROADMAP item 16 has the measurement.
func (e *Engine) observeLoop(index int, pf *registration.PreparedFrame) {
	if e.det == nil {
		return
	}
	if e.cfg.Pipelined {
		e.mu.Lock()
		for e.loopPending > 0 {
			e.cond.Wait()
		}
		e.mu.Unlock()
	}
	// The observe span (obs.StageLoopObserve) times the cheap per-frame
	// half of place recognition: aggregation, index maintenance and
	// candidate ranking, parented to this frame's root span.
	span := e.stageRec(stageAlign, index).Start(obs.StageLoopObserve)
	// The detector keeps pf's point arrays and key-point positions by
	// reference (loop.Detector.Observe), so a verification may be reading
	// them while the next pair aligns against pf. Nothing writes them after
	// the front-end: what that pair's ICP writes — on-demand normals, the
	// raw index — hangs off pf and pf.Raw's own header, which the detector
	// does not hold, and a raw-cloud front-end's normals are all there
	// already.
	cands := e.det.Observe(index, pf)
	span.End()
	if len(cands) == 0 {
		return
	}
	if e.cfg.Pipelined {
		e.mu.Lock()
		e.loopPending++
		e.mu.Unlock()
		e.loopCh <- loopTask{cands: cands}
		return
	}
	e.verifyLoop(cands)
}

// verifyLoop verifies proposed candidates in order, stopping at the
// first accepted closure (the cooldown then suppresses the frames right
// behind it). A heavy stage like the other two.
func (e *Engine) verifyLoop(cands []loop.Candidate) {
	e.enter()
	cfg := e.cfg.Pipeline
	// Verification runs registration.Align internally; detach the recorder
	// so its KPCE/ICP sub-stages don't pollute the odometry per-stage
	// histograms. The whole verification lands in one obs.StageLoopVerify
	// sample below instead.
	cfg.Obs = nil
	start := time.Now()
	var accepted *loop.Closure
	for _, cand := range cands {
		if cl, ok := e.det.Verify(cand, cfg); ok {
			accepted = &cl
			break
		}
	}
	elapsed := time.Since(start)
	e.leave()
	e.cLoopTimeNs.Add(int64(elapsed))
	// The verification span hangs off the proposing frame's root span.
	e.stageRec(stageLoop, cands[0].From).Observe(obs.StageLoopVerify, elapsed)

	if accepted != nil {
		e.mu.Lock()
		e.closures = append(e.closures, *accepted)
		e.mu.Unlock()
	}
}

// loopWorker is pipeline stage 3: loop-candidate verification.
func (e *Engine) loopWorker() {
	defer e.loopWg.Done()
	for task := range e.loopCh {
		e.verifyLoop(task.cands)
		e.mu.Lock()
		e.loopPending--
		e.cond.Broadcast()
		e.mu.Unlock()
	}
}

// prepWorker is pipeline stage 1: the per-frame front-end. The recorded
// queue wait — enqueue at Push to receive here — is the input backlog: it
// grows when the caller outruns the front-end.
func (e *Engine) prepWorker(out chan<- queuedFrame) {
	defer e.wg.Done()
	defer close(out)
	for qc := range e.in {
		e.stageRec(stagePrep, qc.idx).Observe(obs.StageQueueWaitPrep, time.Since(qc.enq))
		prepStart := time.Now()
		out <- queuedFrame{pf: e.prepare(qc.s, qc.idx), idx: qc.idx, prepStart: prepStart, enq: time.Now()}
	}
}

// alignWorker is pipeline stage 2: pair alignment and trajectory
// accumulation. While it aligns frame N against N−1, prepWorker is
// already deep in frame N+1 — the two-stage overlap. The recorded queue
// wait — prepared-frame enqueue to receive here — is the hand-off stall:
// it grows when alignment is the bottleneck stage.
func (e *Engine) alignWorker(in <-chan queuedFrame) {
	defer e.wg.Done()
	var prev *registration.PreparedFrame
	for qf := range in {
		e.stageRec(stageAlign, qf.idx).Observe(obs.StageQueueWaitAlign, time.Since(qf.enq))
		e.commit(qf.pf, prev, qf.idx, qf.prepStart)
		prev = qf.pf
	}
	if prev != nil {
		e.release(prev)
	}
}

// Pending reports how many pushed frames have not been fully processed
// yet (committed to the trajectory, plus any queued loop-closure
// verifications). A server uses this to tell an idle session apart from
// one still chewing through queued work (which must not be evicted).
func (e *Engine) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pushed - e.done + e.loopPending
}

// Drain blocks until every frame pushed so far has been committed to the
// trajectory and its loop-closure candidates (if any) verified.
func (e *Engine) Drain() {
	e.mu.Lock()
	target := e.pushed
	for e.done < target || e.loopPending > 0 {
		e.cond.Wait()
	}
	e.mu.Unlock()
}

// Close drains the session, stops the pipeline workers, and releases the
// last frame's state. Push returns an error afterwards; Trajectory and
// Stats remain readable.
func (e *Engine) Close() {
	// Serialize with Push: a frame mid-submission finishes (or its send
	// lands) before the input channel closes.
	e.pushMu.Lock()
	defer e.pushMu.Unlock()

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()

	if e.cfg.Pipelined {
		close(e.in)
		e.wg.Wait()
		if e.loopCh != nil {
			// The align worker has exited, so no further loop tasks can be
			// enqueued; drain the verification queue and stop the worker.
			close(e.loopCh)
			e.loopWg.Wait()
		}
	} else if e.prev != nil {
		e.release(e.prev)
		e.prev = nil
	}
}

// Frame returns one committed frame's record, or ok=false when frame i
// has not been committed yet. Unlike Trajectory it copies a single
// record, so per-push polling stays O(1) over the session's life.
func (e *Engine) Frame(i int) (FrameResult, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if i < 0 || i >= len(e.traj.Frames) {
		return FrameResult{}, false
	}
	return e.traj.Frames[i], true
}

// Trajectory returns a snapshot of the trajectory accumulated so far
// (copied headers; safe to use while the session keeps running).
func (e *Engine) Trajectory() Trajectory {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Trajectory{
		Poses:  append([]geom.Transform(nil), e.traj.Poses...),
		Frames: append([]FrameResult(nil), e.traj.Frames...),
	}
}

// Stats returns a snapshot of the session counters. Searcher metrics and
// tree-build counts are folded in when frames retire, so they trail the
// trajectory by up to two in-flight frames until Close.
func (e *Engine) Stats() Stats {
	st := Stats{
		FramesPushed:     e.cFramesPushed.Value(),
		FramesPrepared:   e.cFramesPrepared.Value(),
		PairsAligned:     e.cPairsAligned.Value(),
		TreeBuilds:       e.cTreeBuilds.Value(),
		DescriptorBuilds: e.cDescriptorBuilds.Value(),
		FineNormals:      e.cFineNormals.Value(),
		FineTargetPoints: e.cFineTargetPoints.Value(),
		LoopTime:         time.Duration(e.cLoopTimeNs.Value()),
	}
	e.mu.Lock()
	st.Search = e.searchStats
	e.mu.Unlock()
	if e.det != nil {
		st.Loop = e.det.Stats()
	}
	return st
}

// Closures snapshots the verified loop closures accepted so far, in
// frame order (empty without Config.Loop). The set is deterministic:
// proposals, verification order, and acceptance are all independent of
// pipelining and Parallelism.
func (e *Engine) Closures() []loop.Closure {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]loop.Closure(nil), e.closures...)
}

// OptimizedPoses builds the session's pose graph — the odometry chain as
// consecutive edges plus one weighted robust edge per verified loop
// closure — and optimizes it (internal/posegraph), returning the
// globally consistent trajectory. Callers should Drain first so every
// pushed frame and queued verification is reflected. The solve runs at the
// session's worker count (Pipeline.Searcher.Parallelism), and its result
// is bit-identical at any width. Without loop closures the graph is
// exactly consistent and the odometry poses come back unchanged.
func (e *Engine) OptimizedPoses() ([]geom.Transform, posegraph.Result, error) {
	e.mu.Lock()
	if len(e.traj.Poses) == 0 {
		e.mu.Unlock()
		return nil, posegraph.Result{Converged: true}, nil
	}
	deltas := make([]geom.Transform, 0, len(e.traj.Frames))
	for _, fr := range e.traj.Frames {
		if fr.Index == 0 {
			continue
		}
		deltas = append(deltas, fr.Delta)
	}
	origin := e.traj.Poses[0]
	closures := append([]loop.Closure(nil), e.closures...)
	e.mu.Unlock()

	g := posegraph.FromOdometry(origin, deltas)
	w := e.cfg.LoopEdgeWeight
	if w == 0 {
		w = 10
	}
	for _, cl := range closures {
		g.AddEdge(posegraph.Edge{
			I: cl.To, J: cl.From, Z: cl.Delta,
			TransWeight: w, RotWeight: w, Robust: true,
		})
	}
	// The solve computes on a slot like a stage does; admitting it is the
	// caller's business (the server takes its limiter around this call).
	par.Acquire()
	poses, res, err := g.Optimize(posegraph.Options{Parallelism: e.cfg.Pipeline.Searcher.Parallelism})
	par.Release()
	e.rec.Observe(obs.StagePoseGraph, res.SolveTime)
	if e.flight != nil {
		// Frameless root span: the back-end solve belongs to the session,
		// not to any one frame.
		e.flight.Record(obs.SpanEvent{
			Trace: e.trace, Parent: 0, Frame: -1, Stage: obs.StagePoseGraph,
			Start: time.Now().Add(-res.SolveTime).UnixNano(), Dur: int64(res.SolveTime),
		})
	}
	return poses, res, err
}
