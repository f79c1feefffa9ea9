package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// DrainWorker gracefully removes a worker (named by URL or index) from
// the fleet: it is fenced from new sessions, then every session it
// holds is migrated to another worker — committed trajectory drained
// and carried over as a prefix, a replacement session created with
// origin = the last committed pose, the old session deleted. Returns
// how many sessions were migrated; on error some sessions may remain on
// the draining worker (they keep working until the worker actually
// dies). The worker stays fenced afterwards, so it can be killed or
// restarted; the health poller re-admits it for routing only after a
// restart flips draining back off via DELETE /gateway/drain.
func (g *Gateway) DrainWorker(ref string) (int, error) {
	wk := g.findWorker(ref)
	if wk == nil {
		return 0, fmt.Errorf("no worker %q", ref)
	}
	wk.draining.Store(true)
	if g.logger != nil {
		g.logger.Info("draining worker", "worker", wk.url)
	}

	// Snapshot the sessions currently mapped to the draining worker.
	g.mu.Lock()
	var victims []*gwSession
	for _, ses := range g.sessions {
		victims = append(victims, ses)
	}
	g.mu.Unlock()

	migrated := 0
	var firstErr error
	for _, ses := range victims {
		moved, err := g.migrate(ses, wk)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("session %s: %w", ses.id, err)
		}
		if moved {
			migrated++
		}
	}
	return migrated, firstErr
}

// migrate moves one session off a draining worker. It holds the session
// write-lock for the whole move, so concurrent pushes either complete
// before the trajectory snapshot (and are carried over) or land on the
// replacement session afterwards — committed state is never dropped.
// Reports whether the session was moved (false, nil when it was not on
// the draining worker to begin with).
func (g *Gateway) migrate(ses *gwSession, from *worker) (bool, error) {
	ses.mu.Lock()
	defer ses.mu.Unlock()
	if ses.w != from {
		return false, nil
	}

	// Drain the old worker's committed state: ?wait=1 blocks until every
	// pushed frame is committed, so nothing in flight is lost.
	resp, err := g.doUpstream(from, http.MethodGet, subPath(ses.remoteID, "trajectory", "wait=1"), g.workerAuth(), "", ses.trace, nil)
	if err != nil {
		return false, fmt.Errorf("draining trajectory: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("draining trajectory: status %d", resp.StatusCode)
	}
	var traj struct {
		Trajectory []map[string]any `json:"trajectory"`
	}
	if err := json.Unmarshal(body, &traj); err != nil {
		return false, fmt.Errorf("draining trajectory: %w", err)
	}

	// Committed loop closures ride along (best-effort: sessions without
	// the loop stage answer with an empty list).
	var loops struct {
		Closures []map[string]any `json:"closures"`
	}
	if resp, err := g.doUpstream(from, http.MethodGet, subPath(ses.remoteID, "loops", "wait=1"), g.workerAuth(), "", ses.trace, nil); err == nil {
		if resp.StatusCode == http.StatusOK {
			_ = json.NewDecoder(resp.Body).Decode(&loops)
		}
		resp.Body.Close()
	}

	// Recreate the session on another worker from its original config,
	// anchored at the last committed pose so the trajectory continues
	// where it left off. The engine's motion prior (the last pair's delta,
	// stream.Engine) is not carried and need not be: the new session's
	// first frame is anchored at that pose, not registered against the
	// old session's last frame, so no pair spans the drain.
	createBody := map[string]any{}
	if len(ses.createBody) > 0 {
		if err := json.Unmarshal(ses.createBody, &createBody); err != nil {
			createBody = map[string]any{}
		}
	}
	// Drop a previous migration's origin before re-anchoring.
	delete(createBody, "origin")
	if last := lastPose(ses.prefix, traj.Trajectory); last != nil {
		createBody["origin"] = last
	}
	newBody, err := json.Marshal(createBody)
	if err != nil {
		return false, err
	}
	newWk, newRemoteID, respBody, status, decs, err := g.createUpstream(ses.id, "migrate", ses.trace, newBody, g.workerAuth())
	ses.decisions = append(ses.decisions, decs...)
	if n := len(ses.decisions); n > maxSessionDecisions {
		ses.decisions = ses.decisions[n-maxSessionDecisions:]
	}
	if err != nil {
		return false, fmt.Errorf("recreating session: %w", err)
	}
	if status != http.StatusCreated {
		return false, fmt.Errorf("recreating session: worker %s answered %d: %s", newWk.url, status, respBody)
	}

	// Capture the old worker's span tree before the session (and its
	// flight recorder) disappears: the retiring epoch's events become a
	// trace prefix, stitched into /gateway/trace exactly like the
	// trajectory prefix. Pid = worker epoch so Perfetto shows each
	// worker's frames on its own process row.
	if doc, ok := g.fetchWorkerTrace(from, ses.remoteID, ses.trace); ok {
		epoch := ses.migrations + 1
		for i := range doc.TraceEvents {
			doc.TraceEvents[i].Pid = epoch
		}
		ses.prefixTrace = append(ses.prefixTrace, doc.TraceEvents...)
	}

	// Retire the old session (best-effort: the worker is going away).
	if resp, err := g.doUpstream(from, http.MethodDelete, subPath(ses.remoteID, "", ""), g.workerAuth(), "", ses.trace, nil); err == nil {
		resp.Body.Close()
	}

	// Fold the drained frames into the carried-over prefix with global
	// indices, and re-point the session.
	shiftIndices(traj.Trajectory, len(ses.prefix), "index")
	shiftIndices(loops.Closures, len(ses.prefix), "from", "to")
	ses.prefix = append(ses.prefix, traj.Trajectory...)
	ses.prefixClosures = append(ses.prefixClosures, loops.Closures...)
	from.gwSessions.Add(-1) // createUpstream already counted it on newWk
	ses.w = newWk
	ses.remoteID = newRemoteID
	ses.migrations++
	g.cMigrated.Inc()
	if g.logger != nil {
		g.logger.Info("session migrated",
			"session", ses.id, "from", from.url, "to", newWk.url,
			"carried_frames", len(ses.prefix))
	}
	return true, nil
}

// lastPose returns the most recent committed pose across the carried
// prefix and the freshly drained frames (nil when the session never
// committed a frame).
func lastPose(prefix, drained []map[string]any) any {
	if n := len(drained); n > 0 {
		return drained[n-1]["pose"]
	}
	if n := len(prefix); n > 0 {
		return prefix[n-1]["pose"]
	}
	return nil
}
