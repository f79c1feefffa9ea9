package gateway

// Policy names a session-placement strategy.
type Policy string

// PolicyLeastLoaded places each session on the worker with the fewest
// pending frames (scraped from its /metrics by the health poller),
// tie-broken by the gateway's own live session count, then by worker
// index — so placement is deterministic given the polled state. It is
// the only placement rule; an empty Config.Policy selects it.
const PolicyLeastLoaded Policy = "least-loaded"

// pickExplain returns the least-loaded choice among available workers
// not yet tried, or nil when no worker qualifies, plus its evidence:
// one DecisionCandidate row per configured worker (including the
// excluded ones, with why), and the tie-break criterion that decided
// among the eligible set — the raw material of the routing-decision
// trace.
func (g *Gateway) pickExplain(tried map[*worker]bool) (*worker, []DecisionCandidate, string) {
	rows := make([]DecisionCandidate, len(g.workers))
	cands := make([]*worker, 0, len(g.workers))
	for i, wk := range g.workers {
		rows[i] = DecisionCandidate{
			Worker:        wk.url,
			Healthy:       wk.healthy.Load(),
			Draining:      wk.draining.Load(),
			Tried:         tried[wk],
			PendingFrames: wk.polledPending.Load(),
			Sessions:      wk.gwSessions.Load(),
		}
		if wk.available() && !rows[i].Tried {
			cands = append(cands, wk)
		}
	}
	if len(cands) == 0 {
		return nil, rows, ""
	}
	best := cands[0]
	for _, wk := range cands[1:] {
		bp, wp := best.polledPending.Load(), wk.polledPending.Load()
		bs, ws := best.gwSessions.Load(), wk.gwSessions.Load()
		if wp < bp || (wp == bp && (ws < bs || (ws == bs && wk.idx < best.idx))) {
			best = wk
		}
	}
	// Name the criterion that actually separated the winner from the
	// rest of the eligible set.
	tieBreak := "pending_frames"
	pendingTies, sessionTies := 0, 0
	for _, wk := range cands {
		if wk == best {
			continue
		}
		if wk.polledPending.Load() == best.polledPending.Load() {
			pendingTies++
			if wk.gwSessions.Load() == best.gwSessions.Load() {
				sessionTies++
			}
		}
	}
	if pendingTies > 0 {
		tieBreak = "sessions"
		if sessionTies > 0 {
			tieBreak = "index"
		}
	}
	for i := range rows {
		if rows[i].Worker == best.url {
			rows[i].Picked = true
		}
	}
	return best, rows, tieBreak
}
