package gateway

import (
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"tigris/internal/serve"
)

// admitTable implements per-client token-bucket admission control: each
// client key owns a bucket refilled at rate tokens/second up to burst.
// Session creates and frame pushes each cost one token; an empty bucket
// refuses the request with 429 and a Retry-After derived from the
// refill rate — so a well-behaved client converges to its granted rate
// instead of hammering.
type admitTable struct {
	rate  float64
	burst float64

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// newAdmitTable returns nil (admission off) when rate <= 0. A burst of
// <= 0 defaults to max(1, ceil(rate)).
func newAdmitTable(rate float64, burst int) *admitTable {
	if rate <= 0 {
		return nil
	}
	b := float64(burst)
	if b <= 0 {
		b = math.Max(1, math.Ceil(rate))
	}
	return &admitTable{rate: rate, burst: b, buckets: make(map[string]*bucket)}
}

// Allow consumes one token for key at time now. When the bucket is
// empty it reports the whole seconds until a token will be available
// (>= 1). Nil tables admit everything.
func (t *admitTable) Allow(key string, now time.Time) (ok bool, retryAfterSecs int) {
	if t == nil {
		return true, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	bk := t.buckets[key]
	if bk == nil {
		bk = &bucket{tokens: t.burst, last: now}
		t.buckets[key] = bk
	}
	if dt := now.Sub(bk.last).Seconds(); dt > 0 {
		bk.tokens = math.Min(t.burst, bk.tokens+t.rate*dt)
	}
	bk.last = now
	if bk.tokens >= 1 {
		bk.tokens--
		return true, 0
	}
	secs := int(math.Ceil((1 - bk.tokens) / t.rate))
	if secs < 1 {
		secs = 1
	}
	return false, secs
}

// clientKey identifies the client for admission accounting: the bearer
// token when present (one budget per credential), else an explicit
// X-Client-ID header, else the remote IP.
func clientKey(r *http.Request) string {
	if tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer "); ok && tok != "" {
		return "tok:" + tok
	}
	if cid := r.Header.Get("X-Client-ID"); cid != "" {
		return "cid:" + cid
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	return "ip:" + host
}

// admitOK runs admission control for a request, answering 429 with the
// shared overload shape (Retry-After header + JSON body) on refusal.
func (g *Gateway) admitOK(w http.ResponseWriter, r *http.Request) bool {
	ok, retry := g.admit.Allow(clientKey(r), time.Now())
	if ok {
		return true
	}
	g.cAdmitRejected.Inc()
	serve.WriteOverload(w, http.StatusTooManyRequests, retry,
		"admission: client over rate (%.3g/s, burst %d)", g.cfg.AdmitRate, int(g.admit.burst))
	return false
}
