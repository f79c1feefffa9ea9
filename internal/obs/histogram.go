// Package obs is the always-on telemetry core: atomic counters, gauges,
// and log-bucketed latency histograms with exact-count percentile
// extraction, plus the span/recorder API the registration pipeline
// threads its per-stage attribution through and a Prometheus text
// registry the serving layer scrapes.
//
// The design constraint is that recording must be safe on the hot path:
// Record/Add/Observe never allocate and never take a lock. Histograms
// stripe their buckets across cache-line-padded shards selected by a
// per-goroutine hint, so concurrent pipeline stages recording into the
// same histogram do not contend on one cache line; shards are summed
// only at read time. The existing AllocsPerRun budgets in kdtree and
// registration therefore hold unchanged with metrics enabled, and a nil
// *Recorder is a complete no-op, so telemetry is strictly opt-in for
// library users.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
	"unsafe"
)

// Histogram bucket layout: log-linear (HDR-style) over nanoseconds.
// Values 0..7 ns get their own bucket (the linear region); above that,
// every power-of-two octave is split into 8 sub-buckets, so a bucket's
// width is at most 12.5% of its value — tight enough that a bucketed
// p99 is within ~12% of the exact order statistic while the bucket
// index is pure bit arithmetic (no search, no floating point).
const (
	histSubBits = 3
	histSub     = 1 << histSubBits // sub-buckets per octave
	// Highest representable msb is 62 (values up to ~2^63-1 ns, ~292
	// years); larger values clamp into the last bucket.
	histBuckets = (62-histSubBits)*histSub + 2*histSub
)

// histShards stripes recording across this many independent bucket
// arrays. Recording picks a shard from a per-goroutine stack hint, so
// the handful of pipeline workers that share one histogram land on
// different cache lines; reads merge all shards. Must be a power of two.
const histShards = 4

// bucketIndex maps a non-negative nanosecond value to its bucket.
func bucketIndex(ns int64) int {
	v := uint64(ns)
	if v < histSub {
		return int(v)
	}
	msb := bits.Len64(v) - 1
	if msb > 62 {
		msb = 62
		v = 1<<63 - 1
	}
	shift := uint(msb - histSubBits)
	sub := (v >> shift) & (histSub - 1)
	return (msb-histSubBits)*histSub + int(sub) + histSub
}

// bucketUpperNs returns the largest nanosecond value bucket idx holds —
// the value Quantile reports for ranks that land in the bucket, so the
// reported percentile is an exact upper bound on the true order
// statistic (and within one bucket width of it).
func bucketUpperNs(idx int) int64 {
	if idx < histSub {
		return int64(idx)
	}
	block := uint((idx - histSub) >> histSubBits)
	sub := uint64((idx-histSub)&(histSub-1)) + histSub
	return int64((sub+1)<<block - 1)
}

// histShard is one stripe of a histogram. The pad keeps adjacent shards
// off each other's cache lines for the fields updated on every record
// (count, sum, max); the bucket array is large enough that cross-shard
// false sharing there is negligible.
type histShard struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Int64
	sumNs  atomic.Int64
	maxNs  atomic.Int64
	_      [64]byte
}

// Histogram is a fixed-size log-bucketed latency histogram. The zero
// value is ready to use; the shard array is large, so histograms are
// shared by pointer (Registry.Histogram hands them out).
//
// Record is lock-free, allocation-free, and safe for any number of
// concurrent writers; Snapshot/Quantile/Summary may run concurrently
// with writers and observe each shard's counters independently (a read
// racing a record may miss that one sample — monitoring reads, not
// barriers).
type Histogram struct {
	shards [histShards]histShard
}

// shardHint derives a stripe index from the caller's stack address: a
// goroutine's stack is stable across the few nanoseconds of a record
// and distinct goroutines live on distinct stacks, so concurrent
// recorders spread across shards without any runtime support. The
// multiplicative mix spreads whichever address bits actually differ.
// Any distribution is correct — shards are summed at read time — this
// only reduces contention.
func shardHint() uint64 {
	var marker byte
	a := uint64(uintptr(unsafe.Pointer(&marker)))
	return (a * 0x9E3779B97F4A7C15) >> 32
}

// Record adds one duration sample. Negative durations clamp to zero.
func (h *Histogram) Record(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	s := &h.shards[shardHint()&(histShards-1)]
	s.counts[bucketIndex(ns)].Add(1)
	s.count.Add(1)
	s.sumNs.Add(ns)
	for {
		cur := s.maxNs.Load()
		if ns <= cur || s.maxNs.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Snapshot is a merged, point-in-time view of a histogram's counts.
type Snapshot struct {
	Counts [histBuckets]uint64
	Count  int64
	SumNs  int64
	MaxNs  int64
}

// Snapshot merges all shards into one view. The merge is deterministic:
// whatever shard each sample landed on, the summed counts (and
// therefore every quantile) depend only on the recorded multiset.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	for i := range h.shards {
		sh := &h.shards[i]
		for b := range sh.counts {
			s.Counts[b] += sh.counts[b].Load()
		}
		s.Count += sh.count.Load()
		s.SumNs += sh.sumNs.Load()
		if m := sh.maxNs.Load(); m > s.MaxNs {
			s.MaxNs = m
		}
	}
	return s
}

// Quantile returns the value at quantile q in [0,1] as a duration: the
// upper bound of the bucket holding the ceil(q·count)-th smallest
// sample. The rank arithmetic is exact (integer counts); only the value
// is bucketed, to at most one sub-bucket width (≤12.5%). q ≥ 1 returns
// the exact maximum; an empty snapshot returns 0.
func (s *Snapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q >= 1 {
		return time.Duration(s.MaxNs)
	}
	if q < 0 {
		q = 0
	}
	rank := int64(q*float64(s.Count) + 0.9999999999)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for b := range s.Counts {
		cum += int64(s.Counts[b])
		if cum >= rank {
			up := bucketUpperNs(b)
			if up > s.MaxNs {
				up = s.MaxNs // the top occupied bucket never reports past the true max
			}
			return time.Duration(up)
		}
	}
	return time.Duration(s.MaxNs)
}

// Summary is the fixed percentile digest every surface reports: the
// stats JSON's latency_ms object, the BENCH latency_percentiles
// columns, and the README's reading guide all carry exactly these
// fields.
type Summary struct {
	Count int64
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
	Mean  time.Duration
}

// Summary extracts the digest from a snapshot.
func (s *Snapshot) Summary() Summary {
	sum := Summary{
		Count: s.Count,
		P50:   s.Quantile(0.50),
		P95:   s.Quantile(0.95),
		P99:   s.Quantile(0.99),
		Max:   time.Duration(s.MaxNs),
	}
	if s.Count > 0 {
		sum.Mean = time.Duration(s.SumNs / s.Count)
	}
	return sum
}

// Summary is shorthand for Snapshot().Summary().
func (h *Histogram) Summary() Summary {
	s := h.Snapshot()
	return s.Summary()
}
