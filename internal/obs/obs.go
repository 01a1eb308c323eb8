// Package obs is the repository's observability layer: a small,
// dependency-free metrics subsystem (atomic counters, gauges, fixed-bucket
// histograms, per-stage span timers) plus a registry that renders the
// current state as a human-readable text table or as stable JSON.
//
// The paper's headline numbers all come from counting what each processing
// stage saw and dropped, so every hot path — route server import, fabric
// forwarding, IPFIX sampling, the two analysis passes — maintains obs
// counters that a snapshot can cross-check against the rendered report
// (see DESIGN.md, "Observability"). Counters and gauges are single atomic
// words: incrementing one costs a few nanoseconds and is safe from any
// goroutine, so instrumentation stays on when the pipeline's operators
// each run on a goroutine of their own.
package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; do not copy a Counter after first use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Negative n is a programming error and ignored: counters
// only go up.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value that may go up and down. The
// zero value is ready to use; do not copy a Gauge after first use.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets defined by ascending
// upper bounds; values above the last bound land in an implicit overflow
// bucket. Construct with NewHistogram (or Registry.Histogram); the zero
// value observes into the overflow bucket only.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Int64 // len(bounds)+1, last is overflow
	count   atomic.Int64
	sum     atomic.Int64
}

// NewHistogram returns a histogram over the given ascending upper bounds.
// Bounds are copied; a value v is counted in the first bucket with
// v <= bound.
func NewHistogram(bounds ...int64) *Histogram {
	h := &Histogram{bounds: append([]int64(nil), bounds...)}
	h.buckets = make([]atomic.Int64, len(h.bounds)+1)
	return h
}

// Observe counts one observation of v.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	if len(h.buckets) == 0 {
		// Zero-value histogram: nothing to index; count and sum only.
		h.count.Add(1)
		h.sum.Add(v)
		return
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Buckets returns the bucket upper bounds and the per-bucket counts (the
// final count is the overflow bucket, bound math.MaxInt64).
func (h *Histogram) Buckets() (bounds []int64, counts []int64) {
	bounds = append(bounds, h.bounds...)
	bounds = append(bounds, math.MaxInt64)
	counts = make([]int64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	if len(counts) == 0 {
		counts = []int64{h.count.Load()}
	}
	return bounds, counts
}

// Timer measures spans of a processing stage: the number of spans, total,
// minimum and maximum duration. The zero value is ready to use; do not
// copy a Timer after first use.
type Timer struct {
	count atomic.Int64
	total atomic.Int64 // nanoseconds
	min   atomic.Int64 // nanoseconds; math.MaxInt64 when empty
	max   atomic.Int64 // nanoseconds
}

// Span is an in-flight timer span started by Timer.Start.
type Span struct {
	t     *Timer
	start time.Time
}

// Start opens a span; call End (usually deferred) to record it.
func (t *Timer) Start() Span { return Span{t: t, start: time.Now()} }

// End records the span's duration and returns it.
func (s Span) End() time.Duration {
	d := time.Since(s.start)
	s.t.Observe(d)
	return d
}

// Observe records one span of duration d.
func (t *Timer) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	t.count.Add(1)
	t.total.Add(ns)
	// min uses 0 as "unset"; a genuine 0ns span leaves it at 0 either way.
	for {
		cur := t.min.Load()
		if cur != 0 && ns >= cur {
			break
		}
		if t.min.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := t.max.Load()
		if ns <= cur {
			break
		}
		if t.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// CountSpans returns the number of recorded spans.
func (t *Timer) CountSpans() int64 { return t.count.Load() }

// Total returns the summed duration of all spans.
func (t *Timer) Total() time.Duration { return time.Duration(t.total.Load()) }

// Min returns the shortest recorded span (0 when none).
func (t *Timer) Min() time.Duration { return time.Duration(t.min.Load()) }

// Max returns the longest recorded span (0 when none).
func (t *Timer) Max() time.Duration { return time.Duration(t.max.Load()) }
