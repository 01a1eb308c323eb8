// Package timealign estimates the clock offset between the control-plane
// and data-plane measurement systems (paper §3.1, Fig 2) by maximum
// likelihood: the candidate offset under which the largest share of
// blackholed (dropped) packets falls inside an active blackhole interval
// recorded on the control plane.
//
// Instead of re-testing every record at every candidate offset, the
// aggregator converts each dropped record into the interval of offsets
// under which it overlaps an active episode; the likelihood curve is then
// a running count of interval endpoints binned on the offset grid, O(n)
// overall.
package timealign

import (
	"time"

	"repro/internal/analysis/events"
)

// SearchRange bounds the offsets considered. NTP-synchronized collectors
// disagree by milliseconds to a couple of seconds at worst.
const SearchRange = 2 * time.Second

// Aggregator accumulates dropped-record offset intervals. It holds no
// control-plane view: AddDropped reads the episodes through the caller's
// cursor.
type Aggregator struct {
	// starts/ends hold the per-record valid-offset interval bounds in
	// seconds (clipped to the search range). Intervals are merged per
	// record, so each record contributes at most once to any offset.
	// Only the two multisets matter: Estimate bins the arrays apart and
	// MarshalBinary sorts them apart. A start at the clipped lower bound
	// (minStart) or an end at the clipped upper bound (maxEnd), which a
	// record inside a long episode has, is counted in lowStarts or
	// highEnds instead of being stored.
	starts, ends        []float64
	lowStarts, highEnds int64
	total               int64
	eps                 []events.EpisodeSpan
	scratch             []span
}

// minStart and maxEnd are the interval bounds AddDropped clips to: no
// start lies below minStart and no end above maxEnd.
const (
	minStart = -float64(SearchRange) / float64(time.Second)
	maxEnd   = float64(SearchRange)/float64(time.Second) + 1
)

type span struct{ lo, hi float64 }

// New returns an empty aggregator.
func New() *Aggregator { return &Aggregator{} }

// AddDropped registers one dropped record with destination dstIP observed
// at t (data-plane clock), reading the episodes within SearchRange of t
// through c: dropped records arrive in long same-destination stretches,
// so c resolves the covering prefixes once per stretch. Episodes of every
// covering blackhole prefix can explain the drop: a host may be
// blackholed as a /32 at one time and as part of a covering /24 at
// another. Overlapping explanations are merged so that the likelihood
// stays a proper fraction.
//
// The episode bounds come from the cursor as unix nanoseconds, and an
// offset is time.Duration(bound - t).Seconds(): for archive timestamps
// that is the very integer Time.Sub forms before converting, so the
// recorded float64s carry the bits the time.Time arithmetic would.
func (a *Aggregator) AddDropped(c *events.Cursor, dstIP uint32, t time.Time) {
	a.total++
	tn := t.UnixNano()
	a.eps = c.Episodes(a.eps[:0], dstIP, tn-int64(SearchRange), tn+int64(SearchRange))
	a.scratch = a.scratch[:0]
	for _, ep := range a.eps {
		// Offsets delta with t+delta in [announce, withdraw).
		dLo := time.Duration(ep.Ann - tn).Seconds()
		dHi := time.Duration(ep.Wd - tn).Seconds()
		if dLo < minStart {
			dLo = minStart
		}
		// Clip the (exclusive) upper bound slightly beyond the search
		// range so that an interval extending past the range still
		// covers the range's edge grid point.
		if dHi > SearchRange.Seconds() {
			dHi = maxEnd
		}
		if dHi <= dLo {
			continue
		}
		a.scratch = append(a.scratch, span{lo: dLo, hi: dHi})
	}
	if len(a.scratch) == 0 {
		return
	}
	// Insertion sort: the span lists are tiny (episodes overlapping one
	// record's ±2s window) and sort.Slice's closure allocates per call,
	// which at one call per dropped record dominates the pass allocations.
	for i := 1; i < len(a.scratch); i++ {
		for j := i; j > 0 && a.scratch[j].lo < a.scratch[j-1].lo; j-- {
			a.scratch[j], a.scratch[j-1] = a.scratch[j-1], a.scratch[j]
		}
	}
	cur := a.scratch[0]
	for _, s := range a.scratch[1:] {
		if s.lo <= cur.hi {
			if s.hi > cur.hi {
				cur.hi = s.hi
			}
			continue
		}
		a.add(cur)
		cur = s
	}
	a.add(cur)
}

// add records one merged interval.
func (a *Aggregator) add(s span) {
	if s.lo == minStart {
		a.lowStarts++
	} else {
		a.starts = append(a.starts, s.lo)
	}
	if s.hi == maxEnd {
		a.highEnds++
	} else {
		a.ends = append(a.ends, s.hi)
	}
}

// Merge folds o's per-record offset intervals into a. The intervals of
// each dropped record were merged at Add time, so concatenation is exact
// and order-independent: Estimate counts the endpoints whatever their
// order, so the merged aggregator yields the same curve a sequential
// aggregator would. o must not be used afterwards.
func (a *Aggregator) Merge(o *Aggregator) {
	a.starts = append(a.starts, o.starts...)
	a.ends = append(a.ends, o.ends...)
	a.lowStarts += o.lowStarts
	a.highEnds += o.highEnds
	a.total += o.total
}

// Snapshot returns an independent deep copy of the aggregator's interval
// state. Further AddDropped calls on either side do not affect the other
// (Operator contract in internal/analysis).
func (a *Aggregator) Snapshot() *Aggregator {
	return &Aggregator{
		starts:    append([]float64(nil), a.starts...),
		ends:      append([]float64(nil), a.ends...),
		lowStarts: a.lowStarts,
		highEnds:  a.highEnds,
		total:     a.total,
	}
}

// Point is one sample of the likelihood curve.
type Point struct {
	Offset  time.Duration
	Overlap float64 // share of dropped records active under this offset
}

// Result is the Fig 2 outcome.
type Result struct {
	Curve       []Point
	BestOffset  time.Duration
	BestOverlap float64
	Dropped     int64
}

// Estimate evaluates the likelihood over a uniform grid of the given step
// and returns the curve and its maximum. At grid point x a record counts
// when its interval holds x, start <= x < end, tested against x+1e-12 as
// a guard against rounding: the count is #{start < x+1e-12} minus
// #{end < x+1e-12}. Neither endpoint array is sorted or copied for that:
// each endpoint is binned at the first grid value above it, the counted
// bounds with their multiplicity, and the counts are the bins' running
// sums.
func (a *Aggregator) Estimate(step time.Duration) *Result {
	res := &Result{Dropped: a.total}
	if a.total == 0 || step <= 0 {
		return res
	}
	var grid []float64
	for off := -SearchRange; off <= SearchRange; off += step {
		grid = append(grid, off.Seconds()+1e-12)
	}
	starts, ends := bin(a.starts, grid, step), bin(a.ends, grid, step)
	starts[binOf(minStart, grid, step)] += int(a.lowStarts)
	ends[binOf(maxEnd, grid, step)] += int(a.highEnds)
	res.Curve = make([]Point, 0, len(grid))
	nStart, nEnd := 0, 0
	for k := range grid {
		off := -SearchRange + time.Duration(k)*step
		nStart += starts[k]
		nEnd += ends[k]
		p := Point{Offset: off, Overlap: float64(nStart-nEnd) / float64(a.total)}
		res.Curve = append(res.Curve, p)
		if p.Overlap > res.BestOverlap {
			res.BestOverlap = p.Overlap
			res.BestOffset = off
		}
	}
	return res
}

// bin counts vals by the first grid value above each: bins[k] holds those
// in [grid[k-1], grid[k]), bins[len(grid)] those at or above the last. The
// grid is uniform up to rounding, so arithmetic guesses the bin and exact
// comparisons against the grid's own values settle it. A NaN lands in
// bins[0], below every grid value, where sorting would place it.
func bin(vals, grid []float64, step time.Duration) []int {
	bins := make([]int, len(grid)+1)
	for _, v := range vals {
		bins[binOf(v, grid, step)]++
	}
	return bins
}

// binOf returns the bin of v (see bin).
func binOf(v float64, grid []float64, step time.Duration) int {
	k := 0
	if g := (v - grid[0]) / step.Seconds(); g > 0 {
		k = len(grid)
		if g < float64(len(grid)) {
			k = int(g) + 1
		}
	}
	for k > 0 && v < grid[k-1] {
		k--
	}
	for k < len(grid) && v >= grid[k] {
		k++
	}
	return k
}
