// Package events reconstructs RTBH events from the control-plane update
// stream, implementing §5.1 of the paper: consecutive announce/withdraw
// cycles of the same blackhole whose gaps do not exceed a merge threshold
// delta belong to one event (operators withdraw and re-announce blackholes
// to probe whether the attack is still ongoing, Fig 9). The package also
// provides the delta sweep behind Fig 10 and the interval index the
// data-plane pass uses to attribute flow records to events.
package events

import (
	"slices"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/bgp"
)

// DefaultDelta is the merge threshold the paper settles on: 10 minutes,
// consistent with the detection-to-trigger delays reported in related
// work.
const DefaultDelta = 10 * time.Minute

// PreWindow is the look-back range searched for traffic anomalies before
// an event (§5.2: 72 hours).
const PreWindow = 72 * time.Hour

// Episode is one contiguous announce..withdraw interval. A zero Withdraw
// means the route was still active at the end of the measurement period.
type Episode struct {
	Announce time.Time
	Withdraw time.Time
}

// Event is one merged RTBH event.
type Event struct {
	ID       int
	Prefix   bgp.Prefix
	Peer     uint32
	OriginAS uint32
	Episodes []Episode
	// Announcements counts the BGP announcements merged into the event.
	Announcements int
	// Excluded is the union of peers excluded via targeting communities
	// across the event's announcements (nil when untargeted).
	Excluded map[uint32]bool
}

// Start returns the first announcement time.
func (e *Event) Start() time.Time { return e.Episodes[0].Announce }

// End returns the event's final withdraw, or periodEnd if the route was
// still active then.
func (e *Event) End(periodEnd time.Time) time.Time {
	last := e.Episodes[len(e.Episodes)-1]
	if last.Withdraw.IsZero() {
		return periodEnd
	}
	return last.Withdraw
}

// OpenEnded reports whether the route was active at the period end.
func (e *Event) OpenEnded() bool {
	return e.Episodes[len(e.Episodes)-1].Withdraw.IsZero()
}

// Duration returns End - Start.
func (e *Event) Duration(periodEnd time.Time) time.Duration {
	return e.End(periodEnd).Sub(e.Start())
}

// ActiveAt reports whether some episode covers t.
func (e *Event) ActiveAt(t time.Time, periodEnd time.Time) bool {
	for _, ep := range e.Episodes {
		wd := ep.Withdraw
		if wd.IsZero() {
			wd = periodEnd
		}
		if !t.Before(ep.Announce) && t.Before(wd) {
			return true
		}
	}
	return false
}

// streamKey identifies one operator's blackhole stream.
type streamKey struct {
	prefix bgp.Prefix
	peer   uint32
}

// Merge groups the update stream into events using merge threshold delta.
// Updates must be time-sorted (ParseMRT guarantees this). Withdrawals
// without a preceding announcement are ignored, as are repeated
// announcements of an already-active route (they refresh attributes but
// open no new episode). It is a Merger extended once.
func Merge(updates []analysis.ControlUpdate, delta time.Duration, periodEnd time.Time) []*Event {
	m := NewMerger(delta, periodEnd)
	m.Extend(updates)
	return m.Events()
}

func mergeExcluded(e *Event, excl map[uint32]bool) {
	if len(excl) == 0 {
		return
	}
	if e.Excluded == nil {
		e.Excluded = excl
		return
	}
	for p := range excl {
		e.Excluded[p] = true
	}
}

// excludedPeers derives the audience restriction from the targeting
// communities: 0:peer excludes a peer; allow-list mode (0:rs or rs:peer)
// is also folded into an exclusion set against the full peer population
// by the visibility analysis, which knows the population; here only the
// explicit excludes are extracted.
func excludedPeers(cs bgp.Communities) map[uint32]bool {
	var out map[uint32]bool
	for _, c := range cs {
		if c == bgp.Blackhole || c == bgp.NoExport || c == bgp.NoAdvertise {
			continue
		}
		if c.ASN() == 0 && c.Value() != 0 {
			if out == nil {
				out = make(map[uint32]bool)
			}
			out[uint32(c.Value())] = true
		}
	}
	return out
}

// SweepPoint is one result of the delta sweep behind Fig 10.
type SweepPoint struct {
	Delta time.Duration
	// Events is the number of merged events at this delta.
	Events int
	// Fraction is events divided by total RTBH announcements.
	Fraction float64
}

// Sweep reports the event count Merge would produce at each of the given
// thresholds; it also returns the lower bound (delta = infinity), where
// the event count equals the number of distinct blackhole streams.
//
// It runs one pass, not one Merge per threshold: every stream opens one
// event, and an announcement after a withdraw opens another exactly when
// the gap exceeds delta. Whether it does leaves the state Merge carries
// forward untouched (either way the route is active again), so the gaps
// do not depend on delta and Events(delta) = streams + #{gap > delta}. The
// period end closes open episodes and so moves no count; the parameter
// stays for the callers.
func Sweep(updates []analysis.ControlUpdate, deltas []time.Duration, _ time.Time) (points []SweepPoint, lowerBound float64) {
	ann := 0
	lastWd := make(map[streamKey]time.Time) // zero while the route is active
	var gaps []time.Duration
	for i := range updates {
		u := &updates[i]
		key := streamKey{prefix: u.Prefix, peer: u.Peer}
		wd, seen := lastWd[key]
		if u.Announce {
			ann++
			if seen && !wd.IsZero() {
				gaps = append(gaps, u.Time.Sub(wd))
			}
			lastWd[key] = time.Time{}
		} else if seen && wd.IsZero() {
			lastWd[key] = u.Time
		}
	}
	if ann == 0 {
		return nil, 0
	}
	slices.Sort(gaps)
	for _, d := range deltas {
		n := len(lastWd) + len(gaps) - sort.Search(len(gaps), func(i int) bool { return gaps[i] > d })
		points = append(points, SweepPoint{
			Delta:    d,
			Events:   n,
			Fraction: float64(n) / float64(ann),
		})
	}
	return points, float64(len(lastWd)) / float64(ann)
}
