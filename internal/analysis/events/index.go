package events

import (
	"slices"
	"sort"
	"time"

	"repro/internal/bgp"
)

// Match is the attribution of one point in time and destination address
// to the event structure.
type Match struct {
	// Event is the event whose merged window [Start, End] covers the
	// query (nil if none). Windows include the short on-off gaps.
	Event *Event
	// Active reports whether an episode (announced, not withdrawn)
	// covers the query — the state that determines packet dropping.
	Active bool
	// Prefix is the matched blackhole prefix (the longest one with an
	// active episode if Active, otherwise the longest with a window).
	Prefix bgp.Prefix
}

// Index answers time+address attribution queries over a set of events.
// Build once with NewIndex, then query from the streaming pass; the one
// a Merger keeps is extended in place as its view grows.
type Index struct {
	periodEnd time.Time
	// epoch counts the Merger.Extend calls that changed the index; a
	// Cursor resolved under another epoch resolves again.
	epoch uint64
	// spans holds the per-prefix event lists in ID order (so sorted by
	// start time), with the events' window and episode bounds resolved to
	// unix nanoseconds — the representation the Cursor scans: integer
	// comparisons instead of time.Time's wall/monotonic decode, which the
	// streaming pass performs several times per record.
	spans bgp.PrefixMap[[]eventSpan]
}

// EpisodeSpan is one announce/withdraw interval [Ann, Wd) in unix
// nanoseconds, with an open-ended withdraw resolved to the period end.
type EpisodeSpan struct{ Ann, Wd int64 }

// eventSpan is one event's merged window [start, end] in unix
// nanoseconds plus its resolved episodes, ordered like the *Event lists.
type eventSpan struct {
	start, end int64
	ev         *Event
	eps        []EpisodeSpan
}

// resolve sets sp to e's bounds against periodEnd, reusing its episode
// array. Nanosecond comparisons order exactly like time.Time for the
// in-range wall-clock timestamps the archives carry.
func (sp *eventSpan) resolve(e *Event, periodEnd time.Time) {
	sp.start, sp.end, sp.ev = e.Start().UnixNano(), e.End(periodEnd).UnixNano(), e
	sp.eps = sp.eps[:0]
	for _, ep := range e.Episodes {
		wd := ep.Withdraw
		if wd.IsZero() {
			wd = periodEnd
		}
		sp.eps = append(sp.eps, EpisodeSpan{Ann: ep.Announce.UnixNano(), Wd: wd.UnixNano()})
	}
}

// NewIndex builds the attribution index.
func NewIndex(evs []*Event, periodEnd time.Time) *Index {
	ix := &Index{periodEnd: periodEnd}
	for _, e := range evs {
		ix.add(e)
	}
	return ix
}

// add indexes e: after the events of its prefix that start before it or,
// on equal starts, carry a lower ID. Events come in ID order, so this
// appends but for a new event that ties with the newest start.
func (ix *Index) add(e *Event) {
	sps, _ := ix.spans.Get(e.Prefix)
	sp := eventSpan{eps: make([]EpisodeSpan, 0, len(e.Episodes))}
	sp.resolve(e, ix.periodEnd)
	j := len(sps)
	for j > 0 && (sps[j-1].start > sp.start || sps[j-1].start == sp.start && sps[j-1].ev.ID > e.ID) {
		j--
	}
	ix.spans.Set(e.Prefix, slices.Insert(sps, j, sp))
}

// replace points the span of old, an indexed event, at cur — a copy of it
// or old itself, with episodes added or closed — and resolves it again.
// An event's prefix and start never change.
func (ix *Index) replace(old, cur *Event) {
	sps, _ := ix.spans.Get(old.Prefix)
	start := old.Start().UnixNano()
	j := sort.Search(len(sps), func(j int) bool { return sps[j].start >= start })
	for sps[j].ev != old {
		j++
	}
	sps[j].resolve(cur, ix.periodEnd)
}

// EverBlackholed returns the longest blackhole prefix covering ip, if any
// event ever targeted one. Compose asks this of every speculative
// candidate (hosts, unattributed pairs), nearly all of which sit in a /16
// no blackhole touches: the index's /16 filter answers those without a
// probe.
func (ix *Index) EverBlackholed(ip uint32) (bgp.Prefix, bool) {
	p, _, ok := ix.spans.Longest(ip)
	return p, ok
}

// Lookup attributes (ip, t): the longest prefix with an active episode
// wins; otherwise the longest with a covering merged window. It probes
// all 33 prefix lengths, longest first, with no /16 filter: the reference
// the Cursor's filtered scan is pinned to, as Interesting is.
func (ix *Index) Lookup(ip uint32, t time.Time) Match {
	var windowMatch Match
	for l := 32; l >= 0 && !windowMatch.Active; l-- {
		p := bgp.MakePrefix(ip, uint8(l))
		sps, _ := ix.spans.Get(p)
		scanLookup(p, sps, t, ix.periodEnd, &windowMatch)
	}
	return windowMatch
}

// scanLookup scans one start-sorted event list for t. An active episode
// match is written to m and reported; otherwise the first (longest-
// prefix, since callers scan longest first) covering window is retained
// in m.
func scanLookup(p bgp.Prefix, sps []eventSpan, t, periodEnd time.Time, m *Match) {
	for i := range sps {
		e := sps[i].ev
		if t.Before(e.Start()) {
			break // list sorted by start; later events start later
		}
		if t.After(e.End(periodEnd)) {
			continue
		}
		if e.ActiveAt(t, periodEnd) {
			*m = Match{Event: e, Active: true, Prefix: p}
			return
		}
		if m.Event == nil {
			*m = Match{Event: e, Prefix: p}
		}
	}
}

// Interesting reports whether (ip, t) falls inside any event's analysis
// range — the pre-window plus the merged event window — and returns the
// matched (longest) prefix. The anomaly aggregator uses this to bound its
// slot-feature store.
func (ix *Index) Interesting(ip uint32, t time.Time) (bgp.Prefix, bool) {
	for l := 32; l >= 0; l-- {
		p := bgp.MakePrefix(ip, uint8(l))
		if sps, _ := ix.spans.Get(p); scanInteresting(sps, t, ix.periodEnd) {
			return p, true
		}
	}
	return bgp.Prefix{}, false
}

// scanInteresting reports whether t falls inside any event's analysis
// range (pre-window plus merged window) of one start-sorted list.
func scanInteresting(sps []eventSpan, t, periodEnd time.Time) bool {
	for i := range sps {
		e := sps[i].ev
		if t.Before(e.Start().Add(-PreWindow)) {
			break
		}
		if !t.After(e.End(periodEnd)) {
			return true
		}
	}
	return false
}

// EventsFor returns the events of one prefix in start order.
func (ix *Index) EventsFor(p bgp.Prefix) []*Event {
	var evs []*Event
	sps, _ := ix.spans.Get(p)
	for _, sp := range sps {
		evs = append(evs, sp.ev)
	}
	return evs
}

// PeriodEnd returns the period end used for open-ended events.
func (ix *Index) PeriodEnd() time.Time { return ix.periodEnd }
