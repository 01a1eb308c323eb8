package events

import (
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
// Build once with NewIndex, then query from the streaming pass.
type Index struct {
	periodEnd time.Time
	// byPrefix holds the per-prefix event lists sorted by start time,
	// keyed by the packed prefix (see pkey).
	byPrefix map[uint64][]*Event
	// spans mirrors byPrefix with the events' window and episode bounds
	// resolved to unix nanoseconds — the representation the Cursor scans:
	// integer comparisons instead of time.Time's wall/monotonic decode,
	// which the streaming pass performs several times per record.
	spans map[uint64][]eventSpan
	// lengths lists the distinct prefix lengths present, descending, so
	// longest-prefix-match scans only real candidates.
	lengths []uint8
	// cover16 has one bit per /16 of the address space, set when the /16
	// contains or is contained in a blackhole prefix. Every prefix covering
	// an address either lies inside the address's /16 (length >= 16) or
	// contains that /16 whole (length < 16), and both mark it — so an
	// unmarked /16 has no covering prefix at any length, and the Cursor
	// answers "no candidates" from this one bit without probing byPrefix.
	cover16 [1 << 16 / 64]uint64
}

// mark16 sets the cover16 bits of every /16 that p touches.
func (ix *Index) mark16(p bgp.Prefix) {
	first, n := p.Addr>>16, uint32(1)
	if p.Len < 16 {
		n = 1 << (16 - p.Len)
		first &^= n - 1
	}
	for b := first; b < first+n; b++ {
		ix.cover16[b>>6] |= 1 << (b & 63)
	}
}

// covered16 reports whether any blackhole prefix can cover ip.
func (ix *Index) covered16(ip uint32) bool {
	b := ip >> 16
	return ix.cover16[b>>6]&(1<<(b&63)) != 0
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

// newEventSpan resolves e's bounds against periodEnd. Nanosecond
// comparisons order exactly like time.Time for the in-range wall-clock
// timestamps the archives carry.
func newEventSpan(e *Event, periodEnd time.Time) eventSpan {
	sp := eventSpan{
		start: e.Start().UnixNano(),
		end:   e.End(periodEnd).UnixNano(),
		ev:    e,
		eps:   make([]EpisodeSpan, len(e.Episodes)),
	}
	for i, ep := range e.Episodes {
		wd := ep.Withdraw
		if wd.IsZero() {
			wd = periodEnd
		}
		sp.eps[i] = EpisodeSpan{Ann: ep.Announce.UnixNano(), Wd: wd.UnixNano()}
	}
	return sp
}

// pkey packs a canonical prefix into one integer map key: the masked
// address shifted above the length. uint64 keys take the runtime's
// specialized hash path, which matters here — the attribution maps are
// probed several times per flow record, and the generated struct hash
// for a composite key dominated the pass profile.
func pkey(p bgp.Prefix) uint64 { return uint64(p.Addr)<<8 | uint64(p.Len) }

// NewIndex builds the attribution index.
func NewIndex(evs []*Event, periodEnd time.Time) *Index {
	ix := &Index{
		periodEnd: periodEnd,
		byPrefix:  make(map[uint64][]*Event),
	}
	seen := make(map[uint8]bool)
	for _, e := range evs {
		ix.byPrefix[pkey(e.Prefix)] = append(ix.byPrefix[pkey(e.Prefix)], e)
		seen[e.Prefix.Len] = true
	}
	for l := 32; l >= 0; l-- {
		if seen[uint8(l)] {
			ix.lengths = append(ix.lengths, uint8(l))
		}
	}
	for p := range ix.byPrefix {
		lst := ix.byPrefix[p]
		sort.Slice(lst, func(i, j int) bool { return lst[i].Start().Before(lst[j].Start()) })
	}
	ix.spans = make(map[uint64][]eventSpan, len(ix.byPrefix))
	for p, lst := range ix.byPrefix {
		sps := make([]eventSpan, len(lst))
		for i, e := range lst {
			sps[i] = newEventSpan(e, periodEnd)
		}
		ix.spans[p] = sps
		ix.mark16(lst[0].Prefix)
	}
	return ix
}

// EverBlackholed returns the longest blackhole prefix covering ip, if any
// event ever targeted one. Compose asks this of every speculative
// candidate (hosts, unattributed pairs), nearly all of which sit in a /16
// no blackhole touches: cover16 answers those without a probe.
func (ix *Index) EverBlackholed(ip uint32) (bgp.Prefix, bool) {
	if !ix.covered16(ip) {
		return bgp.Prefix{}, false
	}
	for _, l := range ix.lengths {
		p := bgp.MakePrefix(ip, l)
		if _, ok := ix.byPrefix[pkey(p)]; ok {
			return p, true
		}
	}
	return bgp.Prefix{}, false
}

// Lookup attributes (ip, t): the longest prefix with an active episode
// wins; otherwise the longest with a covering merged window.
func (ix *Index) Lookup(ip uint32, t time.Time) Match {
	var windowMatch Match
	for _, l := range ix.lengths {
		p := bgp.MakePrefix(ip, l)
		lst, ok := ix.byPrefix[pkey(p)]
		if !ok {
			continue
		}
		scanLookup(p, lst, t, ix.periodEnd, &windowMatch)
		if windowMatch.Active {
			return windowMatch
		}
	}
	return windowMatch
}

// scanLookup scans one start-sorted event list for t. An active episode
// match is written to m and reported; otherwise the first (longest-
// prefix, since callers scan longest first) covering window is retained
// in m.
func scanLookup(p bgp.Prefix, lst []*Event, t, periodEnd time.Time, m *Match) {
	for _, e := range lst {
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
	for _, l := range ix.lengths {
		p := bgp.MakePrefix(ip, l)
		lst, ok := ix.byPrefix[pkey(p)]
		if !ok {
			continue
		}
		if scanInteresting(lst, t, ix.periodEnd) {
			return p, true
		}
	}
	return bgp.Prefix{}, false
}

// scanInteresting reports whether t falls inside any event's analysis
// range (pre-window plus merged window) of one start-sorted list.
func scanInteresting(lst []*Event, t, periodEnd time.Time) bool {
	for _, e := range lst {
		if t.Before(e.Start().Add(-PreWindow)) {
			break
		}
		if !t.After(e.End(periodEnd)) {
			return true
		}
	}
	return false
}

// Events returns the event lists per prefix (shared; callers must not
// modify).
func (ix *Index) EventsFor(p bgp.Prefix) []*Event { return ix.byPrefix[pkey(p)] }

// PeriodEnd returns the period end used for open-ended events.
func (ix *Index) PeriodEnd() time.Time { return ix.periodEnd }

// Lengths returns the distinct prefix lengths present, descending.
// Callers must not modify the slice.
func (ix *Index) Lengths() []uint8 { return ix.lengths }
