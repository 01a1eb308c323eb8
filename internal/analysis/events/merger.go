package events

import (
	"maps"
	"slices"
	"sort"
	"time"

	"repro/internal/analysis"
)

// Merger is Merge over a stream that is still growing: it keeps the
// per-stream open state between calls, so extending the view by the
// updates that arrived since the last call costs those updates, not the
// stream. The online analyzer extends one at every seal check; Merge is a
// Merger extended once.
//
// Views are published: Events may be kept (a Report does, and the looking
// glass serves it while ingest continues), so Extend never writes an
// *Event, nor a slot of an event slice, that an earlier call made
// reachable — an update touching such an event replaces it by a copy
// under the same ID. The Index is the one mutable part: it is extended in
// place, so it must not be used concurrently with Extend.
type Merger struct {
	delta     time.Duration
	periodEnd time.Time

	// updates is the time-sorted stream folded so far.
	updates []analysis.ControlUpdate
	// open holds, per blackhole stream, its latest event.
	open map[streamKey]*openState
	// all holds the events in ID order; shared says that Events handed
	// its backing array out since it was last copied.
	all    []*Event
	shared bool
	// epoch counts Extend calls: an event created or copied by an earlier
	// one is published.
	epoch int

	// ix is nil until Index is first asked for (one-shot Merge never
	// does); replaced lists the events the running Extend copied, old and
	// new, until their spans are patched.
	ix       *Index
	replaced [][2]*Event
}

// openState is one stream's latest event and where the stream stands.
type openState struct {
	event  *Event
	lastWd time.Time // zero while the route is active
	epoch  int       // the Extend call that created or last copied event
}

// NewMerger returns an empty view merging at threshold delta.
func NewMerger(delta time.Duration, periodEnd time.Time) *Merger {
	return &Merger{delta: delta, periodEnd: periodEnd, open: make(map[streamKey]*openState)}
}

// Events returns the merged events in ID order. The slice and the events
// are never written afterwards.
func (m *Merger) Events() []*Event {
	m.shared = true
	return m.all[:len(m.all):len(m.all)]
}

// Updates returns the time-sorted update stream the view covers. Callers
// must not modify it.
func (m *Merger) Updates() []analysis.ControlUpdate { return m.updates }

// Index returns the attribution index over Events: one index for the
// life of the view, which every later Extend, a rebuild included, updates
// in place and moves to a new epoch.
func (m *Merger) Index() *Index {
	if m.ix == nil {
		m.ix = NewIndex(m.all, m.periodEnd)
	}
	return m.ix
}

// Extend folds the updates that arrived since the last call into the view
// and returns how many it folded. us is retained and must not be modified
// afterwards. The stream is expected in time order (the live sequencer
// delivers it so), equal timestamps in processing order; if us steps back
// in time — behind the view or within itself — the view, its index in
// place, is rebuilt once from the stably re-sorted stream, which is what
// a batch parse of the same archive would merge, and the count is the
// whole stream's.
func (m *Merger) Extend(us []analysis.ControlUpdate) int {
	if len(us) == 0 {
		return 0
	}
	if !m.inOrder(us) {
		sorted := make([]analysis.ControlUpdate, 0, len(m.updates)+len(us))
		sorted = append(append(sorted, m.updates...), us...)
		analysis.SortUpdates(sorted)
		ix := m.ix
		*m = *NewMerger(m.delta, m.periodEnd)
		if ix != nil {
			*ix = Index{periodEnd: ix.periodEnd, epoch: ix.epoch}
			m.ix = ix
		}
		us = sorted
	}
	if m.updates == nil {
		m.updates = us[:len(us):len(us)]
	} else {
		m.updates = append(m.updates, us...)
	}
	m.fold(us)
	return len(us)
}

// inOrder reports whether us continues the folded stream without
// stepping back in time.
func (m *Merger) inOrder(us []analysis.ControlUpdate) bool {
	var last time.Time
	if n := len(m.updates); n > 0 {
		last = m.updates[n-1].Time
	}
	for i := range us {
		if us[i].Time.Before(last) {
			return false
		}
		last = us[i].Time
	}
	return true
}

// fold applies us, which continues the folded stream in time order.
func (m *Merger) fold(us []analysis.ControlUpdate) {
	m.epoch++
	if m.ix != nil {
		m.ix.epoch++
	}
	known := len(m.all)
	for i := range us {
		u := &us[i]
		key := streamKey{prefix: u.Prefix, peer: u.Peer}
		st := m.open[key]

		if u.Announce {
			excl := excludedPeers(u.Communities)
			switch {
			case st == nil || (!st.lastWd.IsZero() && u.Time.Sub(st.lastWd) > m.delta):
				// New event (first sighting, or the gap exceeds delta).
				e := &Event{
					ID:            -1, // numbered once the call's events are all known
					Prefix:        u.Prefix,
					Peer:          u.Peer,
					OriginAS:      u.OriginAS,
					Episodes:      []Episode{{Announce: u.Time}},
					Announcements: 1,
					Excluded:      excl,
				}
				m.all = append(m.all, e)
				if st == nil {
					st = new(openState)
					m.open[key] = st
				}
				*st = openState{event: e, epoch: m.epoch}
			case !st.lastWd.IsZero():
				// Same event: new episode after a short gap.
				e := m.own(st)
				e.Episodes = append(e.Episodes, Episode{Announce: u.Time})
				e.Announcements++
				st.lastWd = time.Time{}
				mergeExcluded(e, excl)
			default:
				// Re-announcement of an active route.
				e := m.own(st)
				e.Announcements++
				mergeExcluded(e, excl)
			}
		} else if st != nil && st.lastWd.IsZero() {
			e := m.own(st)
			e.Episodes[len(e.Episodes)-1].Withdraw = u.Time
			st.lastWd = u.Time
		}
	}
	for i, r := range m.replaced {
		m.ix.replace(r[0], r[1])
		m.replaced[i] = [2]*Event{}
	}
	m.replaced = m.replaced[:0]
	m.number(known)
}

// own returns the stream's latest event, writable: a published one is
// first replaced by a copy.
func (m *Merger) own(st *openState) *Event {
	if st.epoch != m.epoch {
		c := st.event.copyAs(st.event.ID)
		m.writable()
		m.all[c.ID] = c
		if m.ix != nil {
			m.replaced = append(m.replaced, [2]*Event{st.event, c})
		}
		st.event, st.epoch = c, m.epoch
	}
	return st.event
}

// writable makes the slots of all that Events has handed out safe to
// write: a published backing array is left to its holders.
func (m *Merger) writable() {
	if m.shared {
		m.all = slices.Clone(m.all)
		m.shared = false
	}
}

// copyAs returns a copy of e, numbered id, that shares nothing writable
// with it.
func (e *Event) copyAs(id int) *Event {
	c := *e
	c.ID = id
	c.Episodes = append(make([]Episode, 0, len(e.Episodes)+1), e.Episodes...)
	c.Excluded = maps.Clone(e.Excluded)
	return &c
}

// number assigns the IDs of the events appended since all held known of
// them: the rank in start order, ties broken by prefix address, then
// peer, then first announcement. A time-ordered stream can only append
// events whose start is at or past every update folded before, so the
// events that started earlier keep their IDs for good — the online
// analyzer's sealed per-event aggregates rely on this (DESIGN.md,
// "Incremental analysis") — and only the tail sharing the newest start
// timestamps is re-sorted.
func (m *Merger) number(known int) {
	if len(m.all) == known {
		return
	}
	first := m.all[known].Start()
	lo := known
	for lo > 0 && !m.all[lo-1].Start().Before(first) {
		lo--
	}
	if lo < known {
		m.writable()
	}
	tail := m.all[lo:]
	sort.SliceStable(tail, func(i, j int) bool {
		if !tail[i].Start().Equal(tail[j].Start()) {
			return tail[i].Start().Before(tail[j].Start())
		}
		if tail[i].Prefix.Addr != tail[j].Prefix.Addr {
			return tail[i].Prefix.Addr < tail[j].Prefix.Addr
		}
		return tail[i].Peer < tail[j].Peer
	})
	// Known events a new one displaced first: the index places a new event
	// among final IDs.
	for i, e := range tail {
		id := lo + i
		if e.ID < 0 || e.ID == id {
			continue
		}
		st := m.open[streamKey{prefix: e.Prefix, peer: e.Peer}]
		if st.event == e && st.epoch == m.epoch {
			e.ID = id // this call's own copy
			continue
		}
		c := e.copyAs(id)
		tail[i] = c
		if st.event == e {
			st.event, st.epoch = c, m.epoch
		}
		if m.ix != nil {
			m.ix.replace(e, c)
		}
	}
	for i, e := range tail {
		if e.ID < 0 {
			e.ID = lo + i
			if m.ix != nil {
				m.ix.add(e)
			}
		}
	}
}
