package analysis

import (
	"fmt"
	"slices"
)

// PerEvent is the store of the event-keyed operators (dropstats,
// protomix, collateral): event id's value sits at slot id, and a nil slot
// is an event without one. Event IDs are dense — events.Merger and the
// federation coordinator number the events 0..n-1 — so a lookup is an
// index, with no probe worth memoising, and a walk visits the events in
// ascending ID order, the canonical wire order, with no sort. The zero
// value is an empty store.
type PerEvent[V any] struct {
	slots []*V
	n     int // non-nil slots
}

// Get returns event id's value, or nil.
func (s *PerEvent[V]) Get(id int) *V {
	if uint(id) < uint(len(s.slots)) {
		return s.slots[id]
	}
	return nil
}

// Put sets event id's value to v, which must not be nil.
func (s *PerEvent[V]) Put(id int, v *V) {
	if id >= len(s.slots) {
		s.slots = append(s.slots, make([]*V, id+1-len(s.slots))...)
	}
	if s.slots[id] == nil {
		s.n++
	}
	s.slots[id] = v
}

// Len returns the number of events with a value.
func (s *PerEvent[V]) Len() int { return s.n }

// Each calls fn for every event with a value, in ascending ID order.
func (s *PerEvent[V]) Each(fn func(id int, v *V)) {
	for id, v := range s.slots {
		if v != nil {
			fn(id, v)
		}
	}
}

// Clone returns a copy of the store holding cp of each value, or the
// values themselves when cp is nil: a store that shares them with its
// snapshots copy-on-write (Cow).
func (s *PerEvent[V]) Clone(cp func(*V) *V) PerEvent[V] {
	c := PerEvent[V]{slots: slices.Clone(s.slots), n: s.n}
	if cp != nil {
		c.Each(func(id int, v *V) { c.slots[id] = cp(v) })
	}
	return c
}

// Merge folds o into s: s adopts the value of every event only o holds
// and calls fold(id, its value, o's) for every event both hold. o must
// not be used afterwards.
func (s *PerEvent[V]) Merge(o *PerEvent[V], fold func(id int, dst, src *V)) {
	o.Each(func(id int, v *V) {
		if dst := s.Get(id); dst != nil {
			fold(id, dst, v)
		} else {
			s.Put(id, v)
		}
	})
}

// Rename moves every value to the slot m names for its event (old ID ->
// new ID), as an operator's RemapEvents. Every event with a value must
// map to an ID no other one maps to; otherwise Rename returns an error
// and the store is left as it was. Renaming suffices:
// federation.Coordinator.Merge keys each local event by (prefix, peer,
// first announcement), unique per exchange, and rejects a map that sends
// two local events to one union event.
func (s *PerEvent[V]) Rename(m map[int]int) error {
	var out PerEvent[V]
	for id, v := range s.slots {
		if v == nil {
			continue
		}
		nid, ok := m[id]
		if !ok || nid < 0 {
			return fmt.Errorf("no mapping for event %d", id)
		}
		if out.Get(nid) != nil {
			return fmt.Errorf("two events map to event %d", nid)
		}
		out.Put(nid, v)
	}
	*s = out
	return nil
}

// EventID reads an event ID and fails unless it is below events, the
// exchange's event count. A PerEvent sizes its slots by the IDs it
// holds, so a decoder checks each ID here before it stores anything.
func (r *WireReader) EventID(events int) int {
	id := r.Int()
	if r.err == nil && id >= events {
		r.fail("wire: event %d out of range (%d events)", id, events)
		return 0
	}
	return id
}
