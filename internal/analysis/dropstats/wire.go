package dropstats

import (
	"fmt"
	"slices"

	"repro/internal/analysis"
)

// wireVersion is the dropstats snapshot codec version.
const wireVersion = 1

// MarshalBinary encodes the aggregator canonically: the per-length
// table, then the per-event counters sorted by event ID, then the
// per-source counters sorted by member ASN.
func (a *Aggregator) MarshalBinary() ([]byte, error) {
	w := analysis.NewWireWriter()
	w.Byte(wireVersion)
	for l := range a.byLen {
		a.byLen[l].EncodeWire(w)
	}
	w.Uvarint(uint64(a.byEvent.Len()))
	a.byEvent.Each(func(id int, ec *eventCounter) {
		w.Uvarint(uint64(id))
		w.Byte(ec.prefixLen)
		ec.c.EncodeWire(w)
	})
	members := make([]uint32, 0, len(a.bySource))
	for m := range a.bySource {
		members = append(members, m)
	}
	slices.Sort(members)
	w.Uvarint(uint64(len(members)))
	for _, m := range members {
		w.Uvarint(uint64(m))
		a.bySource[m].EncodeWire(w)
	}
	return w.Bytes(), nil
}

// UnmarshalEvents replaces the aggregator's state with the decoded
// snapshot of an exchange with the given number of events; an event ID
// at or past it fails the decode. On error the aggregator is left
// unchanged.
func (a *Aggregator) UnmarshalEvents(data []byte, events int) error {
	r := analysis.NewWireReader(data)
	r.Version(wireVersion)
	var byLen [33]analysis.Counter
	for l := range byLen {
		byLen[l].DecodeWire(r)
	}
	nEv := r.Count(6) // id + prefixLen + four counters
	var byEvent analysis.PerEvent[eventCounter]
	var evOrder, srcOrder analysis.KeyOrder
	for i := 0; i < nEv; i++ {
		id := r.EventID(events)
		evOrder.Next(r, uint64(id))
		ec := &eventCounter{prefixLen: r.Byte()}
		ec.c.DecodeWire(r)
		byEvent.Put(id, ec)
	}
	nSrc := r.Count(5) // member + four counters
	bySource := make(map[uint32]*analysis.Counter, nSrc)
	for i := 0; i < nSrc; i++ {
		m := r.U32()
		srcOrder.Next(r, uint64(m))
		c := &analysis.Counter{}
		c.DecodeWire(r)
		bySource[m] = c
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("dropstats: %w", err)
	}
	a.byLen = byLen
	a.byEvent = byEvent
	a.bySource, a.lastSource = bySource, nil
	return nil
}

// RemapEvents renames the events through m (old ID -> new ID; see
// analysis.PerEvent.Rename). On error the aggregator is left unchanged.
func (a *Aggregator) RemapEvents(m map[int]int) error { return a.byEvent.Rename(m) }

// EventStat is one event's drop tally, exposed via Report.EventDrops
// for the looking-glass serving layer's per-event efficacy view.
type EventStat struct {
	ID        int
	PrefixLen uint8
	analysis.Counter
}

// EventStats returns the per-event counters sorted by event ID.
func (a *Aggregator) EventStats() []EventStat {
	out := make([]EventStat, 0, a.byEvent.Len())
	a.byEvent.Each(func(id int, ec *eventCounter) {
		out = append(out, EventStat{ID: id, PrefixLen: ec.prefixLen, Counter: ec.c})
	})
	return out
}
