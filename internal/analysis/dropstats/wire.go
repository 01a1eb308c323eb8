package dropstats

import (
	"fmt"
	"sort"

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
	ids := make([]int, 0, len(a.byEvent))
	for id := range a.byEvent {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	w.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		ec := a.byEvent[id]
		w.Uvarint(uint64(id))
		w.Byte(ec.prefixLen)
		ec.c.EncodeWire(w)
	}
	members := make([]uint32, 0, len(a.bySource))
	for m := range a.bySource {
		members = append(members, m)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	w.Uvarint(uint64(len(members)))
	for _, m := range members {
		w.Uvarint(uint64(m))
		a.bySource[m].EncodeWire(w)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary replaces the aggregator's state with the decoded
// snapshot. On error the aggregator is left unchanged.
func (a *Aggregator) UnmarshalBinary(data []byte) error {
	r := analysis.NewWireReader(data)
	r.Version(wireVersion)
	var byLen [33]analysis.Counter
	for l := range byLen {
		byLen[l].DecodeWire(r)
	}
	nEv := r.Count(6) // id + prefixLen + four counters
	byEvent := make(map[int]*eventCounter, nEv)
	var evOrder, srcOrder analysis.KeyOrder
	for i := 0; i < nEv; i++ {
		id := r.Int()
		evOrder.Next(r, uint64(id))
		ec := &eventCounter{prefixLen: r.Byte()}
		ec.c.DecodeWire(r)
		byEvent[id] = ec
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
	a.byEvent, a.lastEvent = byEvent, nil
	a.bySource, a.lastSource = bySource, nil
	return nil
}

// RemapEvents renames the per-event keys through m (old ID -> new ID; see
// analysis.RenameEvents). On error the aggregator is left unchanged.
func (a *Aggregator) RemapEvents(m map[int]int) error {
	byEvent, err := analysis.RenameEvents(a.byEvent, m)
	if err != nil {
		return fmt.Errorf("dropstats: %w", err)
	}
	a.byEvent, a.lastEvent = byEvent, nil
	return nil
}

// EventStat is one event's drop tally, exposed via Report.EventDrops
// for the looking-glass serving layer's per-event efficacy view.
type EventStat struct {
	ID        int
	PrefixLen uint8
	analysis.Counter
}

// EventStats returns the per-event counters sorted by event ID.
func (a *Aggregator) EventStats() []EventStat {
	out := make([]EventStat, 0, len(a.byEvent))
	for id, ec := range a.byEvent {
		out = append(out, EventStat{ID: id, PrefixLen: ec.prefixLen, Counter: ec.c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
