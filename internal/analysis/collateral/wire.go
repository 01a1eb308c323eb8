package collateral

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/analysis"
)

// Snapshot codec version of the pending store.
const pendingWireVersion = 1

// MarshalBinary encodes the pending store canonically: cells sorted by
// (event ID, destination, port key) — the packed cell key sorts exactly
// by (destination, port key), so the byte stream does not depend on how
// the cells are laid out in memory.
func (p *Pending) MarshalBinary() ([]byte, error) {
	w := analysis.NewWireWriter()
	w.Byte(pendingWireVersion)
	w.Uvarint(uint64(p.n))
	var slots []uint64
	p.tables.Each(func(id int, t *table) {
		slots = slots[:0]
		for _, v := range t.slots {
			if v != 0 {
				slots = append(slots, v)
			}
		}
		slices.SortFunc(slots, func(x, y uint64) int { return cmp.Compare(x&^countMask, y&^countMask) })
		for _, v := range slots {
			c := t.counts(v)
			w.Uvarint(uint64(id))
			w.Uvarint(v >> 32)
			w.Uvarint(uint64(uint32(v &^ countMask)))
			w.Varint(c.all)
			w.Varint(c.dropped)
		}
	})
	return w.Bytes(), nil
}

// UnmarshalEvents replaces the pending store's state with the decoded
// snapshot of an exchange with the given number of events; the cells
// must come in MarshalBinary's order, strictly ascending by (event ID,
// cell key), every event ID below events and every port key below 1<<24,
// as cellKey makes them. On error the store is left unchanged.
func (p *Pending) UnmarshalEvents(data []byte, events int) error {
	r := analysis.NewWireReader(data)
	r.Version(pendingWireVersion)
	n := r.Count(5)
	d := NewPending()
	var lastID int
	var lastKey uint64
	for i := 0; i < n; i++ {
		id := r.EventID(events)
		dstIP := r.U32()
		portKey := r.U32()
		all, dropped := r.Varint(), r.Varint()
		if r.Err() != nil {
			break
		}
		if portKey >= 1<<countShift {
			return fmt.Errorf("collateral: pending: port key %#x out of range", portKey)
		}
		key := uint64(dstIP)<<32 | uint64(portKey)
		if i > 0 && (id < lastID || id == lastID && key <= lastKey) {
			return fmt.Errorf("collateral: pending: cell (%d, %#x) duplicate or out of order", id, key)
		}
		lastID, lastKey = id, key
		d.add(id, key, all, dropped)
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("collateral: pending: %w", err)
	}
	*p = *d
	return nil
}

// RemapEvents renames the event IDs through m (old event ID -> new ID;
// see analysis.PerEvent.Rename). The tables move to their new slots as
// they are, owner stamps included, and the cell count does not change. On
// error the store is left unchanged.
func (p *Pending) RemapEvents(m map[int]int) error { return p.tables.Rename(m) }
