package collateral

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/analysis"
)

// Snapshot codec versions of the two collateral operators.
const (
	aggWireVersion     = 1
	pendingWireVersion = 1
)

// MarshalBinary encodes the aggregator canonically: the server top-port
// sets sorted by IP (ports ascending), then the per-event tallies sorted
// by event ID.
func (a *Aggregator) MarshalBinary() ([]byte, error) {
	w := analysis.NewWireWriter()
	w.Byte(aggWireVersion)
	ips := make([]uint32, 0, len(a.topPorts))
	for ip := range a.topPorts {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(i, j int) bool { return ips[i] < ips[j] })
	w.Uvarint(uint64(len(ips)))
	for _, ip := range ips {
		set := a.topPorts[ip]
		ports := make([]uint32, 0, len(set))
		for p := range set {
			ports = append(ports, p)
		}
		sort.Slice(ports, func(i, j int) bool { return ports[i] < ports[j] })
		w.Uvarint(uint64(ip))
		w.Uvarint(uint64(len(ports)))
		for _, p := range ports {
			w.Uvarint(uint64(p))
		}
	}
	ids := make([]int, 0, len(a.perEvent))
	for id := range a.perEvent {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	w.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		c := a.perEvent[id]
		w.Uvarint(uint64(id))
		w.Varint(c.all)
		w.Varint(c.dropped)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary replaces the aggregator's state with the decoded
// snapshot. On error the aggregator is left unchanged.
func (a *Aggregator) UnmarshalBinary(data []byte) error {
	r := analysis.NewWireReader(data)
	r.Version(aggWireVersion)
	nServers := r.Count(2)
	topPorts := make(map[uint32]map[uint32]bool, nServers)
	for i := 0; i < nServers; i++ {
		ip := r.U32()
		nPorts := r.Count(1)
		set := make(map[uint32]bool, nPorts)
		for j := 0; j < nPorts; j++ {
			set[r.U32()] = true
		}
		if r.Err() != nil {
			break
		}
		topPorts[ip] = set
	}
	nEvents := r.Count(3)
	perEvent := make(map[int]*counts, nEvents)
	for i := 0; i < nEvents; i++ {
		id := r.Int()
		perEvent[id] = &counts{all: r.Varint(), dropped: r.Varint()}
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("collateral: %w", err)
	}
	a.topPorts = topPorts
	a.perEvent = perEvent
	return nil
}

// MarshalBinary encodes the pending store canonically: cells sorted by
// (event ID, destination, port key) — the packed cell key sorts exactly
// by (destination, port key), so the byte stream does not depend on how
// the cells are laid out in memory.
func (p *Pending) MarshalBinary() ([]byte, error) {
	w := analysis.NewWireWriter()
	w.Byte(pendingWireVersion)
	ids := make([]int, 0, len(p.tables))
	for id := range p.tables {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	w.Uvarint(uint64(p.n))
	var cells []cell
	for _, id := range ids {
		cells = cells[:0]
		p.tables[id].each(func(c cell) { cells = append(cells, c) })
		slices.SortFunc(cells, func(x, y cell) int { return cmp.Compare(x.key, y.key) })
		for _, c := range cells {
			w.Uvarint(uint64(id))
			w.Uvarint(c.key >> 32)
			w.Uvarint(uint64(uint32(c.key)))
			w.Varint(c.all)
			w.Varint(c.dropped)
		}
	}
	return w.Bytes(), nil
}

// UnmarshalBinary replaces the pending store's state with the decoded
// snapshot. On error the store is left unchanged.
func (p *Pending) UnmarshalBinary(data []byte) error {
	r := analysis.NewWireReader(data)
	r.Version(pendingWireVersion)
	n := r.Count(5)
	d := NewPending()
	for i := 0; i < n; i++ {
		id := r.Int()
		dstIP := r.U32()
		portKey := r.U32()
		all, dropped := r.Varint(), r.Varint()
		if r.Err() != nil {
			break
		}
		c := d.cell(id, uint64(dstIP)<<32|uint64(portKey))
		c.all, c.dropped = all, dropped
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("collateral: pending: %w", err)
	}
	*p = *d
	return nil
}

// RemapEvents rewrites the event IDs through m (old event ID -> new ID),
// summing cells that land on the same new key. Every present event must
// be mapped.
func (p *Pending) RemapEvents(m map[int]int) error {
	for id := range p.tables {
		if _, ok := m[id]; !ok {
			return fmt.Errorf("collateral: pending: no mapping for event %d", id)
		}
	}
	tables := p.tables
	p.tables, p.n, p.last = make(map[int]*table, len(tables)), 0, nil
	for id, t := range tables {
		p.fold(m[id], t)
	}
	return nil
}
