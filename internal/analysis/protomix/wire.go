package protomix

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
)

// wireVersion is the protomix snapshot codec version.
const wireVersion = 1

func sortedU32Set(m map[uint32]bool) []uint32 {
	out := make([]uint32, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MarshalBinary encodes the per-event aggregates canonically: events
// sorted by ID; inside each event the amplification ports and the AS
// sets are sorted ascending.
func (a *Aggregator) MarshalBinary() ([]byte, error) {
	w := analysis.NewWireWriter()
	w.Byte(wireVersion)
	ids := make([]int, 0, len(a.events))
	for id := range a.events {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	w.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		ea := a.events[id]
		w.Uvarint(uint64(id))
		w.Varint(ea.udp)
		w.Varint(ea.tcp)
		w.Varint(ea.icmp)
		w.Varint(ea.other)
		w.Varint(ea.nonAmpUDP)
		ports := make([]uint16, 0, len(ea.ampPkts))
		for p := range ea.ampPkts {
			ports = append(ports, p)
		}
		sort.Slice(ports, func(i, j int) bool { return ports[i] < ports[j] })
		w.Uvarint(uint64(len(ports)))
		for _, p := range ports {
			w.Uvarint(uint64(p))
			w.Varint(ea.ampPkts[p])
		}
		ea.srcIPs.EncodeWire(w)
		for _, set := range [][]uint32{sortedU32Set(ea.originASes), sortedU32Set(ea.handoverASes)} {
			w.Uvarint(uint64(len(set)))
			for _, as := range set {
				w.Uvarint(uint64(as))
			}
		}
	}
	return w.Bytes(), nil
}

// UnmarshalBinary replaces the aggregator's state with the decoded
// snapshot. On error the aggregator is left unchanged.
func (a *Aggregator) UnmarshalBinary(data []byte) error {
	r := analysis.NewWireReader(data)
	r.Version(wireVersion)
	// Minimum per event: id, five counters, three counts, one set header.
	n := r.Count(11)
	events := make(map[int]*eventAgg, n)
	for i := 0; i < n; i++ {
		id := r.Int()
		ea := &eventAgg{
			udp:       r.Varint(),
			tcp:       r.Varint(),
			icmp:      r.Varint(),
			other:     r.Varint(),
			nonAmpUDP: r.Varint(),
		}
		nPorts := r.Count(2)
		ea.ampPkts = make(map[uint16]int64, nPorts)
		for j := 0; j < nPorts; j++ {
			p := r.U16()
			ea.ampPkts[p] = r.Varint()
		}
		ea.srcIPs.DecodeWire(r)
		nOrigin := r.Count(1)
		ea.originASes = make(map[uint32]bool, nOrigin)
		for j := 0; j < nOrigin; j++ {
			ea.originASes[r.U32()] = true
		}
		nHandover := r.Count(1)
		ea.handoverASes = make(map[uint32]bool, nHandover)
		for j := 0; j < nHandover; j++ {
			ea.handoverASes[r.U32()] = true
		}
		if r.Err() != nil {
			break
		}
		events[id] = ea
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("protomix: %w", err)
	}
	a.events, a.last = events, nil
	return nil
}

// RemapEvents rewrites the per-event keys through m (old ID -> new ID),
// merging aggregates that land on the same new ID. Every present event
// must be mapped.
func (a *Aggregator) RemapEvents(m map[int]int) error {
	out := make(map[int]*eventAgg, len(a.events))
	for id, ea := range a.events {
		nid, ok := m[id]
		if !ok {
			return fmt.Errorf("protomix: no mapping for event %d", id)
		}
		if cur := out[nid]; cur != nil {
			tmp := &Aggregator{events: map[int]*eventAgg{nid: ea}}
			dst := &Aggregator{events: map[int]*eventAgg{nid: cur}}
			dst.Merge(tmp)
		} else {
			out[nid] = ea
		}
	}
	a.events, a.last = out, nil
	return nil
}
