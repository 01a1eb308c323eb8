package protomix

import (
	"fmt"
	"math/bits"

	"repro/internal/analysis"
	"repro/internal/netgen"
)

// wireVersion is the protomix snapshot codec version.
const wireVersion = 1

// MarshalBinary encodes the per-event aggregates canonically: events
// sorted by ID; inside each event the amplification ports and the AS
// sets are sorted ascending.
func (a *Aggregator) MarshalBinary() ([]byte, error) {
	w := analysis.NewWireWriter()
	w.Byte(wireVersion)
	w.Uvarint(uint64(a.events.Len()))
	a.events.Each(func(id int, ea *eventAgg) {
		w.Uvarint(uint64(id))
		w.Varint(ea.udp)
		w.Varint(ea.tcp)
		w.Varint(ea.icmp)
		w.Varint(ea.other)
		w.Varint(ea.nonAmpUDP)
		w.Uvarint(uint64(bits.OnesCount32(ea.ampSeen)))
		for i, port := range ampPorts {
			if ea.ampSeen&(1<<i) != 0 {
				w.Uvarint(uint64(port))
				w.Varint(ea.ampPkts[i])
			}
		}
		ea.srcIPs.EncodeWire(w)
		for _, set := range [][]uint32{ea.originASes.sorted(), ea.handoverASes.sorted()} {
			w.Uvarint(uint64(len(set)))
			for _, as := range set {
				w.Uvarint(uint64(as))
			}
		}
	})
	return w.Bytes(), nil
}

// UnmarshalEvents replaces the aggregator's state with the decoded
// snapshot of an exchange with the given number of events; an event ID
// at or past it fails the decode. On error the aggregator is left
// unchanged.
func (a *Aggregator) UnmarshalEvents(data []byte, events int) error {
	r := analysis.NewWireReader(data)
	r.Version(wireVersion)
	// Minimum per event: id, five counters, three counts, one set header.
	n := r.Count(11)
	var decoded analysis.PerEvent[eventAgg]
	var order analysis.KeyOrder
	for i := 0; i < n; i++ {
		id := r.EventID(events)
		order.Next(r, uint64(id))
		ea := &eventAgg{
			udp:       r.Varint(),
			tcp:       r.Varint(),
			icmp:      r.Varint(),
			other:     r.Varint(),
			nonAmpUDP: r.Varint(),
		}
		nPorts := r.Count(2)
		for j := 0; j < nPorts; j++ {
			port := r.U16()
			if r.Err() != nil {
				break
			}
			k, ok := netgen.AmpPortRank(netgen.ProtoUDP, port)
			if !ok || ea.ampSeen>>k != 0 {
				return fmt.Errorf("protomix: port %d is not an amplification port or not in ascending order", port)
			}
			ea.ampPkts[k] = r.Varint()
			ea.ampSeen |= 1 << k
		}
		ea.srcIPs.DecodeWire(r)
		for _, set := range []*asSet{&ea.originASes, &ea.handoverASes} {
			nAS, prev := r.Count(1), uint32(0)
			for j := 0; j < nAS; j++ {
				as := r.U32()
				if r.Err() != nil {
					break
				}
				if as <= prev {
					return fmt.Errorf("protomix: AS %d is 0 or not in ascending order", as)
				}
				set.add(as)
				prev = as
			}
		}
		if r.Err() != nil {
			break
		}
		decoded.Put(id, ea)
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("protomix: %w", err)
	}
	a.events = decoded
	return nil
}

// RemapEvents renames the events through m (old ID -> new ID; see
// analysis.PerEvent.Rename). On error the aggregator is left unchanged.
func (a *Aggregator) RemapEvents(m map[int]int) error { return a.events.Rename(m) }
