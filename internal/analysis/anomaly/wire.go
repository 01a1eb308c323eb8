package anomaly

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/analysis"
	"repro/internal/bgp"
)

// wireVersion is the anomaly snapshot codec version.
const wireVersion = 1

// MarshalBinary encodes the per-slot features canonically: slots sorted
// by (prefix address, prefix length, slot index), each with its packet
// counters and the three bounded feature sets.
func (a *Aggregator) MarshalBinary() ([]byte, error) {
	w := analysis.NewWireWriter()
	w.Byte(wireVersion)
	keys := make([]slotKey, 0, len(a.slots))
	for k := range a.slots {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareKeys)
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		sf := a.slots[k]
		w.Uvarint(uint64(k.prefix.Addr))
		w.Byte(k.prefix.Len)
		w.Varint(k.slot)
		w.Uvarint(uint64(sf.packets))
		w.Uvarint(uint64(sf.nonTCP))
		sf.flows.EncodeWire(w)
		sf.srcIPs.EncodeWire(w)
		sf.dstPorts.EncodeWire(w)
	}
	return w.Bytes(), nil
}

// compareKeys orders slot keys by (prefix address, prefix length, slot
// index): the encoding's order.
func compareKeys(x, y slotKey) int {
	return cmp.Or(cmp.Compare(x.prefix.Addr, y.prefix.Addr), cmp.Compare(x.prefix.Len, y.prefix.Len), cmp.Compare(x.slot, y.slot))
}

// UnmarshalBinary replaces the aggregator's state with the decoded
// snapshot; the slots must come in MarshalBinary's order, each key above
// the one before, and their prefixes canonical. On error the aggregator
// is left unchanged.
func (a *Aggregator) UnmarshalBinary(data []byte) error {
	r := analysis.NewWireReader(data)
	r.Version(wireVersion)
	// One slot needs at least addr+len+slot+packets+nonTCP plus three
	// minimal sets (3 bytes each).
	n := r.Count(14)
	slots := make(map[slotKey]*slotFeat, n)
	var last slotKey
	for i := 0; i < n; i++ {
		var k slotKey
		addr, plen := r.U32(), r.Byte()
		if plen > 32 {
			return fmt.Errorf("anomaly: prefix length %d > 32", plen)
		}
		k.prefix = bgp.MakePrefix(addr, plen)
		k.slot = r.Varint()
		if r.Err() != nil {
			break
		}
		if k.prefix.Addr != addr || i > 0 && compareKeys(last, k) >= 0 {
			return fmt.Errorf("anomaly: slot (%s/%d, %d) not canonical, duplicate or out of order", bgp.FormatAddr(addr), plen, k.slot)
		}
		last = k
		sf := &slotFeat{
			owner:   a.cow.Stamp(),
			packets: r.U32(),
			nonTCP:  r.U32(),
		}
		sf.flows.DecodeWire(r)
		sf.srcIPs.DecodeWire(r)
		sf.dstPorts.DecodeWire(r)
		if r.Err() != nil {
			break
		}
		slots[k] = sf
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("anomaly: %w", err)
	}
	a.slots, a.last = slots, nil
	return nil
}
