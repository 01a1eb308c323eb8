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
	ids := make([]slotID, 0, len(a.slots))
	for k, sf := range a.slots {
		ids = append(ids, slotID{k.prefix(), k.slot(), sf})
	}
	slices.SortFunc(ids, compareIDs)
	w.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		sf := id.feat
		w.Uvarint(uint64(id.prefix.Addr))
		w.Byte(id.prefix.Len)
		w.Varint(id.slot)
		w.Uvarint(uint64(sf.packets))
		w.Uvarint(uint64(sf.nonTCP))
		sf.flows.EncodeWire(w)
		sf.srcIPs.EncodeWire(w)
		sf.dstPorts.EncodeWire(w)
	}
	return w.Bytes(), nil
}

// slotID is a slot key unpacked, in the encoding's terms.
type slotID struct {
	prefix bgp.Prefix
	slot   int64
	feat   *slotFeat
}

// compareIDs orders slots by (prefix address, prefix length, slot
// index): the encoding's order.
func compareIDs(x, y slotID) int {
	return cmp.Or(cmp.Compare(x.prefix.Addr, y.prefix.Addr), cmp.Compare(x.prefix.Len, y.prefix.Len), cmp.Compare(x.slot, y.slot))
}

// UnmarshalBinary replaces the aggregator's state with the decoded
// snapshot; the slots must come in MarshalBinary's order, each key above
// the one before, their prefixes canonical and their slots inside the
// slot key's range. On error the aggregator is left unchanged.
func (a *Aggregator) UnmarshalBinary(data []byte) error {
	r := analysis.NewWireReader(data)
	r.Version(wireVersion)
	// One slot needs at least addr+len+slot+packets+nonTCP plus three
	// minimal sets (3 bytes each).
	n := r.Count(14)
	slots := make(map[slotKey]*slotFeat, n)
	var last slotID
	for i := 0; i < n; i++ {
		var id slotID
		addr, plen := r.U32(), r.Byte()
		if plen > 32 {
			return fmt.Errorf("anomaly: prefix length %d > 32", plen)
		}
		id.prefix = bgp.MakePrefix(addr, plen)
		id.slot = r.Varint()
		if r.Err() != nil {
			break
		}
		if id.prefix.Addr != addr || i > 0 && compareIDs(last, id) >= 0 {
			return fmt.Errorf("anomaly: slot (%s/%d, %d) not canonical, duplicate or out of order", bgp.FormatAddr(addr), plen, id.slot)
		}
		k, ok := keyOf(id.prefix, id.slot)
		if !ok {
			return fmt.Errorf("anomaly: slot %d of %s outside the slot key's range", id.slot, id.prefix)
		}
		last = id
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
