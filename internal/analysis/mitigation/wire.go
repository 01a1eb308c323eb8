package mitigation

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/bgp"
)

// wireVersion is the mitigation snapshot codec version.
const wireVersion = 1

// MarshalBinary encodes the aggregator canonically: per-prefix cells
// sorted by (addr, len), each holding the per-phase attack and
// legitimate counters.
func (a *Aggregator) MarshalBinary() ([]byte, error) {
	w := analysis.NewWireWriter()
	w.Byte(wireVersion)
	prefixes := sortedPrefixes(a.byPrefix)
	w.Uvarint(uint64(len(prefixes)))
	for _, p := range prefixes {
		cs := a.byPrefix[p]
		w.Uvarint(uint64(p.Addr))
		w.Byte(p.Len)
		for ph := 0; ph < int(numPhases); ph++ {
			cs.attack[ph].EncodeWire(w)
			cs.legit[ph].EncodeWire(w)
		}
	}
	return w.Bytes(), nil
}

// UnmarshalBinary replaces the aggregator's state with the decoded
// snapshot. On error the aggregator is left unchanged.
func (a *Aggregator) UnmarshalBinary(data []byte) error {
	r := analysis.NewWireReader(data)
	r.Version(wireVersion)
	n := r.Count(2 + 8*int(numPhases)) // addr + len + 2x4 varints per phase
	byPrefix := make(map[bgp.Prefix]*cells, n)
	var order analysis.KeyOrder
	for i := 0; i < n; i++ {
		addr := r.U32()
		length := r.Byte()
		if length > 32 {
			return fmt.Errorf("mitigation: prefix length %d", length)
		}
		p := bgp.MakePrefix(addr, length)
		if p.Addr != addr {
			return fmt.Errorf("mitigation: prefix %s has host bits set", bgp.FormatAddr(addr))
		}
		order.Next(r, uint64(addr)<<8|uint64(length))
		cs := &cells{}
		for ph := 0; ph < int(numPhases); ph++ {
			cs.attack[ph].DecodeWire(r)
			cs.legit[ph].DecodeWire(r)
		}
		byPrefix[p] = cs
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("mitigation: %w", err)
	}
	a.byPrefix, a.lastCells = byPrefix, nil
	return nil
}
