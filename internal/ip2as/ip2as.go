// Package ip2as provides longest-prefix-match IP-to-origin-AS mapping.
// The paper determines the origin AS of attack sources ("the AS hosting
// the amplifier", §5.5) and of blackholed hosts (§6.2) from routing data;
// this package is that lookup, fed from the simulator's address plan and
// serialized alongside the datasets.
package ip2as

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/bgp"
)

// Entry maps one prefix to its origin AS.
type Entry struct {
	Prefix string `json:"prefix"`
	ASN    uint32 `json:"asn"`
}

// Table performs longest-prefix-match lookups. Build with Add, then call
// Lookup; Add and Lookup may be interleaved. The zero value is empty and
// usable.
type Table struct {
	// asn maps a packed prefix (see pkey) to its origin AS; integer keys
	// take the runtime's specialized hash path, and Lookup runs once per
	// amplification record of the streaming pass.
	asn map[uint64]uint32
	// lens lists the distinct prefix lengths present, descending, so a
	// lookup probes only lengths that can match.
	lens []uint8
}

// New returns an empty table.
func New() *Table { return &Table{} }

func pkey(p bgp.Prefix) uint64 { return uint64(p.Addr)<<8 | uint64(p.Len) }

// Add inserts prefix -> asn, replacing any existing identical prefix.
func (t *Table) Add(p bgp.Prefix, asn uint32) {
	if t.asn == nil {
		t.asn = make(map[uint64]uint32)
	}
	t.asn[pkey(p)] = asn
	i := sort.Search(len(t.lens), func(i int) bool { return t.lens[i] <= p.Len })
	if i == len(t.lens) || t.lens[i] != p.Len {
		t.lens = append(t.lens, 0)
		copy(t.lens[i+1:], t.lens[i:])
		t.lens[i] = p.Len
	}
}

// Lookup returns the origin AS of the longest prefix covering addr, or
// (0, false) when no prefix matches.
func (t *Table) Lookup(addr uint32) (uint32, bool) {
	for _, l := range t.lens {
		if asn, ok := t.asn[pkey(bgp.MakePrefix(addr, l))]; ok {
			return asn, true
		}
	}
	return 0, false
}

// Entries returns all entries sorted by (address, length).
func (t *Table) Entries() []Entry {
	keys := make([]uint64, 0, len(t.asn))
	for k := range t.asn {
		keys = append(keys, k)
	}
	// The packed key orders by address, then length.
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]Entry, len(keys))
	for i, k := range keys {
		p := bgp.Prefix{Addr: uint32(k >> 8), Len: uint8(k)}
		out[i] = Entry{Prefix: p.String(), ASN: t.asn[k]}
	}
	return out
}

// WriteJSON serializes the table.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(t.Entries())
}

// ReadJSON parses a table written by WriteJSON.
func ReadJSON(r io.Reader) (*Table, error) {
	var entries []Entry
	if err := json.NewDecoder(r).Decode(&entries); err != nil {
		return nil, fmt.Errorf("ip2as: %w", err)
	}
	t := New()
	for _, e := range entries {
		p, err := bgp.ParsePrefix(e.Prefix)
		if err != nil {
			return nil, fmt.Errorf("ip2as: entry %q: %w", e.Prefix, err)
		}
		t.Add(p, e.ASN)
	}
	return t, nil
}
