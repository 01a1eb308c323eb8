package bgp

import (
	"maps"
	"math/bits"
)

// PrefixMap maps prefixes to values and answers longest-prefix matches
// over them: the one index behind the route server's RIB, the IP-to-AS
// table and the analysis's attribution indexes. The zero value is empty
// and ready to use; a PrefixMap must not be copied after first use.
//
// A match probes one hash map per prefix length present, longest first,
// behind a /16 filter: a 65,536-bit set marking every /16 a stored prefix
// lies in (length >= 16) or contains whole (length < 16). Every prefix
// covering an address marks the address's /16, so an unmarked /16 has no
// match at any length and one bit answers nearly every address outside
// the stored prefixes. Delete leaves the filter's bits set: a stale bit
// costs the probes, never a wrong answer.
type PrefixMap[V any] struct {
	// m is keyed by Prefix.Key: integer keys take the runtime's
	// specialized hash path, which matters where a map is probed per
	// flow record or per update.
	m     map[uint64]V
	count [33]int32            // stored prefixes per length
	lens  uint64               // bit l set: count[l] > 0
	cover [1 << 16 / 64]uint64 // the /16 filter
}

// PrefixEntry is one stored prefix with its value.
type PrefixEntry[V any] struct {
	Prefix Prefix
	Value  V
}

// Len returns the number of stored prefixes.
func (m *PrefixMap[V]) Len() int { return len(m.m) }

// Grow makes room for n more prefixes, so that many Sets add them
// without rehashing.
func (m *PrefixMap[V]) Grow(n int) {
	g := make(map[uint64]V, len(m.m)+n)
	maps.Copy(g, m.m)
	m.m = g
}

// Get returns the value stored for p.
func (m *PrefixMap[V]) Get(p Prefix) (V, bool) {
	v, ok := m.m[p.Key()]
	return v, ok
}

// Set stores v for p, replacing any value p had.
func (m *PrefixMap[V]) Set(p Prefix, v V) {
	if m.m == nil {
		m.m = make(map[uint64]V)
	}
	n := len(m.m)
	if m.m[p.Key()] = v; len(m.m) == n {
		return
	}
	m.count[p.Len]++
	m.lens |= 1 << p.Len
	for b := p.Addr >> 16; b <= (p.Addr|^p.Mask())>>16; b++ {
		m.cover[b>>6] |= 1 << (b & 63)
	}
}

// Delete removes p, if stored.
func (m *PrefixMap[V]) Delete(p Prefix) {
	n := len(m.m)
	if delete(m.m, p.Key()); len(m.m) == n {
		return
	}
	if m.count[p.Len]--; m.count[p.Len] == 0 {
		m.lens &^= 1 << p.Len
	}
}

// Each calls fn for every stored prefix, in no particular order. fn may
// Delete the prefix it is called with.
func (m *PrefixMap[V]) Each(fn func(Prefix, V)) {
	for k, v := range m.m {
		fn(Prefix{Addr: uint32(k >> 8), Len: uint8(k)}, v)
	}
}

// Lengths returns the prefix lengths present as a bitmask: bit l is set
// while some stored prefix has length l.
func (m *PrefixMap[V]) Lengths() uint64 { return m.lens }

// Longest returns the longest stored prefix covering addr.
func (m *PrefixMap[V]) Longest(addr uint32) (Prefix, V, bool) {
	if b := addr >> 16; m.cover[b>>6]&(1<<(b&63)) != 0 {
		for lens := m.lens; lens != 0; {
			l := uint8(bits.Len64(lens) - 1)
			lens &^= 1 << l
			p := Prefix{Addr: addr & mask(l), Len: l}
			if v, ok := m.m[p.Key()]; ok {
				return p, v, true
			}
		}
	}
	var zero V
	return Prefix{}, zero, false
}

// AppendCovering appends every stored prefix covering addr, longest
// first, to dst.
func (m *PrefixMap[V]) AppendCovering(dst []PrefixEntry[V], addr uint32) []PrefixEntry[V] {
	if b := addr >> 16; m.cover[b>>6]&(1<<(b&63)) != 0 {
		for lens := m.lens; lens != 0; {
			l := uint8(bits.Len64(lens) - 1)
			lens &^= 1 << l
			p := Prefix{Addr: addr & mask(l), Len: l}
			if v, ok := m.m[p.Key()]; ok {
				dst = append(dst, PrefixEntry[V]{p, v})
			}
		}
	}
	return dst
}
