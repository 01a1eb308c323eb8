package bgp

import (
	"maps"
	"slices"
)

// PrefixMap maps prefixes to values and answers longest-prefix matches
// over them: the one index behind the route server's RIB, the IP-to-AS
// table and the analysis's attribution indexes. The zero value is empty
// and ready to use; a PrefixMap must not be copied after first use.
//
// A match reads one bucket, without a hash probe, behind a /16 filter: a
// 65,536-bit set marking every /16 a stored prefix lies in (length >= 16)
// or contains whole (length < 16). Every prefix covering an address marks
// the address's /16, so an unmarked /16 has no match at any length and
// one bit answers nearly every address outside the stored prefixes. A
// marked /16's bucket lists the stored prefixes that overlap it, a
// shorter prefix in every /16 it covers, sorted by address and then
// length, each linked to the longest of them that contains it. The
// longest match of an address is then the last entry starting at or
// below it, or the first entry up its chain of containers that contains
// it, and the rest of the chain holds every shorter match. Delete leaves
// the filter's bits set: a stale bit costs one empty bucket read, never a
// wrong answer.
//
// The values sit in one slab, apart from the buckets: a bucket entry is
// 16 pointer-free bytes, so keeping a bucket sorted moves little memory
// and the collector never scans it, and a Set that replaces a value
// writes one slot, whatever number of /16s its prefix covers.
type PrefixMap[V any] struct {
	// slot holds each stored prefix's index in vals, keyed by Prefix.Key:
	// integer keys take the runtime's specialized hash path, which
	// matters where a map is probed per flow record or per update.
	slot  map[uint64]int32
	vals  []V
	free  []int32              // slots of vals that Delete emptied
	count [33]int32            // stored prefixes per length
	lens  uint64               // bit l set: count[l] > 0
	cover [1 << 16 / 64]uint64 // the /16 filter
	// buckets holds the /16 buckets by /8, a block of 256 allocated once
	// a /16 in its /8 is marked.
	buckets [256]*[256][]prefixNode
}

// prefixNode is one stored prefix in a bucket. back is how many entries
// before it its longest container sits, 0 if it has none, so that an
// insertion or removal moves only the links that span it.
type prefixNode struct {
	prefix Prefix
	slot   int32
	back   int32
}

// up returns the index of entry i's longest container, -1 if none.
func (n *prefixNode) up(i int) int {
	if n.back == 0 {
		return -1
	}
	return i - int(n.back)
}

// last returns the last address of p.
func last(p Prefix) uint32 { return p.Addr | ^p.Mask() }

// PrefixEntry is one stored prefix with its value.
type PrefixEntry[V any] struct {
	Prefix Prefix
	Value  V
}

// Len returns the number of stored prefixes.
func (m *PrefixMap[V]) Len() int { return len(m.slot) }

// Grow makes room for n more prefixes, so that many Sets add them
// without rehashing.
func (m *PrefixMap[V]) Grow(n int) {
	g := make(map[uint64]int32, len(m.slot)+n)
	maps.Copy(g, m.slot)
	m.slot = g
	m.vals = slices.Grow(m.vals, n)
}

// Get returns the value stored for p.
func (m *PrefixMap[V]) Get(p Prefix) (V, bool) {
	if i, ok := m.slot[p.Key()]; ok {
		return m.vals[i], true
	}
	var zero V
	return zero, false
}

// Set stores v for p, replacing any value p had.
func (m *PrefixMap[V]) Set(p Prefix, v V) {
	if i, ok := m.slot[p.Key()]; ok {
		m.vals[i] = v
		return
	}
	if m.slot == nil {
		m.slot = make(map[uint64]int32)
	}
	var i int32
	if n := len(m.free); n > 0 {
		i, m.free = m.free[n-1], m.free[:n-1]
		m.vals[i] = v
	} else {
		i = int32(len(m.vals))
		m.vals = append(m.vals, v)
	}
	m.slot[p.Key()] = i
	m.count[p.Len]++
	m.lens |= 1 << p.Len
	for b := p.Addr >> 16; ; b++ {
		m.cover[b>>6] |= 1 << (b & 63)
		bucket := m.bucket(b)
		j := search(*bucket, p)
		*bucket = insert(*bucket, j, prefixNode{prefix: p, slot: i})
		if b == last(p)>>16 {
			return
		}
	}
}

// Delete removes p, if stored.
func (m *PrefixMap[V]) Delete(p Prefix) {
	i, ok := m.slot[p.Key()]
	if !ok {
		return
	}
	delete(m.slot, p.Key())
	var zero V
	m.vals[i] = zero
	m.free = append(m.free, i)
	if m.count[p.Len]--; m.count[p.Len] == 0 {
		m.lens &^= 1 << p.Len
	}
	for b := p.Addr >> 16; ; b++ {
		bucket := m.bucket(b)
		*bucket = remove(*bucket, search(*bucket, p))
		if b == last(p)>>16 {
			return
		}
	}
}

// bucket returns /16 b's bucket for writing, allocating its /8's block.
func (m *PrefixMap[V]) bucket(b uint32) *[]prefixNode {
	blk := m.buckets[b>>8]
	if blk == nil {
		blk = new([256][]prefixNode)
		m.buckets[b>>8] = blk
	}
	return &blk[b&0xff]
}

// search returns the index of p in a bucket, or where to insert it. A
// table read in address order appends, so that is tried first.
func search(ns []prefixNode, p Prefix) int {
	k := p.Key()
	if len(ns) == 0 || ns[len(ns)-1].prefix.Key() < k {
		return len(ns)
	}
	lo, hi := 0, len(ns)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if ns[h].prefix.Key() < k {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// insert puts n at index i of a bucket. Its containers are up the chain
// from entry i-1: an entry starting at or before n that contains n
// contains entry i-1 too, or is it. A link that spans i runs from an
// entry inside n's outermost container, or inside n, to an entry before
// i; n becomes the container of the entries inside it whose container
// was before i, and is longer than that one.
func insert(ns []prefixNode, i int, n prefixNode) []prefixNode {
	p := n.prefix
	j := i - 1
	for j >= 0 && (ns[j].prefix.Len > p.Len || !ns[j].prefix.Contains(p.Addr)) {
		j = ns[j].up(j)
	}
	if j >= 0 {
		n.back = int32(i - j)
	}
	end := last(p)
	for a := j; a >= 0; a = ns[a].up(a) {
		end = last(ns[a].prefix)
	}
	ns = slices.Insert(ns, i, n)
	for k := i + 1; k < len(ns) && ns[k].prefix.Addr <= end; k++ {
		switch c := ns[k].up(k - 1); {
		case c >= i:
		case p.Contains(ns[k].prefix.Addr):
			ns[k].back = int32(k - i)
		case c >= 0:
			ns[k].back++
		}
	}
	return ns
}

// remove deletes entry i of a bucket, handing the entries it was the
// longest container of to its own container.
func remove(ns []prefixNode, i int) []prefixNode {
	d := ns[i].up(i)
	end := last(ns[i].prefix)
	for a := d; a >= 0; a = ns[a].up(a) {
		end = last(ns[a].prefix)
	}
	for k := i + 1; k < len(ns) && ns[k].prefix.Addr <= end; k++ {
		switch c := ns[k].up(k); {
		case c < 0 || c > i:
		case c == i && d < 0:
			ns[k].back = 0
		case c == i:
			ns[k].back = int32(k - 1 - d)
		default:
			ns[k].back--
		}
	}
	return slices.Delete(ns, i, i+1)
}

// Each calls fn for every stored prefix, in no particular order. fn may
// Delete the prefix it is called with.
func (m *PrefixMap[V]) Each(fn func(Prefix, V)) {
	for k, i := range m.slot {
		fn(Prefix{Addr: uint32(k >> 8), Len: uint8(k)}, m.vals[i])
	}
}

// Lengths returns the prefix lengths present as a bitmask: bit l is set
// while some stored prefix has length l.
func (m *PrefixMap[V]) Lengths() uint64 { return m.lens }

// match returns the bucket of addr and the index of its longest match
// there, -1 if none.
func (m *PrefixMap[V]) match(addr uint32) ([]prefixNode, int) {
	b := addr >> 16
	if m.cover[b>>6]&(1<<(b&63)) == 0 {
		return nil, -1
	}
	ns := m.buckets[b>>8][b&0xff]
	lo, hi := 0, len(ns)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if ns[h].prefix.Addr <= addr {
			lo = h + 1
		} else {
			hi = h
		}
	}
	i := lo - 1
	for i >= 0 && !ns[i].prefix.Contains(addr) {
		i = ns[i].up(i)
	}
	return ns, i
}

// Longest returns the longest stored prefix covering addr.
func (m *PrefixMap[V]) Longest(addr uint32) (Prefix, V, bool) {
	if ns, i := m.match(addr); i >= 0 {
		return ns[i].prefix, m.vals[ns[i].slot], true
	}
	var zero V
	return Prefix{}, zero, false
}

// AppendCovering appends every stored prefix covering addr, longest
// first, to dst.
func (m *PrefixMap[V]) AppendCovering(dst []PrefixEntry[V], addr uint32) []PrefixEntry[V] {
	ns, i := m.match(addr)
	for ; i >= 0; i = ns[i].up(i) {
		dst = append(dst, PrefixEntry[V]{ns[i].prefix, m.vals[ns[i].slot]})
	}
	return dst
}
