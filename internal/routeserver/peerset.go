package routeserver

import "math/bits"

// peerSet is a set of registered peers: a bitset over peerState.idx, the
// order of registration. Sets built before a later AddPeer are shorter
// than newer ones; a peer beyond a set's length is not in it.
type peerSet []uint64

func (s peerSet) has(i int) bool {
	return i>>6 < len(s) && s[i>>6]&(1<<(i&63)) != 0
}

// grown returns s extended with empty words so that it can hold peer i.
func (s peerSet) grown(i int) peerSet {
	for len(s) <= i>>6 {
		s = append(s, 0)
	}
	return s
}

// set and clear add and remove peer i, which must lie within the set's
// length.
func (s peerSet) set(i int)   { s[i>>6] |= 1 << (i & 63) }
func (s peerSet) clear(i int) { s[i>>6] &^= 1 << (i & 63) }

// and returns a new set holding the peers in both s and t, as long as s.
func (s peerSet) and(t peerSet) peerSet {
	out := make(peerSet, len(s))
	for i := range out[:min(len(s), len(t))] {
		out[i] = s[i] & t[i]
	}
	return out
}

func (s peerSet) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}
