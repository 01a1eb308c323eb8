package bgp

import (
	"strconv"
	"strings"
)

// Community is an RFC 1997 standard community: a 32-bit value conventionally
// written as "asn:value" where asn is the upper and value the lower 16 bits.
type Community uint32

// MakeCommunity builds a community from its two 16-bit halves.
func MakeCommunity(asn, value uint16) Community {
	return Community(uint32(asn)<<16 | uint32(value))
}

// ASN returns the upper 16 bits (the namespace AS).
func (c Community) ASN() uint16 { return uint16(c >> 16) }

// Value returns the lower 16 bits.
func (c Community) Value() uint16 { return uint16(c) }

// Well-known communities relevant to blackholing deployments.
const (
	// Blackhole is the RFC 7999 BLACKHOLE community (65535:666). A route
	// tagged with it requests that neighbors discard traffic destined to
	// the announced prefix.
	Blackhole Community = 0xFFFF029A // 65535:666

	// NoExport (RFC 1997) keeps the route inside the receiving AS. RFC
	// 7999 recommends attaching it alongside BLACKHOLE.
	NoExport Community = 0xFFFFFF01 // 65535:65281

	// NoAdvertise (RFC 1997) forbids any re-advertisement.
	NoAdvertise Community = 0xFFFFFF02 // 65535:65282
)

// String renders the conventional "asn:value" form.
func (c Community) String() string {
	return strconv.Itoa(int(c.ASN())) + ":" + strconv.Itoa(int(c.Value()))
}

// Communities is an ordered community list as carried in the COMMUNITIES
// path attribute.
type Communities []Community

// Contains reports whether c appears in the list.
func (cs Communities) Contains(c Community) bool {
	for _, x := range cs {
		if x == c {
			return true
		}
	}
	return false
}

// HasBlackhole reports whether the route is tagged with RFC 7999 BLACKHOLE.
func (cs Communities) HasBlackhole() bool { return cs.Contains(Blackhole) }

// Clone returns an independent copy.
func (cs Communities) Clone() Communities {
	if cs == nil {
		return nil
	}
	out := make(Communities, len(cs))
	copy(out, cs)
	return out
}

// String renders a space-separated list, e.g. "65535:666 0:64500".
func (cs Communities) String() string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = c.String()
	}
	return strings.Join(parts, " ")
}
