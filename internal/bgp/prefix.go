// Package bgp implements the subset of the Border Gateway Protocol needed
// to operate and observe an IXP blackholing (RTBH) service: IPv4 prefixes
// and NLRI encoding, standard communities including the well-known
// BLACKHOLE community (RFC 7999), path attributes, and the RFC 4271 wire
// format for OPEN, UPDATE, KEEPALIVE and NOTIFICATION messages.
//
// The paper under reproduction studies IPv4 exclusively (>98% of RTBH
// events at the vantage point), so this package is IPv4-only by design.
// AS numbers are 4-byte throughout, as negotiated on modern route-server
// sessions; AS_PATH is encoded with 4-byte ASNs (RFC 6793 "NEW" speaker).
package bgp

import (
	"fmt"
	"strconv"
	"strings"
)

// Prefix is an IPv4 prefix in compact, comparable form. It is valid as a
// map key, which the route server and the analysis pipeline rely on.
//
// Addr holds the network address in host byte order with all bits below
// the prefix length cleared; Canonical constructors guarantee this
// invariant so that equal prefixes compare equal.
type Prefix struct {
	Addr uint32 // network address, masked
	Len  uint8  // prefix length, 0..32
}

// MakePrefix masks addr to length and returns the canonical prefix.
// It panics if length exceeds 32; lengths are operator input and a value
// above 32 indicates a programming error, not a runtime condition.
func MakePrefix(addr uint32, length uint8) Prefix {
	if length > 32 {
		panic("bgp: prefix length > 32")
	}
	return Prefix{Addr: addr & mask(length), Len: length}
}

// HostPrefix returns the /32 prefix for a single IPv4 address.
func HostPrefix(addr uint32) Prefix { return Prefix{Addr: addr, Len: 32} }

func mask(length uint8) uint32 {
	if length == 0 {
		return 0
	}
	return ^uint32(0) << (32 - length)
}

// Mask returns the netmask of the prefix as a uint32.
func (p Prefix) Mask() uint32 { return mask(p.Len) }

// Contains reports whether addr falls inside the prefix.
func (p Prefix) Contains(addr uint32) bool {
	return addr&p.Mask() == p.Addr
}

// NumAddresses returns the number of addresses covered by the prefix.
func (p Prefix) NumAddresses() uint64 { return 1 << (32 - p.Len) }

// IsValid reports whether the prefix is canonical (masked, length <= 32).
func (p Prefix) IsValid() bool {
	return p.Len <= 32 && p.Addr&^mask(p.Len) == 0
}

// String formats the prefix in CIDR notation, e.g. "203.0.113.0/24".
func (p Prefix) String() string {
	return FormatAddr(p.Addr) + "/" + strconv.Itoa(int(p.Len))
}

// FormatAddr renders a host-order IPv4 address in dotted-quad notation.
func FormatAddr(a uint32) string {
	var b strings.Builder
	b.Grow(15)
	for i := 3; i >= 0; i-- {
		b.WriteString(strconv.Itoa(int(a >> (8 * i) & 0xff)))
		if i > 0 {
			b.WriteByte('.')
		}
	}
	return b.String()
}

func invalidAddr(s string) error { return fmt.Errorf("bgp: invalid IPv4 address %q", s) }

// ParseAddr parses a dotted-quad IPv4 address into host byte order: four
// decimal octets of one to three digits, none above 255 and none with a
// leading zero. It does not allocate unless it fails.
func ParseAddr(s string) (uint32, error) {
	var a uint32
	octets, v, digits := 0, uint32(0), 0
	for i := 0; i <= len(s); i++ {
		if i < len(s) && s[i] != '.' {
			c := s[i] - '0'
			// At most three digits per octet, and no leading zero.
			if c > 9 || digits == 3 || (digits == 1 && v == 0) {
				return 0, invalidAddr(s)
			}
			v, digits = v*10+uint32(c), digits+1
			continue
		}
		if digits == 0 || v > 255 || octets == 4 {
			return 0, invalidAddr(s)
		}
		a, octets, v, digits = a<<8|v, octets+1, 0, 0
	}
	if octets != 4 {
		return 0, invalidAddr(s)
	}
	return a, nil
}

// ParsePrefix parses CIDR notation, e.g. "10.0.0.0/8". A bare address is
// treated as a /32, matching operator conventions for blackhole targets.
func ParsePrefix(s string) (Prefix, error) {
	addrPart := s
	length := 32
	if i := strings.IndexByte(s, '/'); i >= 0 {
		addrPart = s[:i]
		v, err := strconv.Atoi(s[i+1:])
		if err != nil || v < 0 || v > 32 {
			return Prefix{}, fmt.Errorf("bgp: invalid prefix length in %q", s)
		}
		length = v
	}
	addr, err := ParseAddr(addrPart)
	if err != nil {
		return Prefix{}, err
	}
	return MakePrefix(addr, uint8(length)), nil
}

// MustParsePrefix is ParsePrefix for compile-time-constant inputs in tests
// and examples; it panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// appendNLRI appends the RFC 4271 NLRI encoding of p (length octet
// followed by ceil(len/8) address octets) to dst.
func appendNLRI(dst []byte, p Prefix) []byte {
	dst = append(dst, p.Len)
	octets := (int(p.Len) + 7) / 8
	for i := 0; i < octets; i++ {
		dst = append(dst, byte(p.Addr>>(24-8*i)))
	}
	return dst
}

// decodeNLRI decodes one NLRI entry from b, returning the prefix and the
// number of bytes consumed.
func decodeNLRI(b []byte) (Prefix, int, error) {
	if len(b) < 1 {
		return Prefix{}, 0, fmt.Errorf("bgp: truncated NLRI")
	}
	length := b[0]
	if length > 32 {
		return Prefix{}, 0, fmt.Errorf("bgp: NLRI prefix length %d > 32", length)
	}
	octets := (int(length) + 7) / 8
	if len(b) < 1+octets {
		return Prefix{}, 0, fmt.Errorf("bgp: truncated NLRI body (want %d octets)", octets)
	}
	var addr uint32
	for i := 0; i < octets; i++ {
		addr |= uint32(b[1+i]) << (24 - 8*i)
	}
	p := Prefix{Addr: addr & mask(length), Len: length}
	if addr != p.Addr {
		return Prefix{}, 0, fmt.Errorf("bgp: NLRI %s has bits set beyond prefix length", p)
	}
	return p, 1 + octets, nil
}
