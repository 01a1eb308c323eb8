package bgp

import (
	"encoding/binary"
	"fmt"
)

// Path attribute type codes (RFC 4271 §5, RFC 1997).
const (
	AttrOrigin      = 1
	AttrASPath      = 2
	AttrNextHop     = 3
	AttrMED         = 4
	AttrLocalPref   = 5
	AttrCommunities = 8
)

// Origin values for the ORIGIN attribute.
const (
	OriginIGP        = 0
	OriginEGP        = 1
	OriginIncomplete = 2
)

// AS_PATH segment types.
const (
	segASSet      = 1
	segASSequence = 2
)

// Attribute flag bits.
const (
	flagOptional   = 0x80
	flagTransitive = 0x40
	flagExtLength  = 0x10
)

// PathAttrs carries the decoded path attributes of an UPDATE. Only the
// attributes that matter for a route-server RTBH deployment are modeled;
// unknown optional-transitive attributes are preserved opaquely so that a
// decode/encode round trip is lossless.
type PathAttrs struct {
	Origin       uint8
	ASPath       []uint32 // AS_SEQUENCE, 4-byte ASNs, leftmost = neighbor
	NextHop      uint32   // IPv4 next hop, host byte order
	MED          uint32
	HasMED       bool
	LocalPref    uint32
	HasLocalPref bool
	Communities  Communities

	// Unknown holds unrecognized attributes verbatim (flags, type, value)
	// in arrival order.
	Unknown []RawAttr
}

// RawAttr is an undecoded path attribute.
type RawAttr struct {
	Flags byte
	Type  byte
	Value []byte
}

// OriginAS returns the rightmost AS of the AS_PATH (the route's origin),
// or 0 for an empty path (locally originated at the peer).
func (a *PathAttrs) OriginAS() uint32 {
	if len(a.ASPath) == 0 {
		return 0
	}
	return a.ASPath[len(a.ASPath)-1]
}

// appendAttr writes one attribute with correct flags/extended-length. The
// extended-length bit is recomputed from the value size: a stale bit from
// a caller (e.g. a preserved unknown attribute originally encoded with a
// needless two-byte length) would corrupt the header.
func appendAttr(dst []byte, flags, typ byte, value []byte) []byte {
	if len(value) > 255 {
		dst = append(dst, flags|flagExtLength, typ, byte(len(value)>>8), byte(len(value)))
	} else {
		dst = append(dst, flags&^flagExtLength, typ, byte(len(value)))
	}
	return append(dst, value...)
}

// encode serializes the attributes in canonical (ascending type) order.
func (a *PathAttrs) encode(dst []byte) []byte {
	// ORIGIN (well-known mandatory)
	dst = appendAttr(dst, flagTransitive, AttrOrigin, []byte{a.Origin})

	// AS_PATH (well-known mandatory); AS_SEQUENCE segments of up to 255
	// ASNs each (a segment's count field is one byte), 4-byte ASNs. Paths
	// longer than 255 hops split into consecutive segments, which decode
	// back to the same flattened path.
	path := make([]byte, 0, 2+4*len(a.ASPath))
	for rest := a.ASPath; len(rest) > 0; {
		seg := rest
		if len(seg) > 255 {
			seg = seg[:255]
		}
		rest = rest[len(seg):]
		path = append(path, segASSequence, byte(len(seg)))
		for _, asn := range seg {
			path = binary.BigEndian.AppendUint32(path, asn)
		}
	}
	dst = appendAttr(dst, flagTransitive, AttrASPath, path)

	// NEXT_HOP (well-known mandatory)
	nh := binary.BigEndian.AppendUint32(nil, a.NextHop)
	dst = appendAttr(dst, flagTransitive, AttrNextHop, nh)

	if a.HasMED {
		dst = appendAttr(dst, flagOptional, AttrMED, binary.BigEndian.AppendUint32(nil, a.MED))
	}
	if a.HasLocalPref {
		dst = appendAttr(dst, flagTransitive, AttrLocalPref, binary.BigEndian.AppendUint32(nil, a.LocalPref))
	}
	if len(a.Communities) > 0 {
		cv := make([]byte, 0, 4*len(a.Communities))
		for _, c := range a.Communities {
			cv = binary.BigEndian.AppendUint32(cv, uint32(c))
		}
		dst = appendAttr(dst, flagOptional|flagTransitive, AttrCommunities, cv)
	}
	for _, u := range a.Unknown {
		dst = appendAttr(dst, u.Flags, u.Type, u.Value)
	}
	return dst
}

// decodePathAttrs parses the path-attribute block of an UPDATE.
func decodePathAttrs(b []byte) (PathAttrs, error) {
	var a PathAttrs
	for len(b) > 0 {
		if len(b) < 3 {
			return a, fmt.Errorf("bgp: truncated path attribute header")
		}
		flags, typ := b[0], b[1]
		var alen, hdr int
		if flags&flagExtLength != 0 {
			if len(b) < 4 {
				return a, fmt.Errorf("bgp: truncated extended-length attribute")
			}
			alen = int(binary.BigEndian.Uint16(b[2:4]))
			hdr = 4
		} else {
			alen = int(b[2])
			hdr = 3
		}
		if len(b) < hdr+alen {
			return a, fmt.Errorf("bgp: attribute %d length %d exceeds remaining %d bytes", typ, alen, len(b)-hdr)
		}
		val := b[hdr : hdr+alen]
		b = b[hdr+alen:]

		switch typ {
		case AttrOrigin:
			if alen != 1 {
				return a, fmt.Errorf("bgp: ORIGIN length %d", alen)
			}
			if val[0] > OriginIncomplete {
				return a, fmt.Errorf("bgp: invalid ORIGIN %d", val[0])
			}
			a.Origin = val[0]
		case AttrASPath:
			path, err := decodeASPath(val)
			if err != nil {
				return a, err
			}
			a.ASPath = path
		case AttrNextHop:
			if alen != 4 {
				return a, fmt.Errorf("bgp: NEXT_HOP length %d", alen)
			}
			a.NextHop = binary.BigEndian.Uint32(val)
		case AttrMED:
			if alen != 4 {
				return a, fmt.Errorf("bgp: MED length %d", alen)
			}
			a.MED = binary.BigEndian.Uint32(val)
			a.HasMED = true
		case AttrLocalPref:
			if alen != 4 {
				return a, fmt.Errorf("bgp: LOCAL_PREF length %d", alen)
			}
			a.LocalPref = binary.BigEndian.Uint32(val)
			a.HasLocalPref = true
		case AttrCommunities:
			if alen%4 != 0 {
				return a, fmt.Errorf("bgp: COMMUNITIES length %d not a multiple of 4", alen)
			}
			cs := make(Communities, 0, alen/4)
			for i := 0; i < alen; i += 4 {
				cs = append(cs, Community(binary.BigEndian.Uint32(val[i:i+4])))
			}
			a.Communities = cs
		default:
			// Store canonical flags: extended length is a wire-encoding
			// detail recomputed on encode, not an attribute property.
			a.Unknown = append(a.Unknown, RawAttr{
				Flags: flags &^ flagExtLength, Type: typ, Value: append([]byte(nil), val...),
			})
		}
	}
	return a, nil
}

func decodeASPath(b []byte) ([]uint32, error) {
	var path []uint32
	for len(b) > 0 {
		if len(b) < 2 {
			return nil, fmt.Errorf("bgp: truncated AS_PATH segment header")
		}
		segType, count := b[0], int(b[1])
		if segType != segASSequence && segType != segASSet {
			return nil, fmt.Errorf("bgp: unknown AS_PATH segment type %d", segType)
		}
		if len(b) < 2+4*count {
			return nil, fmt.Errorf("bgp: truncated AS_PATH segment (want %d ASNs)", count)
		}
		for i := 0; i < count; i++ {
			path = append(path, binary.BigEndian.Uint32(b[2+4*i:]))
		}
		b = b[2+4*count:]
	}
	return path, nil
}
