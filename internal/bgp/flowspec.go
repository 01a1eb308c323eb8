package bgp

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// This file implements the subset of BGP Flow Specification (RFC 8955)
// that the paper discusses as the fine-grained alternative to RTBH
// (§1, §5.5): matching on destination prefix, IP protocol and transport
// ports, with the traffic-rate-0 ("discard") action carried as an
// extended community. FlowSpec NLRI travels in MP_REACH_NLRI /
// MP_UNREACH_NLRI attributes with AFI 1 (IPv4), SAFI 133.

// FlowSpec component types (RFC 8955 §4.2).
const (
	FSDstPrefix = 1
	FSSrcPrefix = 2
	FSIPProto   = 3
	FSPort      = 4
	FSDstPort   = 5
	FSSrcPort   = 6
)

// AFI/SAFI for IPv4 FlowSpec.
const (
	AFIIPv4       = 1
	SAFIFlowSpec  = 133
	AttrMPReach   = 14
	AttrMPUnreach = 15
	AttrExtComms  = 16
)

// TrafficRateDiscard is the extended community requesting rate 0 —
// discard all matching traffic (RFC 8955 §7.1, type 0x8006).
var TrafficRateDiscard = ExtCommunity{0x80, 0x06, 0, 0, 0, 0, 0, 0}

// ExtCommunity is one 8-byte BGP extended community.
type ExtCommunity [8]byte

// IsTrafficRate reports whether the community is a traffic-rate action;
// rate is the embedded float32 bytes (0 = discard).
func (e ExtCommunity) IsTrafficRate() (rate float32, ok bool) {
	if e[0] != 0x80 || e[1] != 0x06 {
		return 0, false
	}
	bits := binary.BigEndian.Uint32(e[4:8])
	return math.Float32frombits(bits), true
}

// FlowRule is a decoded FlowSpec rule. Zero-valued match fields are
// wildcards. Ports and protocols match if the packet value equals any
// listed value (the RFC's OR across equality operators).
type FlowRule struct {
	// Dst is the destination prefix (required in this deployment: the
	// route server validates that the rule protects the peer's space).
	Dst Prefix
	// HasDst reports whether Dst is present.
	HasDst bool
	// Protos lists matched IP protocols (empty = any).
	Protos []uint8
	// DstPorts and SrcPorts list matched transport ports (empty = any).
	DstPorts []uint16
	SrcPorts []uint16
}

// Matches reports whether a packet matches the rule.
func (r *FlowRule) Matches(dstIP uint32, proto uint8, srcPort, dstPort uint16) bool {
	if r.HasDst && !r.Dst.Contains(dstIP) {
		return false
	}
	if len(r.Protos) > 0 && !containsU8(r.Protos, proto) {
		return false
	}
	if len(r.DstPorts) > 0 && !containsU16(r.DstPorts, dstPort) {
		return false
	}
	if len(r.SrcPorts) > 0 && !containsU16(r.SrcPorts, srcPort) {
		return false
	}
	return true
}

func containsU8(xs []uint8, v uint8) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func containsU16(xs []uint16, v uint16) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// String renders a compact human-readable form.
func (r *FlowRule) String() string {
	var parts []string
	if r.HasDst {
		parts = append(parts, "dst "+r.Dst.String())
	}
	if len(r.Protos) > 0 {
		ps := make([]string, len(r.Protos))
		for i, p := range r.Protos {
			ps[i] = strconv.Itoa(int(p))
		}
		parts = append(parts, "proto "+strings.Join(ps, ","))
	}
	if len(r.SrcPorts) > 0 {
		parts = append(parts, "src-port "+joinPorts(r.SrcPorts))
	}
	if len(r.DstPorts) > 0 {
		parts = append(parts, "dst-port "+joinPorts(r.DstPorts))
	}
	if len(parts) == 0 {
		return "match any"
	}
	return strings.Join(parts, " ")
}

func joinPorts(ps []uint16) string {
	ss := make([]string, len(ps))
	for i, p := range ps {
		ss[i] = strconv.Itoa(int(p))
	}
	return strings.Join(ss, ",")
}

// numeric-operator byte layout (RFC 8955 §4.2.1.1):
// bit 0: end-of-list, bit 1: AND, bits 2-3: value length (1<<n bytes),
// bit 6: lt, bit 7 (LSB): eq. We emit equality operators OR-ed together.
const (
	opEndOfList = 0x80
	opLen1      = 0x00
	opLen2      = 0x10
	opEq        = 0x01
)

// EncodeFlowRule serializes the rule as FlowSpec NLRI (length-prefixed
// component list).
func EncodeFlowRule(r *FlowRule) ([]byte, error) {
	var body []byte
	if r.HasDst {
		if !r.Dst.IsValid() {
			return nil, fmt.Errorf("bgp: flowspec with invalid prefix %v", r.Dst)
		}
		body = append(body, FSDstPrefix)
		body = appendNLRI(body, r.Dst)
	}
	appendValues8 := func(typ byte, vals []uint8) {
		if len(vals) == 0 {
			return
		}
		body = append(body, typ)
		for i, v := range vals {
			op := byte(opLen1 | opEq)
			if i == len(vals)-1 {
				op |= opEndOfList
			}
			body = append(body, op, v)
		}
	}
	appendValues16 := func(typ byte, vals []uint16) {
		if len(vals) == 0 {
			return
		}
		body = append(body, typ)
		for i, v := range vals {
			op := byte(opLen2 | opEq)
			if i == len(vals)-1 {
				op |= opEndOfList
			}
			body = append(body, op, byte(v>>8), byte(v))
		}
	}
	appendValues8(FSIPProto, r.Protos)
	appendValues16(FSDstPort, r.DstPorts)
	appendValues16(FSSrcPort, r.SrcPorts)

	if len(body) == 0 {
		return nil, fmt.Errorf("bgp: empty flowspec rule")
	}
	if len(body) >= 0xf0 {
		return nil, fmt.Errorf("bgp: flowspec rule too long (%d bytes)", len(body))
	}
	return append([]byte{byte(len(body))}, body...), nil
}

// DecodeFlowRule parses one FlowSpec NLRI entry, returning the rule and
// bytes consumed.
func DecodeFlowRule(b []byte) (*FlowRule, int, error) {
	if len(b) < 1 {
		return nil, 0, fmt.Errorf("bgp: empty flowspec NLRI")
	}
	length := int(b[0])
	if length >= 0xf0 {
		return nil, 0, fmt.Errorf("bgp: extended flowspec length not supported")
	}
	if len(b) < 1+length {
		return nil, 0, fmt.Errorf("bgp: truncated flowspec NLRI (want %d bytes)", length)
	}
	body := b[1 : 1+length]
	rule := &FlowRule{}
	lastType := byte(0)
	for len(body) > 0 {
		typ := body[0]
		if typ <= lastType {
			return nil, 0, fmt.Errorf("bgp: flowspec components out of order (type %d after %d)", typ, lastType)
		}
		lastType = typ
		body = body[1:]
		switch typ {
		case FSDstPrefix, FSSrcPrefix:
			p, n, err := decodeNLRI(body)
			if err != nil {
				return nil, 0, fmt.Errorf("bgp: flowspec prefix: %w", err)
			}
			if typ == FSDstPrefix {
				rule.Dst, rule.HasDst = p, true
			}
			// Source prefixes are parsed but not retained: this
			// deployment matches reflected attacks by port, not source.
			body = body[n:]
		case FSIPProto, FSPort, FSDstPort, FSSrcPort:
			for {
				if len(body) < 1 {
					return nil, 0, fmt.Errorf("bgp: truncated flowspec operator")
				}
				op := body[0]
				vlen := 1 << ((op >> 4) & 0x3)
				if len(body) < 1+vlen {
					return nil, 0, fmt.Errorf("bgp: truncated flowspec value")
				}
				if op&opEq == 0 {
					return nil, 0, fmt.Errorf("bgp: only equality flowspec operators supported")
				}
				var v uint64
				for i := 0; i < vlen; i++ {
					v = v<<8 | uint64(body[1+i])
				}
				switch typ {
				case FSIPProto:
					rule.Protos = append(rule.Protos, uint8(v))
				case FSDstPort, FSPort:
					rule.DstPorts = append(rule.DstPorts, uint16(v))
				case FSSrcPort:
					rule.SrcPorts = append(rule.SrcPorts, uint16(v))
				}
				body = body[1+vlen:]
				if op&opEndOfList != 0 {
					break
				}
			}
		default:
			return nil, 0, fmt.Errorf("bgp: unsupported flowspec component type %d", typ)
		}
	}
	return rule, 1 + length, nil
}

// FlowSpecUpdate is a decoded FlowSpec BGP UPDATE: announced and
// withdrawn rules plus the action communities.
type FlowSpecUpdate struct {
	Announced []*FlowRule
	Withdrawn []*FlowRule
	ExtComms  []ExtCommunity
}

// Discards reports whether the update carries the traffic-rate-0 action.
func (u *FlowSpecUpdate) Discards() bool {
	for _, e := range u.ExtComms {
		if rate, ok := e.IsTrafficRate(); ok && rate == 0 {
			return true
		}
	}
	return false
}

// DecodeFlowSpecUpdate parses a BGP message as a FlowSpec update. ok is
// false when the message is an UPDATE without FlowSpec attributes.
func DecodeFlowSpecUpdate(msg []byte) (*FlowSpecUpdate, bool, error) {
	typ, decoded, _, err := DecodeMessage(msg)
	if err != nil {
		return nil, false, err
	}
	if typ != MsgUpdate {
		return nil, false, nil
	}
	return FlowSpecFromUpdate(decoded.(*Update))
}

// UpdateFromFlowSpec wraps a FlowSpec update as a plain *Update whose
// opaque attributes carry the MP_REACH/MP_UNREACH payload. The result
// travels through every UPDATE path — EncodeUpdate, the live BGP
// sessions, the MRT archive — and FlowSpecFromUpdate recovers it on the
// far side, so FlowSpec needs no parallel transport.
func UpdateFromFlowSpec(u *FlowSpecUpdate) (*Update, error) {
	out := &Update{}
	// mp appends one MP attribute: AFI, SAFI, the type's fixed fields, then
	// the rules' NLRI.
	mp := func(typ byte, rules []*FlowRule, fixed ...byte) error {
		if len(rules) == 0 {
			return nil
		}
		val := append(binary.BigEndian.AppendUint16(nil, AFIIPv4), SAFIFlowSpec)
		val = append(val, fixed...)
		for _, r := range rules {
			enc, err := EncodeFlowRule(r)
			if err != nil {
				return err
			}
			val = append(val, enc...)
		}
		out.Attrs.Unknown = append(out.Attrs.Unknown, RawAttr{Flags: flagOptional, Type: typ, Value: val})
		return nil
	}
	if err := mp(AttrMPUnreach, u.Withdrawn); err != nil {
		return nil, err
	}
	// MP_REACH: zero-length next hop (RFC 8955 §5), reserved byte.
	if err := mp(AttrMPReach, u.Announced, 0, 0); err != nil {
		return nil, err
	}
	if len(out.Attrs.Unknown) == 0 {
		return nil, fmt.Errorf("bgp: flowspec update with no rules")
	}
	if len(u.ExtComms) > 0 {
		var val []byte
		for _, e := range u.ExtComms {
			val = append(val, e[:]...)
		}
		out.Attrs.Unknown = append(out.Attrs.Unknown, RawAttr{Flags: flagOptional | flagTransitive, Type: AttrExtComms, Value: val})
	}
	return out, nil
}

// FlowSpecFromUpdate extracts the FlowSpec content of a decoded UPDATE:
// the MP_REACH/MP_UNREACH attributes with AFI 1 / SAFI 133 plus the
// extended-community actions. ok is false when the update carries no
// FlowSpec attributes (a regular IPv4-unicast update).
func FlowSpecFromUpdate(upd *Update) (*FlowSpecUpdate, bool, error) {
	out := &FlowSpecUpdate{}
	found := false
	for _, raw := range upd.Attrs.Unknown {
		var err error
		switch raw.Type {
		case AttrMPReach:
			if len(raw.Value) < 5 || binary.BigEndian.Uint16(raw.Value) != AFIIPv4 || raw.Value[2] != SAFIFlowSpec {
				continue
			}
			nhLen := int(raw.Value[3])
			if len(raw.Value) < 5+nhLen {
				return nil, false, fmt.Errorf("bgp: truncated MP_REACH next hop")
			}
			if out.Announced, err = appendFlowRules(out.Announced, raw.Value[5+nhLen:]); err != nil {
				return nil, false, err
			}
			found = true
		case AttrMPUnreach:
			if len(raw.Value) < 3 || binary.BigEndian.Uint16(raw.Value) != AFIIPv4 || raw.Value[2] != SAFIFlowSpec {
				continue
			}
			if out.Withdrawn, err = appendFlowRules(out.Withdrawn, raw.Value[3:]); err != nil {
				return nil, false, err
			}
			found = true
		case AttrExtComms:
			if len(raw.Value)%8 != 0 {
				return nil, false, fmt.Errorf("bgp: extended communities length %d", len(raw.Value))
			}
			for i := 0; i+8 <= len(raw.Value); i += 8 {
				var e ExtCommunity
				copy(e[:], raw.Value[i:i+8])
				out.ExtComms = append(out.ExtComms, e)
			}
		}
	}
	if !found {
		return nil, false, nil
	}
	return out, true, nil
}

// appendFlowRules decodes a run of FlowSpec NLRI entries onto rules.
func appendFlowRules(rules []*FlowRule, body []byte) ([]*FlowRule, error) {
	for len(body) > 0 {
		r, n, err := DecodeFlowRule(body)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
		body = body[n:]
	}
	return rules, nil
}
