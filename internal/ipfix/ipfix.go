// Package ipfix implements an RFC 7011 IPFIX encoder and decoder for the
// flow records exported by the IXP's edge samplers: one record per sampled
// packet, carrying layer-2 addresses (which identify the member router and
// the blackhole next hop), the IPv4 five-tuple, and delta counters.
//
// The encoder emits standards-shaped messages — version 10 header, a
// template set describing the record layout with IANA information
// elements, then data sets referencing the template. The decoder is
// template-driven: it learns record layouts from template sets in the
// stream and maps the information elements it knows onto FlowRecord
// fields, skipping unknown elements by their declared length. A stream
// produced by any exporter using the same information elements therefore
// decodes correctly even if field order differs. Data sets of a template
// that is exactly the encoder's layout, the one every exporter here
// writes, decode at constant offsets instead, to the same records.
package ipfix

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"
)

// MAC is a 48-bit layer-2 address stored in the low bits of a uint64,
// comparable and usable as a map key.
type MAC uint64

// String renders the conventional colon-separated hex form.
func (m MAC) String() string {
	b := make([]byte, 0, 17)
	for i := 5; i >= 0; i-- {
		v := byte(m >> (8 * i))
		const hexdigits = "0123456789abcdef"
		b = append(b, hexdigits[v>>4], hexdigits[v&0xf])
		if i > 0 {
			b = append(b, ':')
		}
	}
	return string(b)
}

// FlowRecord is the canonical sampled-packet record used throughout the
// repository: produced by the fabric sampler, serialized via this package,
// and consumed by the analysis pipeline.
type FlowRecord struct {
	// Start is the observation timestamp, millisecond precision on the
	// wire (flowStartMilliseconds).
	Start time.Time
	// SrcMAC identifies the ingress member router; DstMAC is either the
	// egress member router or the blackhole MAC when the packet was
	// dropped by the RTBH service.
	SrcMAC, DstMAC MAC
	// SrcIP and DstIP are IPv4 addresses in host byte order.
	SrcIP, DstIP uint32
	// SrcPort and DstPort are transport ports (0 for ICMP).
	SrcPort, DstPort uint16
	// Proto is the IP protocol number (6 TCP, 17 UDP, 1 ICMP, ...).
	Proto uint8
	// Packets and Bytes are the delta counts represented by this sample.
	// With 1:N packet sampling each record represents one sampled packet
	// (Packets == 1) and its size in Bytes.
	Packets, Bytes uint64
}

// IANA information element identifiers used by the template.
const (
	ieOctetDeltaCount       = 1
	iePacketDeltaCount      = 2
	ieProtocolIdentifier    = 4
	ieSourceTransportPort   = 7
	ieSourceIPv4Address     = 8
	ieDestTransportPort     = 11
	ieDestIPv4Address       = 12
	ieSourceMacAddress      = 56
	ieDestMacAddress        = 80
	ieFlowStartMilliseconds = 152
)

// templateField describes one information element in a template.
type templateField struct {
	id     uint16
	length uint16
}

// flowTemplate is the fixed layout the encoder uses.
var flowTemplate = []templateField{
	{ieFlowStartMilliseconds, 8},
	{ieSourceMacAddress, 6},
	{ieDestMacAddress, 6},
	{ieSourceIPv4Address, 4},
	{ieDestIPv4Address, 4},
	{ieSourceTransportPort, 2},
	{ieDestTransportPort, 2},
	{ieProtocolIdentifier, 1},
	{iePacketDeltaCount, 8},
	{ieOctetDeltaCount, 8},
}

// knownElementLen gives the only wire length the decoder accepts for each
// element it maps onto FlowRecord fields (RFC 7011 reduced-size encoding
// is not implemented). Templates declaring other lengths are rejected at
// parse time so template.decode can index field bytes without bounds
// checks per record.
var knownElementLen = func() map[uint16]uint16 {
	m := make(map[uint16]uint16, len(flowTemplate))
	for _, f := range flowTemplate {
		m[f.id] = f.length
	}
	return m
}()

const (
	ipfixVersion     = 10
	templateSetID    = 2
	flowTemplateID   = 256
	msgHeaderLen     = 16
	setHeaderLen     = 4
	flowRecordLen    = 8 + 6 + 6 + 4 + 4 + 2 + 2 + 1 + 8 + 8 // 49 bytes
	maxMsgLen        = 65535
	maxRecordsPerMsg = (maxMsgLen - msgHeaderLen - setHeaderLen) / flowRecordLen
)

func appendMAC(dst []byte, m MAC) []byte {
	return append(dst,
		byte(m>>40), byte(m>>32), byte(m>>24),
		byte(m>>16), byte(m>>8), byte(m))
}

func decodeMAC(b []byte) MAC {
	return MAC(uint64(b[0])<<40 | uint64(b[1])<<32 | uint64(b[2])<<24 |
		uint64(b[3])<<16 | uint64(b[4])<<8 | uint64(b[5]))
}

// appendRecord appends the wire encoding of r per flowTemplate.
func appendRecord(dst []byte, r *FlowRecord) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Start.UnixMilli()))
	dst = appendMAC(dst, r.SrcMAC)
	dst = appendMAC(dst, r.DstMAC)
	dst = binary.BigEndian.AppendUint32(dst, r.SrcIP)
	dst = binary.BigEndian.AppendUint32(dst, r.DstIP)
	dst = binary.BigEndian.AppendUint16(dst, r.SrcPort)
	dst = binary.BigEndian.AppendUint16(dst, r.DstPort)
	dst = append(dst, r.Proto)
	dst = binary.BigEndian.AppendUint64(dst, r.Packets)
	dst = binary.BigEndian.AppendUint64(dst, r.Bytes)
	return dst
}

// template is a decoder-side learned record layout. canonical marks a
// layout that is exactly flowTemplate: its data sets decode at constant
// offsets (decodeCanonical), any other layout's field by field (decode).
type template struct {
	fields    []templateField
	recordLen int
	canonical bool
}

// decodeCanonical appends the records of a data set laid out per
// flowTemplate to dst, writing them straight into its spare capacity.
// Trailing bytes shorter than one record are padding (RFC 7011 §3.3.1).
// Each record is what template.decode makes of it, field for field
// (FuzzCanonicalDecodeMatchesTemplate). Every field is stored in place:
// assigning a FlowRecord literal instead ran BenchmarkNextBatch 45 %
// slower.
func decodeCanonical(b []byte, dst []FlowRecord) []FlowRecord {
	n := len(b) / flowRecordLen
	dst = slices.Grow(dst, n)
	out := dst[len(dst) : len(dst)+n]
	for i := range out {
		v := (*[flowRecordLen]byte)(b[i*flowRecordLen:])
		r := &out[i]
		r.Start = time.UnixMilli(int64(binary.BigEndian.Uint64(v[0:8]))).UTC()
		r.SrcMAC = MAC(binary.BigEndian.Uint64(v[8:16]) >> 16)
		r.DstMAC = MAC(binary.BigEndian.Uint64(v[14:22]) >> 16)
		r.SrcIP = binary.BigEndian.Uint32(v[20:24])
		r.DstIP = binary.BigEndian.Uint32(v[24:28])
		r.SrcPort = binary.BigEndian.Uint16(v[28:30])
		r.DstPort = binary.BigEndian.Uint16(v[30:32])
		r.Proto = v[32]
		r.Packets = binary.BigEndian.Uint64(v[33:41])
		r.Bytes = binary.BigEndian.Uint64(v[41:49])
	}
	return dst[:len(dst)+n]
}

func (t *template) decode(b []byte, r *FlowRecord) error {
	off := 0
	for _, f := range t.fields {
		v := b[off : off+int(f.length)]
		switch f.id {
		case ieFlowStartMilliseconds:
			if f.length != 8 {
				return fmt.Errorf("flowStartMilliseconds length %d", f.length)
			}
			r.Start = time.UnixMilli(int64(binary.BigEndian.Uint64(v))).UTC()
		case ieSourceMacAddress:
			if f.length != 6 {
				return fmt.Errorf("sourceMacAddress length %d", f.length)
			}
			r.SrcMAC = decodeMAC(v)
		case ieDestMacAddress:
			if f.length != 6 {
				return fmt.Errorf("destinationMacAddress length %d", f.length)
			}
			r.DstMAC = decodeMAC(v)
		case ieSourceIPv4Address:
			r.SrcIP = binary.BigEndian.Uint32(v)
		case ieDestIPv4Address:
			r.DstIP = binary.BigEndian.Uint32(v)
		case ieSourceTransportPort:
			r.SrcPort = binary.BigEndian.Uint16(v)
		case ieDestTransportPort:
			r.DstPort = binary.BigEndian.Uint16(v)
		case ieProtocolIdentifier:
			r.Proto = v[0]
		case iePacketDeltaCount:
			r.Packets = binary.BigEndian.Uint64(v)
		case ieOctetDeltaCount:
			r.Bytes = binary.BigEndian.Uint64(v)
		default:
			// Unknown elements are skipped by declared length.
		}
		off += int(f.length)
	}
	return nil
}
