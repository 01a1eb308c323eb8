package bgp

import (
	"encoding/binary"
	"fmt"
)

// Message type codes (RFC 4271 §4.1).
const (
	MsgOpen         = 1
	MsgUpdate       = 2
	MsgNotification = 3
	MsgKeepalive    = 4
)

// Wire-format size constraints (RFC 4271).
const (
	headerLen  = 19   // 16-byte marker + 2-byte length + 1-byte type
	maxMsgLen  = 4096 // maximum BGP message size without extended-message cap.
	minMsgLen  = headerLen
	openMinLen = headerLen + 10
)

// Update is a decoded BGP UPDATE message: withdrawn prefixes, path
// attributes, and announced prefixes (NLRI). Either list may be empty;
// an UPDATE with only withdrawals carries no attributes.
type Update struct {
	Withdrawn []Prefix
	Attrs     PathAttrs
	NLRI      []Prefix
}

// Open is a minimal decoded OPEN message, sufficient for the route-server
// session handshake in the simulator.
type Open struct {
	Version  uint8
	ASN      uint16 // AS_TRANS (23456) when the real ASN needs 4 bytes
	HoldTime uint16
	RouterID uint32
}

// Notification is a decoded NOTIFICATION message.
type Notification struct {
	Code    uint8
	Subcode uint8
	Data    []byte
}

// marker is the all-ones 16-byte header marker required by RFC 4271 for
// sessions without authentication.
var marker = [16]byte{
	0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
	0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
}

func appendHeader(dst []byte, msgType byte) []byte {
	dst = append(dst, marker[:]...)
	dst = append(dst, 0, 0) // length placeholder
	return append(dst, msgType)
}

func patchLength(b []byte) ([]byte, error) {
	if len(b) > maxMsgLen {
		return nil, fmt.Errorf("bgp: message length %d exceeds %d", len(b), maxMsgLen)
	}
	binary.BigEndian.PutUint16(b[16:18], uint16(len(b)))
	return b, nil
}

// EncodeUpdate serializes u into RFC 4271 wire format.
func EncodeUpdate(u *Update) ([]byte, error) {
	b := appendHeader(make([]byte, 0, 128), MsgUpdate)

	// Withdrawn routes.
	wStart := len(b)
	b = append(b, 0, 0) // withdrawn length placeholder
	for _, p := range u.Withdrawn {
		if !p.IsValid() {
			return nil, fmt.Errorf("bgp: invalid withdrawn prefix %v", p)
		}
		b = appendNLRI(b, p)
	}
	binary.BigEndian.PutUint16(b[wStart:], uint16(len(b)-wStart-2))

	// Path attributes. An UPDATE that only withdraws IPv4-unicast routes
	// must not carry any — unless opaque attributes are present, which is
	// how multiprotocol payloads (FlowSpec MP_REACH/MP_UNREACH) travel in
	// an UPDATE without IPv4 NLRI.
	aStart := len(b)
	b = append(b, 0, 0) // attribute length placeholder
	if len(u.NLRI) > 0 || len(u.Attrs.Unknown) > 0 {
		b = u.Attrs.encode(b)
	}
	binary.BigEndian.PutUint16(b[aStart:], uint16(len(b)-aStart-2))

	for _, p := range u.NLRI {
		if !p.IsValid() {
			return nil, fmt.Errorf("bgp: invalid NLRI prefix %v", p)
		}
		b = appendNLRI(b, p)
	}
	return patchLength(b)
}

// DecodeUpdate parses the body of an UPDATE (the bytes after the common
// header). Use DecodeMessage for full messages.
func DecodeUpdate(body []byte) (*Update, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("bgp: UPDATE body too short (%d bytes)", len(body))
	}
	u := &Update{}

	wLen := int(binary.BigEndian.Uint16(body[0:2]))
	if 2+wLen > len(body) {
		return nil, fmt.Errorf("bgp: withdrawn length %d exceeds body", wLen)
	}
	wb := body[2 : 2+wLen]
	for len(wb) > 0 {
		p, n, err := decodeNLRI(wb)
		if err != nil {
			return nil, fmt.Errorf("bgp: withdrawn routes: %w", err)
		}
		u.Withdrawn = append(u.Withdrawn, p)
		wb = wb[n:]
	}

	rest := body[2+wLen:]
	if len(rest) < 2 {
		return nil, fmt.Errorf("bgp: UPDATE missing attribute length")
	}
	aLen := int(binary.BigEndian.Uint16(rest[0:2]))
	if 2+aLen > len(rest) {
		return nil, fmt.Errorf("bgp: attribute length %d exceeds body", aLen)
	}
	if aLen > 0 {
		attrs, err := decodePathAttrs(rest[2 : 2+aLen])
		if err != nil {
			return nil, err
		}
		u.Attrs = attrs
	}

	nb := rest[2+aLen:]
	for len(nb) > 0 {
		p, n, err := decodeNLRI(nb)
		if err != nil {
			return nil, fmt.Errorf("bgp: NLRI: %w", err)
		}
		u.NLRI = append(u.NLRI, p)
		nb = nb[n:]
	}
	if len(u.NLRI) > 0 && len(u.Attrs.ASPath) == 0 && u.Attrs.NextHop == 0 {
		return nil, fmt.Errorf("bgp: UPDATE announces routes without mandatory attributes")
	}
	return u, nil
}

// EncodeOpen serializes an OPEN message.
func EncodeOpen(o *Open) ([]byte, error) {
	b := appendHeader(make([]byte, 0, 32), MsgOpen)
	b = append(b, o.Version)
	b = binary.BigEndian.AppendUint16(b, o.ASN)
	b = binary.BigEndian.AppendUint16(b, o.HoldTime)
	b = binary.BigEndian.AppendUint32(b, o.RouterID)
	b = append(b, 0) // no optional parameters
	return patchLength(b)
}

// EncodeKeepalive serializes a KEEPALIVE message.
func EncodeKeepalive() []byte {
	b := appendHeader(make([]byte, 0, headerLen), MsgKeepalive)
	b, _ = patchLength(b)
	return b
}

// EncodeNotification serializes a NOTIFICATION message.
func EncodeNotification(n *Notification) ([]byte, error) {
	b := appendHeader(make([]byte, 0, 32), MsgNotification)
	b = append(b, n.Code, n.Subcode)
	b = append(b, n.Data...)
	return patchLength(b)
}

// DecodeMessage parses one complete BGP message from b and returns the
// message type, the decoded message (*Update, *Open, *Notification, or nil
// for KEEPALIVE), and the total bytes consumed.
func DecodeMessage(b []byte) (msgType byte, msg any, n int, err error) {
	if len(b) < headerLen {
		return 0, nil, 0, fmt.Errorf("bgp: short header (%d bytes)", len(b))
	}
	for i := 0; i < 16; i++ {
		if b[i] != 0xff {
			return 0, nil, 0, fmt.Errorf("bgp: bad marker at byte %d", i)
		}
	}
	length := int(binary.BigEndian.Uint16(b[16:18]))
	msgType = b[18]
	if length < minMsgLen || length > maxMsgLen {
		return 0, nil, 0, fmt.Errorf("bgp: invalid message length %d", length)
	}
	if len(b) < length {
		return 0, nil, 0, fmt.Errorf("bgp: truncated message (have %d, want %d)", len(b), length)
	}
	body := b[headerLen:length]
	switch msgType {
	case MsgUpdate:
		u, err := DecodeUpdate(body)
		if err != nil {
			return msgType, nil, 0, err
		}
		return msgType, u, length, nil
	case MsgOpen:
		if len(body) < 10 {
			return msgType, nil, 0, fmt.Errorf("bgp: OPEN body too short")
		}
		o := &Open{
			Version:  body[0],
			ASN:      binary.BigEndian.Uint16(body[1:3]),
			HoldTime: binary.BigEndian.Uint16(body[3:5]),
			RouterID: binary.BigEndian.Uint32(body[5:9]),
		}
		return msgType, o, length, nil
	case MsgKeepalive:
		if length != headerLen {
			return msgType, nil, 0, fmt.Errorf("bgp: KEEPALIVE with body")
		}
		return msgType, nil, length, nil
	case MsgNotification:
		if len(body) < 2 {
			return msgType, nil, 0, fmt.Errorf("bgp: NOTIFICATION body too short")
		}
		nt := &Notification{Code: body[0], Subcode: body[1], Data: append([]byte(nil), body[2:]...)}
		return msgType, nt, length, nil
	default:
		return msgType, nil, 0, fmt.Errorf("bgp: unknown message type %d", msgType)
	}
}
