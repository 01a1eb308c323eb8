package ipfix

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// MsgHeader is the decoded RFC 7011 §3.1 message header. The collector
// uses SeqNum for per-exporter gap (loss) accounting: SeqNum counts data
// records sent before this message, so the expected next value after a
// message carrying n records is SeqNum+n.
type MsgHeader struct {
	Length     uint16
	ExportTime uint32
	SeqNum     uint32
	Domain     uint32
}

// templateSetLen is the encoded size of the template set emitted by
// MsgEncoder: set header, template record header, one (id, length) pair
// per field.
var templateSetLen = setHeaderLen + 4 + 4*len(flowTemplate)

// MsgEncoder builds standalone IPFIX messages. It owns the export
// sequence number (incremented by the record count of each encoded
// message) and reuses an internal buffer, so a single encoder serializes
// one logical export stream. Both the file Writer and the live UDP
// exporter are built on it.
type MsgEncoder struct {
	domain uint32
	seq    uint32
	buf    []byte
}

// NewMsgEncoder returns an encoder exporting on observation domain id
// domain.
func NewMsgEncoder(domain uint32) *MsgEncoder {
	return &MsgEncoder{domain: domain}
}

// SeqNum returns the sequence number the next encoded message will carry
// (the count of data records encoded so far).
func (e *MsgEncoder) SeqNum() uint32 { return e.seq }

// MaxRecords returns how many flow records fit in a message of at most
// budget bytes, optionally alongside the template set. Used by the UDP
// exporter to pack datagrams under the path MTU.
func MaxRecords(budget int, includeTemplate bool) int {
	budget -= msgHeaderLen + setHeaderLen
	if includeTemplate {
		budget -= templateSetLen
	}
	if budget < 0 {
		return 0
	}
	n := budget / flowRecordLen
	if n > maxRecordsPerMsg {
		n = maxRecordsPerMsg
	}
	return n
}

// Encode builds one IPFIX message containing records (and the template
// set when includeTemplate is set), stamped with exportTime. The returned
// slice is valid until the next Encode call. len(records) must not exceed
// maxRecordsPerMsg (the message length field is 16-bit).
func (e *MsgEncoder) Encode(records []FlowRecord, includeTemplate bool, exportTime uint32) []byte {
	b := e.buf[:0]
	// Message header; length patched below.
	b = binary.BigEndian.AppendUint16(b, ipfixVersion)
	b = append(b, 0, 0) // length placeholder
	b = binary.BigEndian.AppendUint32(b, exportTime)
	b = binary.BigEndian.AppendUint32(b, e.seq)
	b = binary.BigEndian.AppendUint32(b, e.domain)

	if includeTemplate {
		// Template set: set id 2, one template record.
		setStart := len(b)
		b = binary.BigEndian.AppendUint16(b, templateSetID)
		b = append(b, 0, 0) // set length placeholder
		b = binary.BigEndian.AppendUint16(b, flowTemplateID)
		b = binary.BigEndian.AppendUint16(b, uint16(len(flowTemplate)))
		for _, f := range flowTemplate {
			b = binary.BigEndian.AppendUint16(b, f.id)
			b = binary.BigEndian.AppendUint16(b, f.length)
		}
		binary.BigEndian.PutUint16(b[setStart+2:], uint16(len(b)-setStart))
	}

	if len(records) > 0 {
		setStart := len(b)
		b = binary.BigEndian.AppendUint16(b, flowTemplateID)
		b = append(b, 0, 0)
		for i := range records {
			b = appendRecord(b, &records[i])
		}
		binary.BigEndian.PutUint16(b[setStart+2:], uint16(len(b)-setStart))
		e.seq += uint32(len(records))
	}

	binary.BigEndian.PutUint16(b[2:4], uint16(len(b)))
	e.buf = b
	return b
}

// MsgDecoder decodes self-contained IPFIX messages — one UDP datagram
// each for the live collector — keeping template state across messages.
// The file Reader shares its set-parsing logic.
type MsgDecoder struct {
	templates map[uint16]*template
}

// NewMsgDecoder returns a decoder with no templates learned yet.
func NewMsgDecoder() *MsgDecoder {
	return &MsgDecoder{templates: make(map[uint16]*template)}
}

// Decode parses one complete message held in b, appends its flow records
// to dst, and returns the extended slice plus the message header. It is
// the datagram-oriented entry point: b must contain exactly one message.
func (d *MsgDecoder) Decode(b []byte, dst []FlowRecord) ([]FlowRecord, MsgHeader, error) {
	var hdr MsgHeader
	if len(b) < msgHeaderLen {
		return dst, hdr, fmt.Errorf("ipfix: short message: %d bytes, header needs %d", len(b), msgHeaderLen)
	}
	version := binary.BigEndian.Uint16(b[0:2])
	if version != ipfixVersion {
		return dst, hdr, fmt.Errorf("ipfix: unsupported version %d", version)
	}
	hdr.Length = binary.BigEndian.Uint16(b[2:4])
	hdr.ExportTime = binary.BigEndian.Uint32(b[4:8])
	hdr.SeqNum = binary.BigEndian.Uint32(b[8:12])
	hdr.Domain = binary.BigEndian.Uint32(b[12:16])
	if int(hdr.Length) != len(b) {
		return dst, hdr, fmt.Errorf("ipfix: message length field %d != datagram size %d", hdr.Length, len(b))
	}
	out, err := d.decodeBody(b[msgHeaderLen:], dst)
	if err != nil {
		err = fmt.Errorf("ipfix: %w", err)
	}
	return out, hdr, err
}

// decodeBody parses the sets in a message body (everything after the
// 16-byte header), appending decoded flow records to dst.
func (d *MsgDecoder) decodeBody(body []byte, dst []FlowRecord) ([]FlowRecord, error) {
	setIndex := 0
	for len(body) > 0 {
		if len(body) < setHeaderLen {
			return dst, fmt.Errorf("set %d: truncated set header (%d trailing bytes)", setIndex, len(body))
		}
		setID := binary.BigEndian.Uint16(body[0:2])
		setLen := int(binary.BigEndian.Uint16(body[2:4]))
		if setLen < setHeaderLen || setLen > len(body) {
			return dst, fmt.Errorf("set %d: invalid set length %d (remaining %d)", setIndex, setLen, len(body))
		}
		content := body[setHeaderLen:setLen]
		var err error
		switch {
		case setID == templateSetID:
			err = d.parseTemplateSet(content)
		case setID >= 256:
			dst, err = d.parseDataSet(setID, content, dst)
		default:
			// Options template sets (id 3) and reserved ids are skipped.
		}
		if err != nil {
			return dst, fmt.Errorf("set %d: %w", setIndex, err)
		}
		body = body[setLen:]
		setIndex++
	}
	return dst, nil
}

func (d *MsgDecoder) parseTemplateSet(b []byte) error {
	for len(b) >= 4 {
		id := binary.BigEndian.Uint16(b[0:2])
		count := int(binary.BigEndian.Uint16(b[2:4]))
		b = b[4:]
		if id < 256 {
			return fmt.Errorf("template id %d below 256", id)
		}
		if len(b) < 4*count {
			return fmt.Errorf("template %d: truncated record: %d field specs declared, %d bytes left", id, count, len(b))
		}
		t := &template{fields: make([]templateField, 0, count)}
		for i := 0; i < count; i++ {
			fid := binary.BigEndian.Uint16(b[4*i:])
			flen := binary.BigEndian.Uint16(b[4*i+2:])
			if fid&0x8000 != 0 {
				return fmt.Errorf("enterprise-specific element %d not supported", fid&0x7fff)
			}
			if flen == 0xffff {
				return fmt.Errorf("variable-length element %d not supported", fid)
			}
			if want, known := knownElementLen[fid]; known && flen != want {
				return fmt.Errorf("element %d length %d, want %d (reduced-size encoding not supported)", fid, flen, want)
			}
			t.fields = append(t.fields, templateField{id: fid, length: flen})
			t.recordLen += int(flen)
		}
		if t.recordLen == 0 {
			return fmt.Errorf("template %d with zero record length", id)
		}
		t.canonical = slices.Equal(t.fields, flowTemplate)
		d.templates[id] = t
		b = b[4*count:]
	}
	return nil
}

func (d *MsgDecoder) parseDataSet(id uint16, b []byte, dst []FlowRecord) ([]FlowRecord, error) {
	t, ok := d.templates[id]
	if !ok {
		return dst, fmt.Errorf("data set references unknown template %d", id)
	}
	if t.canonical {
		return decodeCanonical(b, dst), nil
	}
	// Trailing bytes shorter than one record are padding (RFC 7011 §3.3.1).
	recIndex := 0
	for len(b) >= t.recordLen {
		var rec FlowRecord
		if err := t.decode(b[:t.recordLen], &rec); err != nil {
			return dst, fmt.Errorf("record %d: %w", recIndex, err)
		}
		dst = append(dst, rec)
		b = b[t.recordLen:]
		recIndex++
	}
	return dst, nil
}
