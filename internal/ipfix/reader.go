package ipfix

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Reader decodes an IPFIX stream into FlowRecords. It learns templates
// from template sets as they appear and decodes data sets against them;
// data sets whose template has not been seen yet are an error for file
// streams (unlike UDP export, files carry templates in-band and in order).
//
// Decode errors are wrapped with the zero-based message index and the
// byte offset of that message in the stream, so a corrupt file points at
// the damage rather than a bare io.ErrUnexpectedEOF.
type Reader struct {
	r        *bufio.Reader
	dec      *MsgDecoder
	hdr      [msgHeaderLen]byte
	body     []byte
	offset   int64 // stream offset of the next unread byte
	msgIndex int   // messages fully consumed so far
}

// NewReader returns a Reader consuming from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{
		r:   bufio.NewReaderSize(r, 1<<16),
		dec: NewMsgDecoder(),
	}
}

// NextBatch decodes the flow records of the next non-empty message into
// b, replacing its contents, and returns io.EOF at end of stream. The
// caller owns b and may reuse it across calls; backing storage grows once
// to a full message and is then reused, so steady-state decoding does not
// allocate per record. On error b is left empty.
func (rd *Reader) NextBatch(b *RecordBatch) error {
	b.Recs = b.Recs[:0]
	for len(b.Recs) == 0 {
		recs, err := rd.readMessage(b.Recs)
		if err != nil {
			return err
		}
		b.Recs = recs
	}
	return nil
}

// msgErr decorates a decode error with the index and stream offset of the
// message being read.
func (rd *Reader) msgErr(msgStart int64, err error) error {
	return fmt.Errorf("ipfix: message %d at offset %d: %w", rd.msgIndex, msgStart, err)
}

// readMessage reads one message and appends its flow records to dst.
func (rd *Reader) readMessage(dst []FlowRecord) ([]FlowRecord, error) {
	msgStart := rd.offset
	n, err := io.ReadFull(rd.r, rd.hdr[:])
	rd.offset += int64(n)
	if err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return dst, rd.msgErr(msgStart, fmt.Errorf("truncated message header: %d of %d bytes: %w", n, msgHeaderLen, err))
		}
		return dst, err
	}
	version := binary.BigEndian.Uint16(rd.hdr[0:2])
	if version != ipfixVersion {
		return dst, rd.msgErr(msgStart, fmt.Errorf("unsupported version %d", version))
	}
	length := int(binary.BigEndian.Uint16(rd.hdr[2:4]))
	if length < msgHeaderLen {
		return dst, rd.msgErr(msgStart, fmt.Errorf("message length %d below header size", length))
	}
	bodyLen := length - msgHeaderLen
	if cap(rd.body) < bodyLen {
		rd.body = make([]byte, bodyLen)
	}
	body := rd.body[:bodyLen]
	n, err = io.ReadFull(rd.r, body)
	rd.offset += int64(n)
	if err != nil {
		// A clean EOF here still means truncation: the header promised
		// bodyLen more bytes.
		if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			err = io.ErrUnexpectedEOF
		}
		return dst, rd.msgErr(msgStart, fmt.Errorf("truncated message body: %d of %d bytes: %w", n, bodyLen, err))
	}

	dst, err = rd.dec.decodeBody(body, dst)
	if err != nil {
		return dst, rd.msgErr(msgStart, err)
	}
	rd.msgIndex++
	return dst, nil
}

// ReadAll drains the stream. Intended for tests and small datasets.
func ReadAll(r io.Reader) ([]FlowRecord, error) {
	rd := NewReader(r)
	var out []FlowRecord
	var b RecordBatch
	for {
		err := rd.NextBatch(&b)
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, b.Recs...)
	}
}
