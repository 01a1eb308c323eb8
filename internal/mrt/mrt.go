// Package mrt implements the MRT routing information export format
// (RFC 6396) for the record types a route-server BGP collector produces:
// BGP4MP_ET records carrying BGP4MP_MESSAGE_AS4 payloads with microsecond
// timestamps.
//
// The simulator archives every BGP message that crosses the route server
// as an MRT stream, and the analysis pipeline consumes that stream — the
// same division of labour as at the IXP under study, where the collector
// and the analysis are separate systems joined by dump files.
package mrt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/bgp"
)

// MRT type and subtype codes (RFC 6396 §4).
const (
	typeBGP4MP   = 16
	typeBGP4MPET = 17 // extended (microsecond) timestamp variant

	subtypeMessageAS4 = 4 // BGP4MP_MESSAGE_AS4
)

// afiIPv4 is the IANA address family identifier for IPv4.
const afiIPv4 = 1

// Record is one BGP4MP_MESSAGE_AS4 record: a timestamped BGP message
// exchanged between a peer and the collector (the route server).
type Record struct {
	// Timestamp of the message at the collector. Stored with microsecond
	// resolution on the wire.
	Timestamp time.Time
	// PeerAS is the AS of the route-server client that sent or received
	// the message.
	PeerAS uint32
	// LocalAS is the route server's AS.
	LocalAS uint32
	// PeerIP and LocalIP are the session endpoint addresses (host order).
	PeerIP, LocalIP uint32
	// Message is the raw BGP message, header included.
	Message []byte
}

// DecodeUpdate decodes the embedded BGP message if it is an UPDATE.
// It returns (nil, false, nil) for other message types (KEEPALIVE etc.).
func (r *Record) DecodeUpdate() (*bgp.Update, bool, error) {
	typ, msg, _, err := bgp.DecodeMessage(r.Message)
	if err != nil {
		return nil, false, err
	}
	if typ != bgp.MsgUpdate {
		return nil, false, nil
	}
	return msg.(*bgp.Update), true, nil
}

// Writer streams MRT records to an io.Writer. Writers buffer internally;
// call Flush when done.
type Writer struct {
	w   *bufio.Writer
	buf []byte
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

// WriteRecord appends one record to the stream.
func (w *Writer) WriteRecord(r *Record) error {
	if len(r.Message) < 19 {
		return fmt.Errorf("mrt: BGP message too short (%d bytes)", len(r.Message))
	}
	body := 4 + 4 + 2 + 2 + 4 + 4 + len(r.Message) // AS4 message header + payload
	total := 12 + 4 + body                         // MRT header + microseconds + body

	w.buf = w.buf[:0]
	if cap(w.buf) < total {
		w.buf = make([]byte, 0, total)
	}
	b := w.buf
	ts := r.Timestamp
	b = binary.BigEndian.AppendUint32(b, uint32(ts.Unix()))
	b = binary.BigEndian.AppendUint16(b, typeBGP4MPET)
	b = binary.BigEndian.AppendUint16(b, subtypeMessageAS4)
	// For the ET variant the length field covers the microsecond field
	// plus the message body (RFC 6396 §3).
	b = binary.BigEndian.AppendUint32(b, uint32(4+body))
	b = binary.BigEndian.AppendUint32(b, uint32(ts.Nanosecond()/1000))
	b = binary.BigEndian.AppendUint32(b, r.PeerAS)
	b = binary.BigEndian.AppendUint32(b, r.LocalAS)
	b = binary.BigEndian.AppendUint16(b, 0) // interface index
	b = binary.BigEndian.AppendUint16(b, afiIPv4)
	b = binary.BigEndian.AppendUint32(b, r.PeerIP)
	b = binary.BigEndian.AppendUint32(b, r.LocalIP)
	b = append(b, r.Message...)
	w.buf = b

	_, err := w.w.Write(b)
	return err
}

// Flush writes any buffered data to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader parses an MRT stream produced by Writer (and, more generally,
// any stream of BGP4MP/BGP4MP_ET MESSAGE_AS4 records over IPv4 sessions).
// Records of other types are skipped silently, mirroring how analysis
// tooling treats mixed collector dumps.
// Decode errors are wrapped with the zero-based record index and the byte
// offset of the offending record in the stream, so a truncated or corrupt
// dump points at the damage rather than surfacing a bare
// io.ErrUnexpectedEOF.
type Reader struct {
	r      *bufio.Reader
	hdr    [12]byte
	offset int64 // stream offset of the next unread byte
	index  int   // records (of any type) fully consumed so far
}

// NewReader returns a Reader consuming from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16)}
}

// recErr decorates a decode error with the index and stream offset of the
// record being read.
func (rd *Reader) recErr(recStart int64, err error) error {
	return fmt.Errorf("mrt: record %d at offset %d: %w", rd.index, recStart, err)
}

// Next returns the next MESSAGE_AS4 record, or io.EOF at end of stream.
func (rd *Reader) Next() (*Record, error) {
	for {
		recStart := rd.offset
		n, err := io.ReadFull(rd.r, rd.hdr[:])
		rd.offset += int64(n)
		if err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return nil, rd.recErr(recStart, fmt.Errorf("truncated record header: %d of %d bytes: %w", n, len(rd.hdr), err))
			}
			return nil, err
		}
		seconds := binary.BigEndian.Uint32(rd.hdr[0:4])
		typ := binary.BigEndian.Uint16(rd.hdr[4:6])
		subtype := binary.BigEndian.Uint16(rd.hdr[6:8])
		length := binary.BigEndian.Uint32(rd.hdr[8:12])
		if length > 1<<20 {
			return nil, rd.recErr(recStart, fmt.Errorf("implausible record length %d", length))
		}
		body := make([]byte, length)
		n, err = io.ReadFull(rd.r, body)
		rd.offset += int64(n)
		if err != nil {
			// A clean EOF here still means truncation: the header promised
			// length more bytes.
			if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				err = io.ErrUnexpectedEOF
			}
			return nil, rd.recErr(recStart, fmt.Errorf("truncated record body: %d of %d bytes: %w", n, length, err))
		}

		isET := typ == typeBGP4MPET
		if (typ != typeBGP4MP && !isET) || subtype != subtypeMessageAS4 {
			rd.index++
			continue // skip record types we do not interpret
		}

		micros := uint32(0)
		if isET {
			if len(body) < 4 {
				return nil, rd.recErr(recStart, errors.New("ET record missing microsecond field"))
			}
			micros = binary.BigEndian.Uint32(body[0:4])
			body = body[4:]
		}
		if len(body) < 20 {
			return nil, rd.recErr(recStart, fmt.Errorf("MESSAGE_AS4 body too short (%d bytes)", len(body)))
		}
		afi := binary.BigEndian.Uint16(body[10:12])
		if afi != afiIPv4 {
			rd.index++
			continue // IPv6 session records are out of scope
		}
		rec := &Record{
			Timestamp: time.Unix(int64(seconds), int64(micros)*1000).UTC(),
			PeerAS:    binary.BigEndian.Uint32(body[0:4]),
			LocalAS:   binary.BigEndian.Uint32(body[4:8]),
			PeerIP:    binary.BigEndian.Uint32(body[12:16]),
			LocalIP:   binary.BigEndian.Uint32(body[16:20]),
			Message:   body[20:],
		}
		if len(rec.Message) < 19 {
			return nil, rd.recErr(recStart, fmt.Errorf("embedded BGP message too short (%d bytes)", len(rec.Message)))
		}
		rd.index++
		return rec, nil
	}
}

// ReadAll drains the stream into a slice. Intended for tests and small
// datasets; the analysis pipeline streams with Next.
func ReadAll(r io.Reader) ([]*Record, error) {
	rd := NewReader(r)
	var out []*Record
	for {
		rec, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}
