package ipfix

import (
	"bufio"
	"io"
)

// Packer cuts a record stream into IPFIX messages: Limit records a
// message, the template set in every TemplateEvery-th message starting
// with the first, each message stamped with the start time of its last
// record — so the bytes never depend on the wall clock, nor on how the
// stream was cut into batches — and handed to send. The file Writer and
// the live UDP exporter differ only in the two numbers and in send.
type Packer struct {
	// Limit is the number of records a full message holds; at most
	// MaxRecords of the transport's message size.
	Limit int
	// TemplateEvery is the template resend period in messages.
	TemplateEvery int

	enc     *MsgEncoder
	send    func(msg []byte, records int, exportTime uint32) error
	pending []FlowRecord
	msgs    int
}

// NewPacker returns a packer encoding through enc. send receives every
// message with its record count and export time; msg is valid until the
// next one is encoded.
func NewPacker(enc *MsgEncoder, limit, templateEvery int, send func(msg []byte, records int, exportTime uint32) error) *Packer {
	return &Packer{Limit: limit, TemplateEvery: templateEvery, enc: enc, send: send}
}

// Pack queues recs, sending a message whenever Limit records are
// pending. The records are copied: the caller keeps recs.
func (p *Packer) Pack(recs []FlowRecord) error {
	for len(recs) > 0 {
		room := min(p.Limit-len(p.pending), len(recs))
		p.pending = append(p.pending, recs[:room]...)
		recs = recs[room:]
		if len(p.pending) >= p.Limit {
			if err := p.Flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush sends the pending records, if any, as one message.
func (p *Packer) Flush() error {
	if len(p.pending) == 0 {
		return nil
	}
	includeTemplate := p.msgs%p.TemplateEvery == 0
	p.msgs++
	exportTime := uint32(p.pending[len(p.pending)-1].Start.Unix())
	msg := p.enc.Encode(p.pending, includeTemplate, exportTime)
	n := len(p.pending)
	p.pending = p.pending[:0]
	return p.send(msg, n, exportTime)
}

// Writer streams FlowRecords as IPFIX messages. The template set is
// emitted in the first message and re-emitted every templateResendEvery
// messages, matching exporter practice for datagram transports and making
// the file stream seekable-in-the-large (a reader starting at most
// templateResendEvery messages in will find a template).
type Writer struct {
	w *bufio.Writer
	p *Packer
	// BatchSize is the number of records accumulated per message,
	// clamped to between one and what a message holds beside the template
	// set. Defaults to 1024; tests may lower it.
	BatchSize int
}

const templateResendEvery = 512

// NewWriter creates a Writer exporting on observation domain id domain.
func NewWriter(w io.Writer, domain uint32) *Writer {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &Writer{
		w: bw,
		// The limit follows BatchSize, which callers may change: WriteBatch sets it.
		p: NewPacker(NewMsgEncoder(domain), 0, templateResendEvery, func(msg []byte, _ int, _ uint32) error {
			_, err := bw.Write(msg)
			return err
		}),
		BatchSize: 1024,
	}
}

// WriteBatch queues every record of b for export, emitting full messages
// as the pending buffer fills. It borrows b per the RecordBatch contract.
func (w *Writer) WriteBatch(b *RecordBatch) error {
	w.p.Limit = min(max(w.BatchSize, 1), MaxRecords(maxMsgLen, true))
	return w.p.Pack(b.Recs)
}

// Flush writes any pending records and flushes the underlying buffer.
func (w *Writer) Flush() error {
	if err := w.p.Flush(); err != nil {
		return err
	}
	return w.w.Flush()
}
