package ipfix

import (
	"bufio"
	"io"
)

// Writer streams FlowRecords as IPFIX messages. The template set is
// emitted in the first message and re-emitted every templateResendEvery
// messages, matching exporter practice for datagram transports and making
// the file stream seekable-in-the-large (a reader starting at most
// templateResendEvery messages in will find a template).
type Writer struct {
	w       *bufio.Writer
	enc     *MsgEncoder
	msgs    int
	pending []FlowRecord
	// BatchSize is the number of records accumulated per message,
	// clamped to between one and what a message holds beside the template
	// set. Defaults to 1024; tests may lower it.
	BatchSize int
}

const templateResendEvery = 512

// NewWriter creates a Writer exporting on observation domain id domain.
func NewWriter(w io.Writer, domain uint32) *Writer {
	return &Writer{
		w:         bufio.NewWriterSize(w, 1<<16),
		enc:       NewMsgEncoder(domain),
		BatchSize: 1024,
	}
}

// WriteBatch queues every record of b for export, emitting full messages
// as the pending buffer fills. It borrows b per the RecordBatch contract.
func (w *Writer) WriteBatch(b *RecordBatch) error {
	limit := min(max(w.BatchSize, 1), MaxRecords(maxMsgLen, true))
	recs := b.Recs
	for len(recs) > 0 {
		room := limit - len(w.pending)
		if room > len(recs) {
			room = len(recs)
		}
		w.pending = append(w.pending, recs[:room]...)
		recs = recs[room:]
		if len(w.pending) >= limit {
			if err := w.emit(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush writes any pending records and flushes the underlying buffer.
func (w *Writer) Flush() error {
	if len(w.pending) > 0 {
		if err := w.emit(); err != nil {
			return err
		}
	}
	return w.w.Flush()
}

// emit writes one IPFIX message containing (optionally) the template set
// and all pending data records — at least one, whose start time stamps
// the message, so an archive's bytes never depend on the wall clock.
func (w *Writer) emit() error {
	includeTemplate := w.msgs%templateResendEvery == 0
	w.msgs++

	exportTime := uint32(w.pending[len(w.pending)-1].Start.Unix())
	b := w.enc.Encode(w.pending, includeTemplate, exportTime)
	w.pending = w.pending[:0]
	_, err := w.w.Write(b)
	return err
}
