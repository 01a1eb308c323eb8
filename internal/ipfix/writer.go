package ipfix

import (
	"bufio"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/obs"
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
	// Wait, if set, is called with each message's record count before
	// the message is encoded, so it may block (the live exporter waits
	// for collector credit there) or send messages of its own through
	// the same encoder. An error leaves the records pending.
	Wait func(records int) error

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
	if p.Wait != nil {
		if err := p.Wait(len(p.pending)); err != nil {
			return err
		}
	}
	recs := p.pending
	p.pending = p.pending[:0]
	return p.message(recs)
}

// message encodes recs, which must not be empty, as the stream's next
// message and sends it.
func (p *Packer) message(recs []FlowRecord) error {
	includeTemplate := p.msgs%p.TemplateEvery == 0
	p.msgs++
	exportTime := uint32(recs[len(recs)-1].Start.Unix())
	return p.send(p.enc.Encode(recs, includeTemplate, exportTime), len(recs), exportTime)
}

// Writer streams FlowRecords as IPFIX messages. The template set is
// emitted in the first message and re-emitted every templateResendEvery
// messages, matching exporter practice for datagram transports and making
// the file stream seekable-in-the-large (a reader starting at most
// templateResendEvery messages in will find a template).
//
// It works in two stages. WriteBatch copies the caller's records into a
// message buffer and hands each full one to an encoder goroutine, which
// encodes and writes it while the caller produces the next; the buffers
// go round a small ring, so a steady stream allocates nothing. The first
// write error is latched: the next WriteBatch or Flush returns it. Flush
// is the join point — it returns once every record is written and the
// goroutine has exited — so a Writer is used from one goroutine and
// abandoned only after a Flush.
type Writer struct {
	// BatchSize is the number of records accumulated per message,
	// clamped to between one and what a message holds beside the template
	// set. Defaults to 1024; tests may lower it.
	BatchSize int

	// p stamps and encodes each full buffer as one message (its Limit and
	// pending go unused); p and bw belong to the encoder goroutine while
	// it runs.
	p  *Packer
	bw *bufio.Writer

	pending []FlowRecord // the buffer WriteBatch fills; nil until needed
	bufs    int          // ring buffers allocated so far
	// full carries filled buffers to the encoder, a nil one asking it to
	// flush and exit; free carries written buffers back.
	full, free chan []FlowRecord
	done       chan struct{}
	running    bool
	err        atomic.Pointer[error]

	records obs.Counter
	wait    obs.Timer
}

const (
	templateResendEvery = 512
	// writerRing is the number of message buffers in flight between the
	// caller and the encoder goroutine.
	writerRing = 8
)

// NewWriter creates a Writer exporting on observation domain id domain.
func NewWriter(w io.Writer, domain uint32) *Writer {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &Writer{
		BatchSize: 1024,
		p: NewPacker(NewMsgEncoder(domain), 0, templateResendEvery, func(msg []byte, _ int, _ uint32) error {
			_, err := bw.Write(msg)
			return err
		}),
		bw:   bw,
		full: make(chan []FlowRecord, writerRing),
		free: make(chan []FlowRecord, writerRing),
		done: make(chan struct{}),
	}
}

// RegisterMetrics exposes the records the encoder has written
// ("ipfix.writer.records") and the time WriteBatch spent waiting for a
// free buffer because every one was queued for the encoder
// ("ipfix.writer.wait"): large means disk or encoder, not the producer,
// bound the stream.
func (w *Writer) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCounter("ipfix.writer.records", &w.records)
	reg.RegisterTimer("ipfix.writer.wait", &w.wait)
}

// WriteBatch queues every record of b for export, handing each full
// message to the encoder. It borrows b per the RecordBatch contract: the
// records are copied before it returns.
func (w *Writer) WriteBatch(b *RecordBatch) error {
	if err := w.latched(); err != nil {
		return err
	}
	limit := min(max(w.BatchSize, 1), MaxRecords(maxMsgLen, true))
	for recs := b.Recs; len(recs) > 0; {
		if w.pending == nil {
			w.pending = w.buffer(limit)
		}
		room := min(limit-len(w.pending), len(recs))
		w.pending = append(w.pending, recs[:room]...)
		recs = recs[room:]
		if len(w.pending) >= limit {
			w.handOff()
		}
	}
	return nil
}

// Flush hands over any pending records as one message, waits until the
// encoder has written everything and flushed the underlying buffer, and
// returns the latched error.
func (w *Writer) Flush() error {
	if len(w.pending) > 0 {
		w.handOff()
	}
	if w.running {
		w.full <- nil
		<-w.done
		w.running = false
	}
	return w.latched()
}

// buffer returns an empty message buffer: a recycled one, a new one while
// the ring is not yet full, else the next one the encoder gives back.
func (w *Writer) buffer(limit int) []FlowRecord {
	select {
	case buf := <-w.free:
		return buf[:0]
	default:
	}
	if w.bufs < writerRing {
		w.bufs++
		return make([]FlowRecord, 0, limit)
	}
	start := time.Now()
	buf := <-w.free
	w.wait.Observe(time.Since(start))
	return buf[:0]
}

// handOff queues the pending buffer for the encoder, starting it if idle.
func (w *Writer) handOff() {
	if !w.running {
		w.running = true
		go w.encode()
	}
	w.full <- w.pending
	w.pending = nil
}

// encode is the encoder goroutine: it writes each buffer it receives as
// one message until Flush's nil, then flushes the underlying buffer.
// After an error it only recycles buffers.
func (w *Writer) encode() {
	defer func() { w.done <- struct{}{} }()
	for buf := range w.full {
		if buf == nil {
			break
		}
		if w.latched() == nil {
			if err := w.p.message(buf); err != nil {
				w.fail(err)
			} else {
				w.records.Add(int64(len(buf)))
			}
		}
		w.free <- buf
	}
	if w.latched() == nil {
		if err := w.bw.Flush(); err != nil {
			w.fail(err)
		}
	}
}

// fail latches err. It takes err by value so that only a failure, not
// every message, moves an error to the heap.
func (w *Writer) fail(err error) { w.err.Store(&err) }

// latched returns the first write error, if any.
func (w *Writer) latched() error {
	if p := w.err.Load(); p != nil {
		return *p
	}
	return nil
}
