package live

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ipfix"
)

// Collector receives IPFIX datagrams on a UDP socket, decodes them, and
// hands every flow record to a sink in arrival order.
//
// Backpressure policy: the socket reader never blocks on the decoder —
// it receives each datagram into a recycled buffer and hands that to a
// bounded ingest queue; when the queue is full it drops the datagram,
// counts it (DroppedDatagrams), and reads the next one into the same
// buffer. The decoder hands every buffer back once it is done with the
// datagram (a FlowRecord holds no reference into it).
// Records lost that way (and any lost by the kernel) surface in
// DroppedRecords through RFC 7011 sequence-number gap accounting: each
// message header carries the count of data records sent before it, so a
// jump beyond the expected value measures exactly how many records never
// arrived. The queue is a safety net: the runner's exporter paces on the
// collector's credit (see Runner), so only faults and kernel loss reach it.
type Collector struct {
	conn  *net.UDPConn
	sink  ipfix.BatchSink
	m     *Metrics
	queue chan []byte
	// free holds the buffers the decoder is done with, as many as the
	// queue: a burst that filled it needs them all back when the next one
	// comes, and a 64 KiB allocation per datagram would cost more than
	// the receive. At most queueLen+2 buffers therefore ever exist.
	free chan []byte

	dec      *ipfix.MsgDecoder
	expected map[uint32]uint32 // per observation domain: next expected seq
	seen     map[uint32]bool

	// credit receives (without blocking the decoder) after every datagram
	// the decoder finishes, and done is closed when the decoder stops: an
	// exporter waiting for Accounted to grow watches both. arrived counts
	// the datagrams queued and handled those the decoder finished; they
	// are equal when the collector holds nothing it has not accounted.
	credit  chan struct{}
	done    chan struct{}
	arrived atomic.Int64
	handled atomic.Int64

	mu      sync.Mutex
	sinkErr error
	wg      sync.WaitGroup
	closed  sync.Once
}

// NewCollector starts a collector on conn. queueLen bounds the ingest
// queue (0 means DefaultQueueLen datagrams). The sink is called from the
// single decode goroutine with one batch per decoded datagram, borrowed
// per the ipfix.RecordBatch contract.
func NewCollector(conn *net.UDPConn, queueLen int, sink ipfix.BatchSink, m *Metrics) *Collector {
	if queueLen <= 0 {
		queueLen = DefaultQueueLen
	}
	if m == nil {
		m = NewMetrics()
	}
	// A large kernel receive buffer keeps loopback loss at zero even
	// when the decoder stalls briefly (GC, sink I/O).
	_ = conn.SetReadBuffer(4 << 20)
	c := &Collector{
		conn:     conn,
		sink:     sink,
		m:        m,
		queue:    make(chan []byte, queueLen),
		free:     make(chan []byte, queueLen),
		dec:      ipfix.NewMsgDecoder(),
		expected: make(map[uint32]uint32),
		seen:     make(map[uint32]bool),
		credit:   make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	c.wg.Add(2)
	go c.readLoop()
	go c.decodeLoop()
	return c
}

// readLoop drains the socket as fast as possible; queue-full datagrams
// are shed here, never blocking the socket.
func (c *Collector) readLoop() {
	defer c.wg.Done()
	defer close(c.queue)
	buf := c.getBuf()
	for {
		// The AddrPort form returns the source by value: ReadFromUDP
		// allocates a *UDPAddr per datagram.
		n, _, err := c.conn.ReadFromUDPAddrPort(buf[:dgramBufLen])
		if err != nil {
			return // socket closed
		}
		select {
		case c.queue <- buf[:n]:
			c.arrived.Add(1)
			if depth := int64(len(c.queue)); depth > c.m.QueueHighWater.Value() {
				c.m.QueueHighWater.Set(depth)
			}
			buf = c.getBuf()
		default:
			// The queue was full: buf stays the read loop's.
			c.m.QueueHighWater.Set(int64(cap(c.queue)))
			c.m.DroppedDatagrams.Inc()
		}
	}
}

const (
	// DefaultQueueLen is the ingest queue's depth when none is given:
	// 8 MiB of datagram buffers.
	DefaultQueueLen = 128
	// dgramBufLen is the capacity of every datagram buffer: a whole
	// loopback datagram, so the socket reads straight into it (MaxDatagram
	// and some).
	dgramBufLen = 64 << 10
)

// getBuf returns a datagram buffer, recycled if one is free.
func (c *Collector) getBuf() []byte {
	select {
	case b := <-c.free:
		return b
	default:
		return make([]byte, dgramBufLen)
	}
}

// putBuf hands a buffer from getBuf back.
func (c *Collector) putBuf(b []byte) {
	select {
	case c.free <- b:
	default:
	}
}

// decodeLoop decodes queued datagrams and feeds the sink, signalling
// credit after each one; it stops at the first sink error.
func (c *Collector) decodeLoop() {
	defer c.wg.Done()
	defer close(c.done)
	batch := ipfix.GetBatch()
	defer batch.Release()
	for dg := range c.queue {
		err := c.accept(dg, batch)
		c.handled.Add(1)
		select {
		case c.credit <- struct{}{}:
		default:
		}
		if err != nil {
			c.mu.Lock()
			if c.sinkErr == nil {
				c.sinkErr = err
			}
			c.mu.Unlock()
			return
		}
	}
}

// accept decodes one datagram into batch, accounts its sequence gap and
// hands its records to the sink; it returns only the sink's error.
func (c *Collector) accept(dg []byte, batch *ipfix.RecordBatch) error {
	recs, hdr, err := c.dec.Decode(dg, batch.Recs[:0])
	batch.Recs = recs
	c.putBuf(dg) // on every path below: the records are decoded out of it
	if err != nil {
		c.m.DecodeErrors.Inc()
		return nil
	}
	if c.seen[hdr.Domain] {
		want := c.expected[hdr.Domain]
		switch {
		case hdr.SeqNum == want:
		case hdr.SeqNum > want:
			c.m.DroppedRecords.Add(int64(hdr.SeqNum - want))
		default:
			// A reordered late message: its records were already
			// counted as dropped; replaying them now would disorder
			// the archive.
			c.m.LateMsgs.Inc()
			return nil
		}
	}
	c.seen[hdr.Domain] = true
	c.expected[hdr.Domain] = hdr.SeqNum + uint32(len(recs))
	c.m.CollectedMsgs.Inc()
	if len(recs) == 0 {
		return nil
	}
	if err := c.sink(batch); err != nil {
		return err
	}
	c.m.CollectedRecords.Add(int64(len(recs)))
	return nil
}

// idle reports whether the decoder has finished every datagram queued so
// far: records still unaccounted then never reached the queue.
func (c *Collector) idle() bool { return c.handled.Load() == c.arrived.Load() }

// Accounted returns collected + dropped records: the collector's view of
// how much of the export stream it has resolved.
func (c *Collector) Accounted() int64 {
	return c.m.CollectedRecords.Value() + c.m.DroppedRecords.Value()
}

// Drain waits until the collector has accounted for expected records
// (collected or measured as dropped), or until timeout. Call after the
// exporter has flushed; the exporter's record count is the target.
func (c *Collector) Drain(expected int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for c.Accounted() < expected {
		if err := c.err(); err != nil {
			return err
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("live: collector drain timed out: accounted %d of %d records",
				c.Accounted(), expected)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return c.err()
}

func (c *Collector) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sinkErr
}

// Close stops the read loop, finishes decoding everything queued, and
// returns the first sink error, if any.
func (c *Collector) Close() error {
	c.closed.Do(func() { c.conn.Close() })
	c.wg.Wait()
	return c.err()
}
