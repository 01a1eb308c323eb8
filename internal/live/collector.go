package live

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/ipfix"
)

// Collector receives IPFIX datagrams on a UDP socket, decodes them, and
// hands every flow record to a sink in arrival order.
//
// Backpressure policy: the socket reader never blocks on the decoder —
// it copies each datagram into a bounded ingest queue and, when the
// queue is full, drops the datagram and counts it (DroppedDatagrams).
// The copies are recycled: the decoder hands every buffer back once it is
// done with the datagram (a FlowRecord holds no reference into it).
// Records lost that way (and any lost by the kernel) surface in
// DroppedRecords through RFC 7011 sequence-number gap accounting: each
// message header carries the count of data records sent before it, so a
// jump beyond the expected value measures exactly how many records never
// arrived.
type Collector struct {
	conn  *net.UDPConn
	sink  ipfix.BatchSink
	m     *Metrics
	queue chan []byte
	free  chan []byte // datagram buffers the decoder is done with

	dec      *ipfix.MsgDecoder
	expected map[uint32]uint32 // per observation domain: next expected seq
	seen     map[uint32]bool

	mu      sync.Mutex
	sinkErr error
	wg      sync.WaitGroup
	closed  sync.Once
}

// NewCollector starts a collector on conn. queueLen bounds the ingest
// queue (0 means 4096 datagrams). The sink is called from the single
// decode goroutine with one batch per decoded datagram, borrowed per the
// ipfix.RecordBatch contract.
func NewCollector(conn *net.UDPConn, queueLen int, sink ipfix.BatchSink, m *Metrics) *Collector {
	if queueLen <= 0 {
		queueLen = 4096
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
		free:     make(chan []byte, dgramFreeLen),
		dec:      ipfix.NewMsgDecoder(),
		expected: make(map[uint32]uint32),
		seen:     make(map[uint32]bool),
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
	buf := make([]byte, 1<<16)
	for {
		// The AddrPort form returns the source by value: ReadFromUDP
		// allocates a *UDPAddr per datagram.
		n, _, err := c.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // socket closed
		}
		dg := c.getBuf(n)
		copy(dg, buf[:n])
		select {
		case c.queue <- dg:
		default:
			c.m.DroppedDatagrams.Inc()
			c.putBuf(dg)
		}
	}
}

const (
	// dgramBufLen is the capacity of a recycled datagram buffer: what an
	// MTU-bound exporter sends (DefaultMTU) and some. A larger datagram
	// gets a buffer of its own that is not recycled.
	dgramBufLen = 2048
	// dgramFreeLen bounds the free list to what a burst that deep needs
	// back when the next one comes; the rest is left to the garbage
	// collector, so a drained queue does not pin its high-water mark.
	dgramFreeLen = 256
)

// getBuf returns a buffer of length n, recycled if one is free.
func (c *Collector) getBuf(n int) []byte {
	if n > dgramBufLen {
		return make([]byte, n)
	}
	select {
	case b := <-c.free:
		return b[:n]
	default:
		return make([]byte, n, dgramBufLen)
	}
}

// putBuf hands a buffer from getBuf back.
func (c *Collector) putBuf(b []byte) {
	if cap(b) != dgramBufLen {
		return
	}
	select {
	case c.free <- b:
	default:
	}
}

// decodeLoop decodes queued datagrams and feeds the sink.
func (c *Collector) decodeLoop() {
	defer c.wg.Done()
	batch := ipfix.GetBatch()
	defer batch.Release()
	for dg := range c.queue {
		recs, hdr, err := c.dec.Decode(dg, batch.Recs[:0])
		batch.Recs = recs
		c.putBuf(dg) // on every path below: the records are decoded out of it
		if err != nil {
			c.m.DecodeErrors.Inc()
			continue
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
				continue
			}
		}
		c.seen[hdr.Domain] = true
		c.expected[hdr.Domain] = hdr.SeqNum + uint32(len(recs))
		c.m.CollectedMsgs.Inc()
		if len(recs) == 0 {
			continue
		}
		if err := c.sink(batch); err != nil {
			c.mu.Lock()
			if c.sinkErr == nil {
				c.sinkErr = err
			}
			c.mu.Unlock()
			return
		}
		c.m.CollectedRecords.Add(int64(len(recs)))
	}
}

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
