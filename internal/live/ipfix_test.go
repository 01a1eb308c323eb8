package live

import (
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/ipfix"
)

func flowRec(i int) ipfix.FlowRecord {
	return ipfix.FlowRecord{
		Start:   time.UnixMilli(int64(1_600_000_000_000 + i*37)).UTC(),
		SrcMAC:  ipfix.MAC(0x020000000000 | uint64(i)),
		DstMAC:  ipfix.MAC(0x060000000000 | uint64(i)),
		SrcIP:   0x0a000000 + uint32(i),
		DstIP:   0xc0a80000 + uint32(i),
		SrcPort: uint16(1024 + i%60000),
		DstPort: 443,
		Proto:   17,
		Packets: 1,
		Bytes:   uint64(64 + i%1400),
	}
}

// flowBatch returns flowRec(0) .. flowRec(n-1) as one batch.
func flowBatch(n int) *ipfix.RecordBatch {
	b := &ipfix.RecordBatch{Recs: make([]ipfix.FlowRecord, n)}
	for i := range b.Recs {
		b.Recs[i] = flowRec(i)
	}
	return b
}

// newLoopbackPair connects an exporter to a collector over loopback UDP;
// queueLen and mtu are NewCollector's and NewExporter's (0: defaults).
func newLoopbackPair(t *testing.T, queueLen, mtu int, sink ipfix.BatchSink, m *Metrics) (*Exporter, *Collector) {
	t.Helper()
	cc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(cc, queueLen, sink, m)
	t.Cleanup(func() { col.Close() })
	ec, err := net.Dial("udp", cc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ec.Close() })
	exp, err := NewExporter(ec, 1, mtu, m)
	if err != nil {
		t.Fatal(err)
	}
	return exp, col
}

// TestExportCollectLoopback streams records over a real UDP socket pair
// and asserts lossless, in-order, value-identical collection.
func TestExportCollectLoopback(t *testing.T) {
	const n = 10_000
	m := NewMetrics()
	var got []ipfix.FlowRecord
	exp, col := newLoopbackPair(t, 0, 0, func(b *ipfix.RecordBatch) error {
		got = append(got, b.Recs...)
		return nil
	}, m)

	if err := exp.ExportBatch(flowBatch(n)); err != nil {
		t.Fatal(err)
	}
	if err := exp.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := col.Drain(exp.Exported(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}

	if m.DroppedRecords.Value() != 0 || m.DroppedDatagrams.Value() != 0 {
		t.Fatalf("loopback dropped: %d records, %d datagrams",
			m.DroppedRecords.Value(), m.DroppedDatagrams.Value())
	}
	if len(got) != n {
		t.Fatalf("collected %d records, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != flowRec(i) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], flowRec(i))
		}
	}
	if m.ExportedMsgs.Value() != m.CollectedMsgs.Value() {
		t.Fatalf("exported %d msgs, collected %d", m.ExportedMsgs.Value(), m.CollectedMsgs.Value())
	}
	// Datagrams stayed under the size bound.
	if per := ipfix.MaxRecords(MaxDatagram, true); int64(n+per-1)/int64(per) != m.ExportedMsgs.Value() {
		t.Fatalf("exported_msgs = %d, want ceil(%d/%d)", m.ExportedMsgs.Value(), n, per)
	}
}

// sizeConn records the longest datagram written through it.
type sizeConn struct {
	net.Conn
	longest int
}

func (c *sizeConn) Write(b []byte) (int, error) {
	c.longest = max(c.longest, len(b))
	return c.Conn.Write(b)
}

// TestExportFillsLoopbackDatagrams exports whole messages over a real
// loopback pair, a few datagrams at a time so that no socket buffer
// overflows, then a partial one: the exporter sends one datagram per
// MaxRecords(65,507, true) records and none longer than 65,507 bytes,
// nothing is shed or undecodable, the records arrive in order and
// value-identical, and the collector receives into recycled buffers of
// the one 64 KiB capacity — fewer than one allocation per ten datagrams
// once the first window has warmed the free list.
func TestExportFillsLoopbackDatagrams(t *testing.T) {
	if DefaultQueueLen*dgramBufLen > 8<<20 {
		t.Fatalf("default queue holds %d buffers of %d bytes, want at most 8 MiB", DefaultQueueLen, dgramBufLen)
	}
	// The largest IPv4 UDP payload: 65,535 bytes less the IP and UDP
	// headers.
	const loopbackMax = 65_507
	per := ipfix.MaxRecords(loopbackMax, true)
	const window, windows, tail = 4, 60, 17
	n := windows*window*per + tail

	m := NewMetrics()
	next, mismatches := 0, 0
	cc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(cc, 0, func(b *ipfix.RecordBatch) error {
		for _, r := range b.Recs {
			if r != flowRec(next) {
				mismatches++
			}
			next++
		}
		return nil
	}, m)
	defer col.Close()
	ec, err := net.Dial("udp", cc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer ec.Close()
	sc := &sizeConn{Conn: ec}
	exp, err := NewExporter(sc, 1, 0, m)
	if err != nil {
		t.Fatal(err)
	}

	src := make([]ipfix.FlowRecord, window*per)
	export := func(from, k int) {
		t.Helper()
		b := &ipfix.RecordBatch{Recs: src[:k]}
		for i := range b.Recs {
			b.Recs[i] = flowRec(from + i)
		}
		if err := exp.ExportBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	drain := func() {
		t.Helper()
		if err := col.Drain(exp.Exported(), 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	for w := 0; w < windows; w++ {
		if w == 1 {
			runtime.ReadMemStats(&before)
		}
		export(w*window*per, window*per)
		drain()
	}
	runtime.ReadMemStats(&after)
	export(windows*window*per, tail)
	if err := exp.Flush(); err != nil {
		t.Fatal(err)
	}
	drain()

	if want := int64((n + per - 1) / per); m.ExportedMsgs.Value() != want {
		t.Fatalf("exported %d datagrams, want ceil(%d/%d) = %d", m.ExportedMsgs.Value(), n, per, want)
	}
	if sc.longest > loopbackMax {
		t.Fatalf("longest datagram %d bytes, want at most %d", sc.longest, loopbackMax)
	}
	if m.DroppedDatagrams.Value() != 0 || m.DroppedRecords.Value() != 0 || m.DecodeErrors.Value() != 0 {
		t.Fatalf("%d datagrams shed, %d records dropped, %d undecodable",
			m.DroppedDatagrams.Value(), m.DroppedRecords.Value(), m.DecodeErrors.Value())
	}
	if next != n || mismatches != 0 {
		t.Fatalf("sink saw %d records, want %d; %d out of order or altered", next, n, mismatches)
	}
	if len(col.free) == 0 {
		t.Fatal("no buffer came back to the free list")
	}
	for len(col.free) > 0 {
		if b := <-col.free; cap(b) != dgramBufLen {
			t.Fatalf("free list holds a buffer of capacity %d, want %d", cap(b), dgramBufLen)
		}
	}
	dgrams := (windows - 1) * window
	allocs := after.Mallocs - before.Mallocs
	t.Logf("%d allocations over %d datagrams", allocs, dgrams)
	if allocs > uint64(dgrams/10) {
		t.Fatalf("%d allocations over %d datagrams, want fewer than one per ten", allocs, dgrams)
	}
}

// TestCollectorGapAccounting feeds the collector a deliberately gapped
// sequence (a "lost" datagram) and expects the missing records to be
// counted as dropped, making exported == collected + dropped.
func TestCollectorGapAccounting(t *testing.T) {
	m := NewMetrics()
	var got int
	cc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(cc, 0, func(b *ipfix.RecordBatch) error { got += b.Len(); return nil }, m)
	defer col.Close()
	ec, err := net.Dial("udp", cc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer ec.Close()

	enc := ipfix.NewMsgEncoder(1)
	batch := func(k int) []ipfix.FlowRecord {
		out := make([]ipfix.FlowRecord, 5)
		for i := range out {
			out[i] = flowRec(k*5 + i)
		}
		return out
	}
	send := func(b []byte) {
		if _, err := ec.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	send(enc.Encode(batch(0), true, 100))  // seq 0, delivered
	_ = enc.Encode(batch(1), false, 101)   // seq 5, "lost in transit"
	send(enc.Encode(batch(2), false, 102)) // seq 10, delivered

	if err := col.Drain(15, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("sink saw %d records, want 10", got)
	}
	if m.DroppedRecords.Value() != 5 {
		t.Fatalf("dropped_records = %d, want 5", m.DroppedRecords.Value())
	}
	if acc := col.Accounted(); acc != 15 {
		t.Fatalf("accounted = %d, want 15", acc)
	}
}

// TestCollectorLateDatagram replays an already-accounted message and
// expects it to be discarded (processing it would disorder the archive)
// and counted.
func TestCollectorLateDatagram(t *testing.T) {
	m := NewMetrics()
	var got int
	cc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(cc, 0, func(b *ipfix.RecordBatch) error { got += b.Len(); return nil }, m)
	defer col.Close()
	ec, err := net.Dial("udp", cc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer ec.Close()

	enc := ipfix.NewMsgEncoder(1)
	recs := []ipfix.FlowRecord{flowRec(0), flowRec(1)}
	early := append([]byte(nil), enc.Encode(recs, true, 100)...)   // seq 0
	onTime := append([]byte(nil), enc.Encode(recs, false, 101)...) // seq 2

	write := func(b []byte) {
		if _, err := ec.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	write(early)
	write(onTime)
	write(early) // duplicate/late replay of seq 0
	if err := col.Drain(4, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.LateMsgs.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if m.LateMsgs.Value() != 1 {
		t.Fatalf("late_msgs = %d, want 1", m.LateMsgs.Value())
	}
	if got != 4 {
		t.Fatalf("sink saw %d records, want 4 (late replay must not re-deliver)", got)
	}
}

// TestCollectorRecyclesDatagramBuffers streams 10,000 datagrams of every
// size the exporter sends through a loopback collector and counts
// the process's allocations once the first window has warmed the free
// list: fewer than one per ten datagrams, where a copy made per datagram
// is one each. A quarter of the datagrams is late and a quarter carries no
// records, so a decode-loop exit that kept its buffer would show as one
// allocation per four. Undecodable datagrams allocate their error, so that
// exit is checked on the free list itself.
func TestCollectorRecyclesDatagramBuffers(t *testing.T) {
	m := NewMetrics()
	got := 0
	cc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(cc, 0, func(b *ipfix.RecordBatch) error { got += b.Len(); return nil }, m)
	defer col.Close()
	ec, err := net.Dial("udp", cc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer ec.Close()

	sent := 0
	write := func(b []byte) {
		if _, err := ec.Write(b); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	// Pace on what the decode loop has finished with, so that the kernel
	// buffer never overflows and every datagram arrives.
	resolve := func() {
		deadline := time.Now().Add(10 * time.Second)
		for m.CollectedMsgs.Value()+m.DecodeErrors.Value()+m.LateMsgs.Value() < int64(sent) {
			if !time.Now().Before(deadline) {
				t.Fatalf("collector resolved %d msgs, %d errors, %d late of %d datagrams sent",
					m.CollectedMsgs.Value(), m.DecodeErrors.Value(), m.LateMsgs.Value(), sent)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}

	enc := ipfix.NewMsgEncoder(1)
	recs := flowBatch(ipfix.MaxRecords(MaxDatagram, false)).Recs
	write(enc.Encode(recs[:3], true, 98))                           // the template, once
	late := append([]byte(nil), enc.Encode(recs[:3], false, 99)...) // on time now, late from then on
	write(late)
	wantRecords := 6

	const window, total = 50, 10_000
	var before, after runtime.MemStats
	for sent < total+window {
		if sent == 2+window {
			runtime.ReadMemStats(&before)
		}
		for i := 0; i < window; i++ {
			switch k := sent; k % 4 {
			case 1:
				write(late)
			case 3:
				write(enc.Encode(nil, false, uint32(100+k)))
			default:
				n := 1 + k%len(recs)
				write(enc.Encode(recs[:n], false, uint32(100+k)))
				wantRecords += n
			}
		}
		resolve()
	}
	runtime.ReadMemStats(&after)
	if got != wantRecords || m.DroppedDatagrams.Value() != 0 || m.DecodeErrors.Value() != 0 {
		t.Fatalf("sink saw %d records, want %d; %d datagrams shed, %d undecodable",
			got, wantRecords, m.DroppedDatagrams.Value(), m.DecodeErrors.Value())
	}
	if m.LateMsgs.Value() < total/4 {
		t.Fatalf("%d late messages of %d datagrams: the late exit went untested", m.LateMsgs.Value(), total)
	}
	allocs := after.Mallocs - before.Mallocs
	t.Logf("%d allocations over %d datagrams", allocs, total)
	if allocs > total/10 {
		t.Fatalf("%d allocations over %d datagrams, want fewer than one per ten", allocs, total)
	}

	// One more undecodable datagram than the free list holds, one at a
	// time: an exit that kept its buffer would have emptied the list.
	garbage := make([]byte, 700)
	for i := 0; i <= cap(col.free); i++ {
		write(garbage)
		resolve()
	}
	if m.DecodeErrors.Value() != int64(cap(col.free))+1 || len(col.free) == 0 {
		t.Fatalf("%d decode errors, %d buffers on the free list after them", m.DecodeErrors.Value(), len(col.free))
	}
}

// TestExporterMTUTooSmall rejects an MTU that cannot carry a record.
func TestExporterMTUTooSmall(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	if _, err := NewExporter(c1, 1, 30, NewMetrics()); err == nil {
		t.Fatal("expected error for unusable MTU")
	}
}

// TestRunnerEndToEnd drives the whole runner: updates through real BGP
// sessions in sequenced order, flows through UDP, then drain, reconcile,
// shutdown.
func TestRunnerEndToEnd(t *testing.T) {
	type upd struct {
		ts   time.Time
		peer uint32
	}
	var deliveries []upd
	var flows int
	m := NewMetrics()
	r, err := NewRunner(t.Context(), RunnerConfig{Session: testSessionConfig()}, m,
		func(ts time.Time, peer uint32, u *bgp.Update) error {
			deliveries = append(deliveries, upd{ts, peer})
			return nil
		},
		nil,
		func(b *ipfix.RecordBatch) error { flows += b.Len(); return nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown()

	base := time.Unix(2000, 0)
	peers := []uint32{100, 200, 300, 100, 200, 100}
	for i, p := range peers {
		u, _ := testUpdate(t, bgp.Prefix{Addr: uint32(0x0a000000 + i), Len: 32}, p)
		if err := r.SendUpdate(base.Add(time.Duration(i)*time.Minute), p, u); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Barrier(); err != nil {
		t.Fatal(err)
	}
	if len(deliveries) != len(peers) {
		t.Fatalf("delivered %d, want %d", len(deliveries), len(peers))
	}
	for i, d := range deliveries {
		if d.peer != peers[i] || !d.ts.Equal(base.Add(time.Duration(i)*time.Minute)) {
			t.Fatalf("delivery %d = %+v out of order", i, d)
		}
	}

	if err := r.ExportFlowBatch(flowBatch(500)); err != nil {
		t.Fatal(err)
	}
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := r.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if flows != 500 {
		t.Fatalf("collected %d flows, want 500", flows)
	}
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// tailDropConn loses the data datagrams from the from-th write on, as a
// network that fails at the end of the export stream would; empty
// messages (the exporter's Syncs) still get through.
type tailDropConn struct {
	net.Conn
	writes, from int
}

func (c *tailDropConn) Write(b []byte) (int, error) {
	if c.writes++; c.writes > c.from && len(b) > 1024 {
		return len(b), nil
	}
	return c.Conn.Write(b)
}

// TestRunnerDrainAccountsQueueTailDrop loses the last datagrams of a
// paced export stream on the wire, behind a slow sink and a two-datagram
// queue, so no later datagram reveals the final gap. The drain must still
// account the loss promptly (its Sync carries the final sequence number)
// instead of waiting out DrainTimeout. The queue itself never sheds a
// paced stream; TestCollectorShedsOnFullQueue covers that path.
func TestRunnerDrainAccountsQueueTailDrop(t *testing.T) {
	const queueLen, msgs, lost = 2, 40, 3
	m := NewMetrics()
	var collected int64
	r, err := NewRunner(t.Context(),
		RunnerConfig{Session: testSessionConfig(), QueueLen: queueLen, DrainTimeout: 2 * time.Second}, m,
		func(time.Time, uint32, *bgp.Update) error { return nil }, nil,
		func(b *ipfix.RecordBatch) error {
			time.Sleep(200 * time.Microsecond)
			collected += int64(b.Len())
			return nil
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown()
	r.exporter.conn = &tailDropConn{Conn: r.exporter.conn, from: msgs - lost}

	// Whole messages only, so Drain's flush adds no datagram of its own.
	n := msgs * ipfix.MaxRecords(MaxDatagram, true)
	if err := r.ExportFlowBatch(flowBatch(n)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := r.Drain(); err != nil {
		t.Fatalf("drain after a tail drop: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("drain took %v, want well under the %v timeout", took, 2*time.Second)
	}
	if err := r.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if got := collected + m.DroppedRecords.Value(); got != int64(n) || m.DroppedRecords.Value() == 0 {
		t.Fatalf("collected %d + dropped %d = %d, exported %d", collected, m.DroppedRecords.Value(), got, n)
	}
	if m.DroppedDatagrams.Value() != 0 {
		t.Fatalf("the queue shed %d datagrams of a paced stream", m.DroppedDatagrams.Value())
	}
}

// TestCollectorShedsOnFullQueue overflows a collector's ingest queue from
// a raw UDP socket, with no credit to pace on: the sink is held until the
// read loop has shed the tail of the stream. The shed datagrams count in
// dropped_datagrams, the queue's high water reads its length, and once a
// sequence-sync message reveals the gap their records count as dropped,
// so collected + dropped == exported.
func TestCollectorShedsOnFullQueue(t *testing.T) {
	const queueLen, msgs, per = 2, 40, 50
	m := NewMetrics()
	entered, release := make(chan struct{}), make(chan struct{})
	var collected int64
	cc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(cc, queueLen, func(b *ipfix.RecordBatch) error {
		if collected == 0 {
			close(entered)
			<-release
		}
		collected += int64(b.Len())
		return nil
	}, m)
	defer col.Close()
	ec, err := net.Dial("udp", cc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer ec.Close()

	enc := ipfix.NewMsgEncoder(1)
	recs := flowBatch(per).Recs
	write := func(b []byte) {
		t.Helper()
		if _, err := ec.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	write(enc.Encode(recs, true, 100))
	<-entered
	for i := 1; i < msgs; i++ {
		write(enc.Encode(recs, false, uint32(100+i)))
	}
	waitFor(t, 5*time.Second, "the read loop to shed the tail", func() bool {
		return 1+int64(len(col.queue))+m.DroppedDatagrams.Value() == msgs
	})
	if m.DroppedDatagrams.Value() < msgs-1-queueLen {
		t.Fatalf("dropped %d datagrams, want at least %d", m.DroppedDatagrams.Value(), msgs-1-queueLen)
	}
	if hw := m.QueueHighWater.Value(); hw != queueLen {
		t.Fatalf("queue high water = %d after shedding, want the queue length %d", hw, queueLen)
	}
	close(release)
	// A Sync reveals the tail gap, once the queue has room for it.
	waitFor(t, 5*time.Second, "the decoder to empty the queue", col.idle)
	write(enc.Encode(nil, true, 100+msgs))

	if err := col.Drain(msgs*per, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if want := m.DroppedDatagrams.Value() * per; m.DroppedRecords.Value() != want {
		t.Fatalf("dropped %d records, want %d for %d shed datagrams", m.DroppedRecords.Value(), want, m.DroppedDatagrams.Value())
	}
	if got := collected + m.DroppedRecords.Value(); got != msgs*per {
		t.Fatalf("collected %d + dropped %d = %d, exported %d", collected, m.DroppedRecords.Value(), got, msgs*per)
	}
}
