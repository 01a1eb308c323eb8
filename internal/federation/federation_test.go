package federation

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/bgp"
)

func testSnapshot() *Snapshot {
	base := time.Date(2019, 2, 1, 8, 0, 0, 0, time.UTC)
	return &Snapshot{
		IXP:         2,
		Seq:         7,
		ClockOffset: -40 * time.Millisecond,
		Updates: []analysis.ControlUpdate{
			{Time: base, Peer: 65001, Prefix: bgp.MakePrefix(0x0a000007, 32),
				Announce: true, OriginAS: 65100,
				Communities: bgp.Communities{bgp.Blackhole, bgp.Community(0xfde80001)}},
			{Time: base.Add(time.Hour), Peer: 65001, Prefix: bgp.MakePrefix(0x0a000007, 32)},
		},
		State: []byte{1, 2, 3, 4, 5},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := testSnapshot()
	data, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("round trip changed the snapshot:\n got %+v\nwant %+v", &got, want)
	}
	again, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("re-marshal is not a byte-level fixed point")
	}

	empty := &Snapshot{IXP: 0, Seq: 1}
	data, err = empty.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var dec Snapshot
	if err := dec.UnmarshalBinary(data); err != nil {
		t.Fatalf("empty snapshot does not round-trip: %v", err)
	}
	if dec.IXP != 0 || dec.Seq != 1 || len(dec.Updates) != 0 {
		t.Fatalf("empty snapshot decoded as %+v", &dec)
	}
}

func TestSnapshotDecodeErrors(t *testing.T) {
	valid, err := testSnapshot().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation of a valid frame must be rejected, never panic.
	for cut := 0; cut < len(valid); cut++ {
		var s Snapshot
		if err := s.UnmarshalBinary(valid[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded without error", cut, len(valid))
		}
	}
	// A future codec version must be rejected.
	skew := append([]byte(nil), valid...)
	skew[0]++
	var s Snapshot
	if err := s.UnmarshalBinary(skew); err == nil {
		t.Error("future snapshot version decoded without error")
	}
	// A corrupted prefix length must error, not panic in MakePrefix.
	bad := testSnapshot()
	bad.Updates[0].Prefix = bgp.Prefix{Addr: 0x0a000000, Len: 48}
	data, err := bad.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.UnmarshalBinary(data); err == nil {
		t.Error("prefix length 48 decoded without error")
	}
	// An update stream that steps back in time must error: the merge
	// and every per-exchange figure assume time order.
	bad = testSnapshot()
	bad.Updates[0].Time, bad.Updates[1].Time = bad.Updates[1].Time, bad.Updates[0].Time
	if data, err = bad.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	keep := testSnapshot()
	if err := keep.UnmarshalBinary(data); err == nil {
		t.Error("updates out of time order decoded without error")
	}
	if !reflect.DeepEqual(keep, testSnapshot()) {
		t.Error("rejecting out-of-order updates mutated the snapshot")
	}
	// An error decode must leave the snapshot unchanged.
	keep = testSnapshot()
	if err := keep.UnmarshalBinary(valid[:len(valid)/2]); err == nil {
		t.Fatal("truncated frame accepted")
	}
	if !reflect.DeepEqual(keep, testSnapshot()) {
		t.Error("failed decode mutated the snapshot")
	}
}

func TestCoordinatorSeqDedup(t *testing.T) {
	c := NewCoordinator(nil, 0)
	s := func(ixp int, seq uint64) *Snapshot { return &Snapshot{IXP: ixp, Seq: seq} }
	if !c.Offer(s(0, 2)) {
		t.Fatal("first offer rejected")
	}
	if c.Offer(s(0, 1)) {
		t.Error("stale Seq accepted over a fresher one")
	}
	if c.Offer(s(0, 2)) {
		t.Error("duplicate Seq accepted")
	}
	if !c.Offer(s(0, 3)) {
		t.Error("fresher Seq rejected")
	}
	if !c.Offer(s(1, 1)) {
		t.Error("first offer for a second exchange rejected")
	}
	if got := c.Snapshots(); got != 2 {
		t.Errorf("heard from %d exchanges, want 2", got)
	}
}

// truncConn fails its first frame write halfway through — the shape of a
// connection cut mid-transmit.
type truncConn struct {
	net.Conn
	fail *bool
}

func (c *truncConn) Write(b []byte) (int, error) {
	if *c.fail {
		*c.fail = false
		n, _ := c.Conn.Write(b[:len(b)/2])
		c.Conn.Close()
		return n, errors.New("injected mid-write cut")
	}
	return c.Conn.Write(b)
}

func TestTransportSendReceive(t *testing.T) {
	c := NewCoordinator(nil, 0)
	srv, err := Serve("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if err := Send(srv.Addr(), testSnapshot(), nil, 1); err != nil {
		t.Fatal(err)
	}
	if got := c.Snapshots(); got != 1 {
		t.Fatalf("coordinator heard from %d exchanges, want 1", got)
	}

	// A cut first transmit must fail that attempt; the retry converges,
	// and the duplicate delivery dedups by Seq.
	fail := true
	wrap := func(conn net.Conn) net.Conn { return &truncConn{Conn: conn, fail: &fail} }
	snap := testSnapshot()
	snap.IXP = 1
	if err := Send(srv.Addr(), snap, wrap, 3); err != nil {
		t.Fatalf("send did not converge past an injected cut: %v", err)
	}
	if err := Send(srv.Addr(), snap, nil, 1); err != nil {
		t.Fatalf("duplicate send failed: %v", err)
	}
	if got := c.Snapshots(); got != 2 {
		t.Fatalf("coordinator heard from %d exchanges, want 2", got)
	}

	// Garbage frames — wrong magic, corrupt payload — are dropped
	// without an ack and without disturbing the collected state.
	for _, garbage := range [][]byte{
		[]byte("not a frame at all"),
		{'F', 'S', 'N', 'P', 0, 0, 0, 3, 0xff, 0xff, 0xff},
	} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(garbage) //nolint:errcheck
		var ack [1]byte
		conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond)) //nolint:errcheck
		if _, err := conn.Read(ack[:]); err == nil {
			t.Error("garbage frame was acked")
		}
		conn.Close()
	}
	if got := c.Snapshots(); got != 2 {
		t.Fatalf("garbage frames changed the collected count to %d", got)
	}
}
