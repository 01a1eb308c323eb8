package live

import (
	"net"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/routeserver"
)

func testSessionConfig() SessionConfig {
	return SessionConfig{
		HoldTime:     500 * time.Millisecond,
		ReconnectMin: 5 * time.Millisecond,
		ReconnectMax: 50 * time.Millisecond,
	}
}

func testUpdate(t *testing.T, prefix bgp.Prefix, peer uint32) (*bgp.Update, []byte) {
	t.Helper()
	upd := &bgp.Update{
		Attrs: bgp.PathAttrs{
			Origin:      bgp.OriginIGP,
			ASPath:      []uint32{peer},
			NextHop:     routeserver.BlackholeNextHop,
			Communities: bgp.Communities{bgp.Blackhole},
		},
		NLRI: []bgp.Prefix{prefix},
	}
	enc, err := bgp.EncodeUpdate(upd)
	if err != nil {
		t.Fatal(err)
	}
	return upd, enc
}

type arrival struct {
	peer uint32
	upd  *bgp.Update
}

// TestSessionEstablishAndUpdate covers the happy path end to end: dial,
// open exchange, an UPDATE crossing the session, graceful teardown.
func TestSessionEstablishAndUpdate(t *testing.T) {
	m := NewMetrics()
	updates := make(chan arrival, 16)
	downs := make(chan bool, 16)
	l, err := Listen("127.0.0.1:0", 65500, testSessionConfig(), Hooks{
		OnUpdate:   func(peer uint32, upd *bgp.Update) { updates <- arrival{peer, upd} },
		OnPeerDown: func(peer uint32, graceful bool) { downs <- graceful },
	}, m)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const peerASN = 70000 // above 16 bits: exercises the RouterID carriage
	sp := Dial(l.Addr(), peerASN, testSessionConfig(), m)
	defer sp.Close()

	prefix := bgp.Prefix{Addr: 0xcb007105, Len: 32}
	want, enc := testUpdate(t, prefix, peerASN)
	if err := sp.Send(enc); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-updates:
		if got.peer != peerASN {
			t.Fatalf("update attributed to AS%d, want AS%d", got.peer, peerASN)
		}
		if len(got.upd.NLRI) != 1 || got.upd.NLRI[0] != prefix {
			t.Fatalf("NLRI = %v, want [%v]", got.upd.NLRI, prefix)
		}
		re, err := bgp.EncodeUpdate(got.upd)
		if err != nil {
			t.Fatal(err)
		}
		if string(re) != string(enc) {
			t.Fatal("update did not survive the wire round-trip byte-identically")
		}
		_ = want
	case <-time.After(5 * time.Second):
		t.Fatal("update never arrived")
	}

	if sp.State() != StateEstablished {
		t.Fatalf("speaker state = %v, want Established", sp.State())
	}
	sp.Close()
	select {
	case graceful := <-downs:
		if !graceful {
			t.Fatal("orderly Cease reported as ungraceful teardown")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer-down never fired")
	}
	// One session, counted once by each endpoint.
	if got := m.SessionsEstablished.Value(); got != 2 {
		t.Fatalf("sessions_established = %d, want 2", got)
	}
	if got := m.UpdatesSent.Value(); got != 1 {
		t.Fatalf("updates_sent = %d, want 1", got)
	}
}

// bareOpen plays one side of the open exchange by hand on conn: the
// active side sends its OPEN first, the passive side answers one.
func bareOpen(t *testing.T, conn net.Conn, asn uint32, active bool) *msgReader {
	t.Helper()
	r := &msgReader{c: conn}
	open, err := encodeOpen(asn, 1)
	if err != nil {
		t.Fatal(err)
	}
	expect := func(want byte) {
		if typ, _, err := r.read(); err != nil || typ != want {
			t.Fatalf("open exchange: typ %d err %v, want typ %d", typ, err, want)
		}
	}
	if active {
		conn.Write(open)
		expect(bgp.MsgOpen)
		conn.Write(bgp.EncodeKeepalive())
	} else {
		expect(bgp.MsgOpen)
		conn.Write(append(open, bgp.EncodeKeepalive()...))
		expect(bgp.MsgKeepalive)
	}
	return r
}

// TestSessionHoldTimerExpiry: a peer that completes the open exchange and
// then goes silent gets the RFC 4271 §6.5 NOTIFICATION, whichever end of
// the session it left waiting — the pump is one, so one table holds both.
// Each row sets its end up and returns a bare TCP peer's connection to it.
func TestSessionHoldTimerExpiry(t *testing.T) {
	cfg := SessionConfig{HoldTime: 150 * time.Millisecond, ReconnectMin: time.Hour}
	downs := make(chan bool, 1)
	for _, row := range []struct {
		name       string
		peer       func(t *testing.T, m *Metrics) net.Conn
		peerASN    uint32
		peerActive bool // the bare peer dials and opens; the end under test reports its peer-downs
	}{
		{"listener", func(t *testing.T, m *Metrics) net.Conn {
			l, err := Listen("127.0.0.1:0", 65500, cfg, Hooks{
				OnPeerDown: func(peer uint32, graceful bool) { downs <- graceful },
			}, m)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { l.Close() })
			conn, err := net.Dial("tcp", l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			return conn
		}, 201, true},
		{"speaker", func(t *testing.T, m *Metrics) net.Conn {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			s := Dial(ln.Addr().String(), 201, cfg, m)
			t.Cleanup(func() { s.Close() })
			conn, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			return conn
		}, 65500, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			m := NewMetrics()
			conn := row.peer(t, m)
			defer conn.Close()
			r := bareOpen(t, conn, row.peerASN, row.peerActive)

			// The expiring side must send the NOTIFICATION before it closes.
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			for {
				typ, msg, err := r.read()
				if err != nil {
					t.Fatalf("no NOTIFICATION before close: %v", err)
				}
				if typ == bgp.MsgKeepalive {
					continue
				}
				if n, ok := msg.(*bgp.Notification); !ok || n.Code != notifHoldTimerExpired {
					t.Fatalf("got message type %d (%+v), want NOTIFICATION code %d", typ, msg, notifHoldTimerExpired)
				}
				break
			}
			if m.HoldExpiries.Value() == 0 {
				t.Fatal("hold expiry not counted")
			}
			if row.peerActive {
				select {
				case graceful := <-downs:
					if graceful {
						t.Fatal("hold expiry reported as graceful")
					}
				case <-time.After(5 * time.Second):
					t.Fatal("session end never reported")
				}
			}
		})
	}
}

// TestSpeakerReconnects kills the server side of an established session
// abruptly and expects the speaker to re-dial with backoff and reach
// Established again on the replacement listener.
func TestSpeakerReconnects(t *testing.T) {
	m := NewMetrics()
	cfg := testSessionConfig()

	established := make(chan uint32, 4)
	l1, err := Listen("127.0.0.1:0", 65500, cfg, Hooks{
		OnEstablished: func(peer uint32) { established <- peer },
	}, m)
	if err != nil {
		t.Fatal(err)
	}
	addr := l1.Addr()

	sp := Dial(addr, 300, cfg, m)
	defer sp.Close()
	select {
	case <-established:
	case <-time.After(5 * time.Second):
		t.Fatal("first session never established")
	}

	// Tear the server down abruptly; the speaker's session dies and its
	// FSM re-enters Connect with backoff.
	l1.Close()
	l2, err := Listen(addr, 65500, cfg, Hooks{
		OnEstablished: func(peer uint32) { established <- peer },
	}, m)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	defer l2.Close()

	select {
	case peer := <-established:
		if peer != 300 {
			t.Fatalf("reconnected peer = AS%d, want AS300", peer)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("speaker never reconnected")
	}
	// The speaker counts the reconnect when its own half of the handshake
	// returns, which can trail the listener's OnEstablished.
	waitFor(t, 5*time.Second, "the reconnect to be counted", func() bool { return m.Reconnects.Value() > 0 })
	// The re-established session still carries updates.
	_, enc := testUpdate(t, bgp.Prefix{Addr: 0xcb007106, Len: 32}, 300)
	if err := sp.Send(enc); err != nil {
		t.Fatalf("send after reconnect: %v", err)
	}
}
