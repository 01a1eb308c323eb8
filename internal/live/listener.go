package live

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/bgp"
)

// Hooks are the listener's callbacks into the route server. They are
// invoked from per-session goroutines; OnUpdate arrivals from different
// peers are concurrent (the Sequencer serializes them).
type Hooks struct {
	// OnUpdate delivers a decoded UPDATE received from peer.
	OnUpdate func(peer uint32, upd *bgp.Update)
	// OnEstablished fires when a peer session reaches Established.
	OnEstablished func(peer uint32)
	// OnPeerDown fires when a session ends. graceful is true for an
	// orderly Cease NOTIFICATION, false for hold-timer expiry or
	// transport failure — the case where a route server flushes the
	// peer's routes.
	OnPeerDown func(peer uint32, graceful bool)
}

// Listener is the passive (route-server) side of the BGP transport: it
// accepts speaker connections, runs the open exchange, and pumps decoded
// updates into the hooks.
type Listener struct {
	ln    net.Listener
	asn   uint32
	cfg   SessionConfig
	hooks Hooks
	m     *Metrics

	mu     sync.Mutex
	conns  map[*session]struct{}
	active map[uint32]chan struct{} // per-peer: closed when that peer's current session fully ends
	closed bool
	wg     sync.WaitGroup
}

// Listen starts a listener for route-server ASN asn on addr (use
// "127.0.0.1:0" for an ephemeral in-process port).
func Listen(addr string, asn uint32, cfg SessionConfig, hooks Hooks, m *Metrics) (*Listener, error) {
	cfg.fill()
	if m == nil {
		m = NewMetrics()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	l := &Listener{
		ln:     ln,
		asn:    asn,
		cfg:    cfg,
		hooks:  hooks,
		m:      m,
		conns:  make(map[*session]struct{}),
		active: make(map[uint32]chan struct{}),
	}
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// Addr returns the listener's address, suitable for Dial.
func (l *Listener) Addr() string { return l.ln.Addr().String() }

func (l *Listener) acceptLoop() {
	defer l.wg.Done()
	for {
		c, err := l.ln.Accept()
		if err != nil {
			return // listener closed
		}
		conn := &session{Conn: c, hold: l.cfg.HoldTime}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			conn.Close()
			return
		}
		l.conns[conn] = struct{}{}
		l.wg.Add(1)
		l.mu.Unlock()
		go l.serve(conn)
	}
}

func (l *Listener) forget(conn *session) {
	l.mu.Lock()
	delete(l.conns, conn)
	l.mu.Unlock()
}

// claimPeer installs this session as the peer's current one, returning
// the predecessor's completion channel (nil if none) and this session's
// own, which the caller must close when fully done.
func (l *Listener) claimPeer(peer uint32) (prev, done chan struct{}) {
	done = make(chan struct{})
	l.mu.Lock()
	prev = l.active[peer]
	l.active[peer] = done
	l.mu.Unlock()
	return prev, done
}

// serve runs one session end to end.
func (l *Listener) serve(conn *session) {
	defer l.wg.Done()
	defer l.forget(conn)
	defer conn.Close()

	conn.SetDeadline(time.Now().Add(l.cfg.HoldTime))
	r := &msgReader{c: conn}
	peer, err := l.readOpen(r)
	if err != nil {
		return // handshake failures are not peer-downs: no session existed
	}

	// Serialize sessions per peer: a replacement session (after an
	// injected kill, say) must not surface its first update while the
	// dead session's kernel-buffered backlog is still being drained, or
	// arrivals would interleave across connections and break the
	// sequencer's per-peer FIFO matching. The slot is claimed before our
	// OPEN goes out: the speaker cannot establish this session, let alone
	// lose it and dial the next, until it has read that OPEN, so claims
	// are taken in the order the speaker's sessions existed — claiming
	// after the handshake let a starved goroutine be overtaken by its
	// successor, which then ran first and stranded it. The predecessor's
	// slot closes only after its OnPeerDown has returned, which also
	// gives the restart guard a deterministic down-before-up ordering.
	// The wait is bounded by the hold time: a truly wedged predecessor
	// expires then. A session whose handshake fails waits too, so that
	// it hands its successor a slot that means "everything before you
	// is done".
	prev, done := l.claimPeer(peer)
	defer close(done)
	err = l.replyOpen(conn, r)
	conn.SetDeadline(time.Time{})
	if prev != nil {
		select {
		case <-prev:
		case <-time.After(l.cfg.HoldTime):
		}
	}
	if err != nil {
		return
	}

	l.m.SessionsEstablished.Inc()
	if l.hooks.OnEstablished != nil {
		l.hooks.OnEstablished(peer)
	}

	var onUpdate func(*bgp.Update)
	if l.hooks.OnUpdate != nil {
		onUpdate = func(upd *bgp.Update) { l.hooks.OnUpdate(peer, upd) }
	}
	graceful := conn.pump(r, &l.wg, l.m, l.isClosed, onUpdate)
	l.m.PeerDowns.Inc()
	if l.hooks.OnPeerDown != nil {
		l.hooks.OnPeerDown(peer, graceful)
	}
}

// readOpen is the first half of the passive-side open exchange: it reads
// the peer's OPEN and returns its 32-bit ASN (carried in the OPEN
// RouterID; see encodeOpen).
func (l *Listener) readOpen(r *msgReader) (uint32, error) {
	typ, msg, err := r.read()
	if err != nil {
		return 0, err
	}
	if typ != bgp.MsgOpen {
		return 0, fmt.Errorf("live: expected OPEN, got message type %d", typ)
	}
	return msg.(*bgp.Open).RouterID, nil
}

// replyOpen is the second half: our OPEN and KEEPALIVE out, the peer's
// KEEPALIVE in.
func (l *Listener) replyOpen(conn *session, r *msgReader) error {
	ours, err := encodeOpen(l.asn, l.cfg.holdTimeSecs())
	if err != nil {
		return err
	}
	if err := conn.write(ours, conn.hold); err != nil {
		return err
	}
	if err := conn.write(bgp.EncodeKeepalive(), conn.hold); err != nil {
		return err
	}
	typ, _, err := r.read()
	if err != nil {
		return err
	}
	if typ != bgp.MsgKeepalive {
		return fmt.Errorf("live: expected KEEPALIVE, got message type %d", typ)
	}
	return nil
}

func (l *Listener) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// Close stops accepting and gracefully ends every live session with a
// Cease NOTIFICATION.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.wg.Wait()
		return nil
	}
	l.closed = true
	conns := make([]*session, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()

	err := l.ln.Close()
	for _, c := range conns {
		c.sendNotification(notifCease)
		c.Close()
	}
	l.wg.Wait()
	return err
}
