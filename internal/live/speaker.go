package live

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/bgp"
	"repro/internal/faultnet"
	"repro/internal/stats"
)

// Speaker is the active (connecting) side of a BGP session: one scenario
// peer talking to the route server's listener. It owns a background FSM
// goroutine that dials, handshakes, keeps the session alive, and
// reconnects with jittered exponential backoff after failures.
type Speaker struct {
	asn  uint32
	addr string
	cfg  SessionConfig
	m    *Metrics
	rng  *stats.RNG // backoff jitter; per-speaker, seeded by ASN

	mu    sync.Mutex
	cond  *sync.Cond
	state State
	conn  *session
	err   error // sticky fatal error
	done  chan struct{}

	wg sync.WaitGroup
}

// Dial starts a speaker for peer ASN asn against the listener at addr.
// The session is established asynchronously; Send blocks until it is.
func Dial(addr string, asn uint32, cfg SessionConfig, m *Metrics) *Speaker {
	cfg.fill()
	if m == nil {
		m = NewMetrics()
	}
	s := &Speaker{
		asn:   asn,
		addr:  addr,
		cfg:   cfg,
		m:     m,
		rng:   stats.NewRNG(0xbac0ff ^ uint64(asn)),
		state: StateIdle,
		done:  make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(1)
	go s.run()
	return s
}

// State returns the current FSM state.
func (s *Speaker) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

func (s *Speaker) setState(st State, conn *session) {
	s.mu.Lock()
	s.state = st
	s.conn = conn
	s.cond.Broadcast()
	s.mu.Unlock()
}

// setConn records the in-progress connection so Close can tear it down
// even mid-handshake.
func (s *Speaker) setConn(conn *session) {
	s.mu.Lock()
	s.conn = conn
	s.mu.Unlock()
}

func (s *Speaker) isClosed() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// run is the FSM loop: Connect → OpenSent → OpenConfirm → Established,
// back to Connect (after backoff) whenever the session dies.
func (s *Speaker) run() {
	defer s.wg.Done()
	attempt := 0
	established := 0
	for {
		if s.isClosed() {
			s.setState(StateIdle, nil)
			return
		}
		s.setState(StateConnect, nil)
		var (
			conn *session
			r    *msgReader
		)
		c, err := net.DialTimeout("tcp", s.addr, s.cfg.HoldTime)
		if err == nil {
			if s.cfg.Wrap != nil {
				c = s.cfg.Wrap(c)
			}
			conn = &session{Conn: c, hold: s.cfg.HoldTime}
			r = &msgReader{c: conn}
			s.setConn(conn)
			err = s.handshake(conn, r)
			if err != nil {
				conn.Close()
			}
		}
		if err != nil {
			if s.isClosed() {
				s.setState(StateIdle, nil)
				return
			}
			select {
			case <-s.done:
			case <-time.After(nextBackoff(s.cfg.ReconnectMin, s.cfg.ReconnectMax, attempt, s.rng)):
			}
			attempt++
			continue
		}
		attempt = 0
		if established > 0 {
			s.m.Reconnects.Inc()
		}
		established++
		s.m.SessionsEstablished.Inc()
		s.setState(StateEstablished, conn)

		// Updates from the route server (Adj-RIB-Out announcements) are
		// acknowledged receipt only — scenario peers do not keep a local
		// RIB — and any end of the session is a reason to reconnect.
		conn.pump(r, &s.wg, s.m, s.isClosed, nil)
		conn.Close()
		s.setState(StateIdle, nil)
	}
}

// handshake runs the active-side open exchange on a fresh connection,
// reading through r, the connection's reader.
func (s *Speaker) handshake(conn *session, r *msgReader) error {
	deadline := time.Now().Add(s.cfg.HoldTime)
	conn.SetDeadline(deadline)
	defer conn.SetDeadline(time.Time{})

	open, err := encodeOpen(s.asn, s.cfg.holdTimeSecs())
	if err != nil {
		return err
	}
	if _, err := conn.Write(open); err != nil {
		return fmt.Errorf("live: sending OPEN: %w", err)
	}
	s.setState(StateOpenSent, conn)

	typ, _, err := r.read()
	if err != nil {
		return fmt.Errorf("live: awaiting OPEN: %w", err)
	}
	if typ != bgp.MsgOpen {
		return fmt.Errorf("live: expected OPEN, got message type %d", typ)
	}
	if _, err := conn.Write(bgp.EncodeKeepalive()); err != nil {
		return err
	}
	s.setState(StateOpenConfirm, conn)

	typ, _, err = r.read()
	if err != nil {
		return fmt.Errorf("live: awaiting KEEPALIVE: %w", err)
	}
	if typ != bgp.MsgKeepalive {
		return fmt.Errorf("live: expected KEEPALIVE, got message type %d", typ)
	}
	return nil
}

// Send transmits one encoded BGP message on the session, blocking until
// the session is established. An ordinary write error is returned to the
// caller: the message may or may not have reached the peer, so resending
// could double-deliver. The one exception is faultnet.ErrConnKilled,
// which guarantees zero bytes of msg were written — the injected kill
// landed on an earlier message boundary — so Send waits for the FSM to
// establish a replacement session and resends there, preserving
// exactly-once delivery under injected connection kills.
func (s *Speaker) Send(msg []byte) error {
	var failed *session
	for {
		s.mu.Lock()
		for s.err == nil && !s.isClosed() &&
			!(s.state == StateEstablished && s.conn != failed) {
			s.cond.Wait()
		}
		conn, err := s.conn, s.err
		closed := s.isClosed()
		s.mu.Unlock()
		if err != nil {
			return err
		}
		if closed {
			return errors.New("live: speaker closed")
		}
		werr := conn.write(msg, conn.hold)
		if werr == nil {
			s.m.UpdatesSent.Inc()
			return nil
		}
		if !errors.Is(werr, faultnet.ErrConnKilled) {
			return fmt.Errorf("live: AS%d send: %w", s.asn, werr)
		}
		s.m.SendRetries.Inc()
		failed = conn
	}
}

// Close gracefully ends the session: a Cease NOTIFICATION, then the
// connection. Safe to call more than once.
func (s *Speaker) Close() error {
	s.mu.Lock()
	select {
	case <-s.done:
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	default:
	}
	close(s.done)
	conn := s.conn
	s.cond.Broadcast()
	s.mu.Unlock()
	if conn != nil {
		conn.sendNotification(notifCease)
		// Let the peer read the Cease and close its side first: closing
		// immediately can reset the connection while inbound keepalives
		// sit unread in our receive buffer, and the RST would destroy the
		// in-flight NOTIFICATION — turning this orderly close into what
		// the peer must treat as a transport failure.
		grace := s.cfg.HoldTime
		if grace > time.Second {
			grace = time.Second
		}
		s.waitIdle(grace)
		conn.Close()
	}
	s.wg.Wait()
	return nil
}

// waitIdle blocks until the FSM has left the session (state Idle) or the
// timeout elapses.
func (s *Speaker) waitIdle(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	tm := time.AfterFunc(timeout, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer tm.Stop()
	s.mu.Lock()
	for s.state != StateIdle && time.Now().Before(deadline) {
		s.cond.Wait()
	}
	s.mu.Unlock()
}
