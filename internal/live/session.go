package live

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/bgp"
	"repro/internal/stats"
)

// State is the position of a session in the (simplified) RFC 4271 FSM.
type State int32

const (
	StateIdle State = iota
	StateConnect
	StateOpenSent
	StateOpenConfirm
	StateEstablished
)

func (s State) String() string {
	switch s {
	case StateIdle:
		return "Idle"
	case StateConnect:
		return "Connect"
	case StateOpenSent:
		return "OpenSent"
	case StateOpenConfirm:
		return "OpenConfirm"
	case StateEstablished:
		return "Established"
	}
	return fmt.Sprintf("State(%d)", int32(s))
}

// SessionConfig tunes the session FSM timers.
type SessionConfig struct {
	// HoldTime is the negotiated hold time; a session with no message for
	// this long is torn down with a hold-timer-expired NOTIFICATION
	// (RFC 4271 §6.5). Keepalives go out every HoldTime/3.
	HoldTime time.Duration
	// ReconnectMin/Max bound the speaker's jittered exponential
	// reconnect backoff (see nextBackoff).
	ReconnectMin, ReconnectMax time.Duration
	// Wrap, if set, is installed on every freshly dialed connection
	// before the open exchange. It is the seam the faultnet impairment
	// middleware plugs into; nil means the raw connection is used.
	Wrap func(net.Conn) net.Conn
}

// DefaultSessionConfig returns timers suitable for in-process loopback
// sessions: short enough for tests to exercise expiry, long enough that a
// busy run never falsely expires.
func DefaultSessionConfig() SessionConfig {
	return SessionConfig{
		HoldTime:     30 * time.Second,
		ReconnectMin: 50 * time.Millisecond,
		ReconnectMax: 2 * time.Second,
	}
}

func (c *SessionConfig) fill() {
	if c.HoldTime <= 0 {
		c.HoldTime = DefaultSessionConfig().HoldTime
	}
	if c.ReconnectMin <= 0 {
		c.ReconnectMin = DefaultSessionConfig().ReconnectMin
	}
	if c.ReconnectMax < c.ReconnectMin {
		c.ReconnectMax = c.ReconnectMin
	}
}

// nextBackoff returns the delay before reconnect attempt number attempt
// (zero-based): exponential from min, capped at max, with uniform jitter
// in [d/2, d) so a fleet of speakers knocked over by the same event does
// not reconnect in lockstep (the classic thundering-herd fix; compare
// the fixed ladder this replaced, which synchronized every speaker onto
// the same retry schedule).
func nextBackoff(min, max time.Duration, attempt int, rng *stats.RNG) time.Duration {
	d := min
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := d / 2
	return half + time.Duration(rng.Float64()*float64(d-half))
}

// holdTimeSecs clamps the hold time for the 16-bit OPEN field.
func (c SessionConfig) holdTimeSecs() uint16 {
	s := int64(c.HoldTime / time.Second)
	if s < 1 {
		s = 1
	}
	if s > 65535 {
		s = 65535
	}
	return uint16(s)
}

// BGP has no framing beyond the message header itself: read the 19-byte
// header off the stream, then the remainder indicated by its length
// field. The reads go through a buffer, so one system call takes in
// whatever the kernel has queued, not one message part at a time; a
// connection therefore has one msgReader for its whole life. buf is
// reused across reads.
type msgReader struct {
	c   net.Conn
	br  *bufio.Reader
	buf []byte
}

// read returns the next complete BGP message, decoded. The raw bytes are
// only valid until the next call.
func (r *msgReader) read() (byte, any, error) {
	const headerLen, maxLen = 19, 4096
	if r.br == nil {
		r.br = bufio.NewReaderSize(r.c, maxLen)
		r.buf = make([]byte, maxLen)
	}
	hdr := r.buf[:headerLen]
	if _, err := io.ReadFull(r.br, hdr); err != nil {
		return 0, nil, err
	}
	length := int(binary.BigEndian.Uint16(hdr[16:18]))
	if length < headerLen || length > maxLen {
		return 0, nil, fmt.Errorf("live: invalid BGP message length %d", length)
	}
	msg := r.buf[:length]
	if _, err := io.ReadFull(r.br, msg[headerLen:]); err != nil {
		return 0, nil, fmt.Errorf("live: truncated BGP message: %w", err)
	}
	typ, decoded, _, err := bgp.DecodeMessage(msg)
	if err != nil {
		return 0, nil, err
	}
	return typ, decoded, nil
}

// encodeOpen builds the OPEN for a 32-bit ASN. The wire OPEN carries a
// 16-bit ASN field; larger ASNs send AS_TRANS there, and either way the
// full 32-bit ASN rides in RouterID (standing in for the AS4 capability,
// which the codec does not implement).
func encodeOpen(asn uint32, holdSecs uint16) ([]byte, error) {
	const asTrans = 23456
	as16 := uint16(asTrans)
	if asn < 1<<16 {
		as16 = uint16(asn)
	}
	return bgp.EncodeOpen(&bgp.Open{
		Version:  4,
		ASN:      as16,
		HoldTime: holdSecs,
		RouterID: asn,
	})
}

// notification codes used by the FSM (RFC 4271 §6).
const (
	notifHoldTimerExpired = 4
	notifCease            = 6
)

// session is one connection as either end runs an established BGP session
// on it: whole messages written under a lock, so keepalives, updates and
// close-time NOTIFICATIONs never interleave mid-message, and the pump.
// Listener and Speaker differ in their handshakes and in what replaces a
// session, not in this.
type session struct {
	net.Conn
	hold time.Duration // the negotiated hold time
	wmu  sync.Mutex
}

// write writes one whole BGP message under the write lock; every message
// of an established session gets the hold time to go out.
func (c *session) write(b []byte, timeout time.Duration) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.SetWriteDeadline(time.Now().Add(timeout))
	_, err := c.Conn.Write(b)
	return err
}

// sendNotification is best effort: the connection closes next.
func (c *session) sendNotification(code uint8) {
	if b, err := bgp.EncodeNotification(&bgp.Notification{Code: code}); err == nil {
		_ = c.write(b, time.Second)
	}
}

// pump runs the established session until it ends: a KEEPALIVE goes out
// every hold/3 from a goroutine counted on wg, every message read
// refreshes the hold timer, an UPDATE goes to onUpdate (nil discards it),
// and a session silent for the hold time gets the RFC 4271 §6.5
// NOTIFICATION, unless closed says this end is shutting down. It reports
// whether the peer's orderly Cease ended the session, not expiry or a
// transport failure.
func (c *session) pump(r *msgReader, wg *sync.WaitGroup, m *Metrics, closed func() bool, onUpdate func(*bgp.Update)) (graceful bool) {
	stop := make(chan struct{})
	defer close(stop)
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(c.hold / 3)
		defer t.Stop()
		ka := bgp.EncodeKeepalive()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if c.write(ka, c.hold) != nil {
					return
				}
			}
		}
	}()
	for {
		c.SetReadDeadline(time.Now().Add(c.hold))
		typ, msg, err := r.read()
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() && !closed() {
				m.HoldExpiries.Inc()
				c.sendNotification(notifHoldTimerExpired)
			}
			return false
		}
		switch typ {
		case bgp.MsgUpdate:
			if onUpdate != nil {
				onUpdate(msg.(*bgp.Update))
			}
		case bgp.MsgNotification:
			return msg.(*bgp.Notification).Code == notifCease
		}
	}
}
