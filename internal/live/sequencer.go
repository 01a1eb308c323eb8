package live

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/bgp"
)

// Sequencer restores the scenario's total order on updates that arrive
// over per-peer TCP sessions.
//
// The BGP wire format carries neither the scenario's logical timestamp
// nor a global sequence number, so both travel out of band: the driver
// calls Expect — in dispatch order, from a single goroutine — right
// before handing each update to its speaker, registering (global seq,
// logical ts) on a per-peer FIFO. TCP preserves per-peer order, so the
// k-th arrival from a peer matches the k-th expectation registered for
// that peer; the arrival is parked until every earlier global sequence
// number has been delivered, then handed to deliver. Deliveries therefore
// replay the exact dispatch interleaving regardless of how the kernel
// schedules the sessions, which is what keeps the live control plane —
// and the MRT archive the route server writes — byte-identical to the
// batch path.
type Sequencer struct {
	deliver func(ts time.Time, peer uint32, upd *bgp.Update) error
	m       *Metrics

	mu          sync.Mutex
	cond        *sync.Cond
	nextAssign  uint64
	nextDeliver uint64
	exp         map[uint32][]expectation
	parked      map[uint64]parkedUpdate
	err         error
}

type expectation struct {
	seq uint64
	ts  time.Time
}

type parkedUpdate struct {
	ts   time.Time
	peer uint32
	upd  *bgp.Update
}

// NewSequencer returns a sequencer that hands ordered updates to
// deliver. deliver runs with the sequencer's lock held: one delivery at
// a time, in global order.
func NewSequencer(deliver func(ts time.Time, peer uint32, upd *bgp.Update) error, m *Metrics) *Sequencer {
	if m == nil {
		m = NewMetrics()
	}
	s := &Sequencer{
		deliver: deliver,
		m:       m,
		exp:     make(map[uint32][]expectation),
		parked:  make(map[uint64]parkedUpdate),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Expect registers the next dispatched update: peer will send an UPDATE
// that must be delivered with logical timestamp ts, after everything
// registered before it. Call from the single driver goroutine, in
// dispatch order, before the corresponding Send.
func (s *Sequencer) Expect(ts time.Time, peer uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.exp[peer] = append(s.exp[peer], expectation{seq: s.nextAssign, ts: ts})
	s.nextAssign++
}

// Arrive matches a decoded update received from peer against the oldest
// outstanding expectation for that peer and delivers it — plus any
// parked successors — once its global turn comes. Safe to call from
// concurrent per-session goroutines.
func (s *Sequencer) Arrive(peer uint32, upd *bgp.Update) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	q := s.exp[peer]
	if len(q) == 0 {
		s.fail(fmt.Errorf("live: update from AS%d without a registered expectation", peer))
		return
	}
	e := q[0]
	s.exp[peer] = q[1:]
	s.parked[e.seq] = parkedUpdate{ts: e.ts, peer: peer, upd: upd}
	s.drainLocked()
}

// drainLocked delivers every parked update whose turn has come.
func (s *Sequencer) drainLocked() {
	for {
		p, ok := s.parked[s.nextDeliver]
		if !ok {
			return
		}
		delete(s.parked, s.nextDeliver)
		if err := s.deliver(p.ts, p.peer, p.upd); err != nil {
			s.fail(fmt.Errorf("live: delivering update %d from AS%d: %w", s.nextDeliver, p.peer, err))
			return
		}
		s.m.UpdatesDelivered.Inc()
		s.nextDeliver++
		s.cond.Broadcast()
	}
}

func (s *Sequencer) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.cond.Broadcast()
}

// Pending returns how many registered updates have not been delivered
// yet.
func (s *Sequencer) Pending() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextAssign - s.nextDeliver
}

// Barrier blocks until every update registered so far has been delivered
// (or the deadline passes, or a delivery failed). The driver calls it
// before each fabric injection so the data plane always sees the
// up-to-date control state, exactly as in the batch path.
//
// Nearly every call finds nothing in flight and returns without arming a
// timer: the wake-up for the deadline is set only when the barrier waits.
func (s *Sequencer) Barrier(timeout time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil || s.nextDeliver >= s.nextAssign {
		return s.err
	}

	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer timer.Stop()
	for s.err == nil && s.nextDeliver < s.nextAssign {
		if !time.Now().Before(deadline) {
			return fmt.Errorf("live: barrier timed out with %d of %d updates undelivered",
				s.nextAssign-s.nextDeliver, s.nextAssign)
		}
		s.cond.Wait()
	}
	return s.err
}

// Err returns the sticky failure, if any.
func (s *Sequencer) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
