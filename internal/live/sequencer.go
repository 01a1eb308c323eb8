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
// nor a global sequence number, so both travel out of band, and an
// update's send is split from its turn. The driver calls Sent right
// before handing an update to its speaker, which may be well before the
// update's turn, and Release when the turn comes: the peer's oldest
// unreleased update takes the next global sequence number and the
// logical timestamp. TCP preserves per-peer order, so the k-th arrival
// from a peer is the k-th update sent to it. Updates are delivered in
// release order: one that arrived before its release is delivered by
// Release itself, on the driver's goroutine, and one still on the wire
// by its arrival, once everything released before it was delivered.
// Deliveries therefore replay the exact dispatch interleaving regardless
// of how the kernel schedules the sessions, which is what keeps the live
// control plane — and the MRT archive the route server writes —
// byte-identical to the batch path.
type Sequencer struct {
	deliver func(ts time.Time, peer uint32, upd *bgp.Update) error
	m       *Metrics

	mu    sync.Mutex
	cond  *sync.Cond
	peers map[uint32]*peerQueue
	// turns holds the peers of the released, undelivered updates in
	// release order: turns[0]'s oldest update is the next delivery.
	turns               []uint32
	released, delivered uint64
	err                 error
}

// peerQueue is one peer's updates between Sent and delivery, oldest
// first. Per-peer order makes each state a prefix: q[:released] have
// their turn and q[:arrived] have arrived.
type peerQueue struct {
	q                 []inflight
	released, arrived int
	// dropped counts the updates Drop discarded before they arrived:
	// their arrivals are ignored.
	dropped int
}

type inflight struct {
	ts  time.Time
	upd *bgp.Update
}

// NewSequencer returns a sequencer that hands ordered updates to
// deliver. deliver runs with the sequencer's lock held: one delivery at
// a time, in global order.
func NewSequencer(deliver func(ts time.Time, peer uint32, upd *bgp.Update) error, m *Metrics) *Sequencer {
	if m == nil {
		m = NewMetrics()
	}
	s := &Sequencer{deliver: deliver, m: m, peers: make(map[uint32]*peerQueue)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Sent registers that one more UPDATE to peer is about to go on the
// wire. Call from the single driver goroutine, before the Send.
func (s *Sequencer) Sent(peer uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pq := s.peers[peer]
	if pq == nil {
		pq = &peerQueue{}
		s.peers[peer] = pq
	}
	pq.q = append(pq.q, inflight{})
}

// Release gives peer's oldest unreleased update the next global turn and
// the logical timestamp ts, and delivers whatever that turn makes
// deliverable. Call from the single driver goroutine, in dispatch order.
// It returns the sequencer's sticky failure, which a release with nothing
// sent to peer causes.
func (s *Sequencer) Release(ts time.Time, peer uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	pq := s.peers[peer]
	if pq == nil || pq.released == len(pq.q) {
		s.fail(fmt.Errorf("live: release of an update to AS%d with none sent", peer))
		return s.err
	}
	pq.q[pq.released].ts = ts
	pq.released++
	s.released++
	s.turns = append(s.turns, peer)
	s.drainLocked()
	return s.err
}

// Arrive matches a decoded update received from peer against the oldest
// sent update of that peer that has not arrived, and delivers it — plus
// any successors waiting on it — once it has its turn. Safe to call from
// concurrent per-session goroutines.
func (s *Sequencer) Arrive(peer uint32, upd *bgp.Update) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	pq := s.peers[peer]
	switch {
	case pq != nil && pq.arrived < len(pq.q):
		pq.q[pq.arrived].upd = upd
		pq.arrived++
		s.drainLocked()
	case pq != nil && pq.dropped > 0:
		pq.dropped--
	default:
		s.fail(fmt.Errorf("live: update from AS%d with none sent", peer))
	}
}

// drainLocked delivers released updates in release order for as long as
// the next one has arrived.
func (s *Sequencer) drainLocked() {
	for len(s.turns) > 0 {
		peer := s.turns[0]
		pq := s.peers[peer]
		if pq.arrived == 0 {
			return
		}
		u := pq.q[0]
		pq.q[0] = inflight{}
		pq.q = pq.q[1:]
		pq.released--
		pq.arrived--
		s.turns = s.turns[1:]
		if err := s.deliver(u.ts, peer, u.upd); err != nil {
			s.fail(fmt.Errorf("live: delivering update %d from AS%d: %w", s.delivered, peer, err))
			return
		}
		s.m.UpdatesDelivered.Inc()
		s.delivered++
		s.cond.Broadcast()
	}
}

func (s *Sequencer) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.cond.Broadcast()
}

// Drop discards every sent update that was never released — what a run
// interrupted mid-day sent ahead of turns it never reached — and counts
// them in UpdatesUnreleased. Their arrivals, now or later, are ignored,
// so nothing past the released prefix is ever delivered. Call once the
// driver has stopped.
func (s *Sequencer) Drop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, pq := range s.peers {
		n := len(pq.q) - pq.released
		pq.dropped += n - max(pq.arrived-pq.released, 0)
		pq.arrived = min(pq.arrived, pq.released)
		clear(pq.q[pq.released:])
		pq.q = pq.q[:pq.released]
		s.m.UpdatesUnreleased.Add(int64(n))
	}
}

// Pending returns how many released updates have not been delivered
// yet.
func (s *Sequencer) Pending() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.released - s.delivered
}

// Barrier blocks until every update released so far has been delivered
// (or the deadline passes, or a delivery failed). The driver calls it
// before each fabric injection so the data plane always sees the
// up-to-date control state, exactly as in the batch path.
//
// Nearly every call finds nothing in flight and returns without reading
// the clock or arming a timer: the wait is timed (BarrierWait), and the
// wake-up for the deadline set, only when the barrier waits.
func (s *Sequencer) Barrier(timeout time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil || s.delivered >= s.released {
		return s.err
	}

	defer s.m.BarrierWait.Start().End()
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer timer.Stop()
	for s.err == nil && s.delivered < s.released {
		if !time.Now().Before(deadline) {
			return fmt.Errorf("live: barrier timed out with %d of %d updates undelivered",
				s.released-s.delivered, s.released)
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
