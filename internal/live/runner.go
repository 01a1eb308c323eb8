package live

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro/internal/bgp"
	"repro/internal/faultnet"
	"repro/internal/ipfix"
)

// RunnerConfig tunes the live services.
type RunnerConfig struct {
	// Session configures the BGP session FSM timers.
	Session SessionConfig
	// QueueLen bounds the collector ingest queue (0: DefaultQueueLen),
	// and with it the exporter's credit window.
	QueueLen int
	// DrainTimeout bounds barriers, the final collector drain and how
	// long a credit wait may see no progress (0: 30s).
	DrainTimeout time.Duration
	// Fault, if set, impairs the transports with the plan's seeded
	// schedules: every speaker connection is wrapped and every exported
	// datagram routed through the UDP schedule.
	Fault *faultnet.Plan
}

// faultRestartTolerance is how long an ungraceful peer-down may wait for
// its session to re-establish before the peer's routes are flushed, when
// a fault plan is set: injected kills always recover, so the flush would
// only desync the control plane from the batch run. Without one a
// peer-down flushes at once.
const faultRestartTolerance = 5 * time.Second

func (c *RunnerConfig) fill() {
	c.Session.fill()
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
}

// Runner owns one live run's services: the route server's BGP listener
// fed through a Sequencer, one Speaker per scenario peer (dialed
// lazily), and the IPFIX exporter/collector pair over UDP. All methods
// except Shutdown are driven from the single scenario driver goroutine.
//
// The exporter paces on collector credit: before each datagram it waits
// until its records in flight — exported, not yet accounted by the
// collector as collected or dropped — fit a window no larger than the
// ingest queue holds, so the queue never sheds what the network
// delivered, and the run advances at the analyzer's pace.
type Runner struct {
	cfg RunnerConfig
	m   *Metrics
	ctx context.Context
	// window is the credit window in records; draining is set once Drain
	// has begun, after which a cancelled ctx no longer aborts a credit
	// wait: the drain still flushes the last message.
	window   int64
	draining bool

	seq       *Sequencer
	listener  *Listener
	speakers  map[uint32]*Speaker
	exporter  *Exporter
	expConn   net.Conn
	collector *Collector
	guard     *restartGuard
}

// NewRunner starts the services on loopback: deliver receives totally
// ordered updates (wire to routeserver.Server.Process), onPeerFlush is
// invoked for ungraceful session loss (wire to
// routeserver.Server.PeerDown), flowSink receives collected flow records
// in export order, one batch per decoded datagram (wire to the archive
// writer and the online analyzer). ctx aborts the run early: SendAhead,
// Release, SendUpdate and Barrier return ctx.Err() once it is cancelled.
func NewRunner(ctx context.Context, cfg RunnerConfig, m *Metrics,
	deliver func(ts time.Time, peer uint32, upd *bgp.Update) error,
	onPeerFlush func(peer uint32),
	flowSink ipfix.BatchSink,
) (*Runner, error) {
	cfg.fill()
	if m == nil {
		m = NewMetrics()
	}
	r := &Runner{cfg: cfg, m: m, ctx: ctx, speakers: make(map[uint32]*Speaker)}
	r.seq = NewSequencer(deliver, m)
	var tolerance time.Duration
	if cfg.Fault != nil {
		tolerance = faultRestartTolerance
	}
	r.guard = newRestartGuard(tolerance, onPeerFlush, m)

	hooks := Hooks{
		OnUpdate:      r.seq.Arrive,
		OnEstablished: r.guard.peerUp,
		OnPeerDown:    r.guard.peerDown,
	}
	var err error
	r.listener, err = Listen("127.0.0.1:0", 0, cfg.Session, hooks, m)
	if err != nil {
		return nil, err
	}

	cc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		r.listener.Close()
		return nil, fmt.Errorf("live: collector socket: %w", err)
	}
	r.collector = NewCollector(cc, cfg.QueueLen, flowSink, m)

	ec, err := net.Dial("udp", cc.LocalAddr().String())
	if err != nil {
		r.Shutdown()
		return nil, fmt.Errorf("live: exporter socket: %w", err)
	}
	r.expConn = ec
	r.exporter, err = NewExporter(ec, 1, MaxDatagram, m)
	if err != nil {
		r.Shutdown()
		return nil, err
	}
	if cfg.Fault != nil {
		if err := r.exporter.SetFault(cfg.Fault.UDP()); err != nil {
			r.Shutdown()
			return nil, err
		}
	}
	impaired := r.exporter.fault != nil && !r.exporter.fault.Inert()
	r.window = int64(creditMsgs(cap(r.collector.queue), impaired) * r.exporter.p.Limit)
	r.exporter.p.Wait = r.awaitCredit
	return r, nil
}

// creditMsgs is the credit window in full messages for an ingest queue
// of queueLen datagrams. Besides the credited datagrams the queue may
// hold one Sync (awaitCredit sends one at a time); under an impairing
// schedule every credited datagram may also drag a duplicate and a
// released reorder hold behind it, and the last one finished may have
// left its two still queued.
func creditMsgs(queueLen int, impaired bool) int {
	if impaired {
		return max((queueLen-3)/3, 1)
	}
	return max(queueLen-1, 1)
}

// creditStall is how long a credit wait lets the collector sit idle
// without progress before it sends a Sync: the records still unaccounted
// then were lost on the way, and only a later datagram reveals the gap.
const creditStall = 2 * time.Millisecond

// awaitCredit blocks until records more fit the credit window. While the
// collector is idle and unaccounted records remain it sends a Sync, one
// at a time. It fails when the collector's sink fails or its decoder
// stops, when ctx is cancelled before Drain, and when the collector
// accounts nothing for DrainTimeout.
func (r *Runner) awaitCredit(records int) error {
	c := r.collector
	fits := func(accounted int64) bool {
		return r.m.ExportedRecords.Value()-accounted+int64(records) <= r.window
	}
	if fits(c.Accounted()) {
		return nil
	}
	defer r.m.CreditWait.Start().End()
	var cancelled <-chan struct{}
	if !r.draining {
		cancelled = r.ctx.Done()
	}
	tick := time.NewTicker(creditStall)
	defer tick.Stop()
	accounted, progress, synced := c.Accounted(), time.Now(), int64(-1)
	for {
		select {
		case <-c.credit:
		case <-tick.C:
		case <-c.done:
			if err := c.err(); err != nil {
				return err
			}
			return fmt.Errorf("live: collector stopped with %d of %d records accounted",
				c.Accounted(), r.m.ExportedRecords.Value())
		case <-cancelled:
			return r.ctx.Err()
		}
		now, acc := time.Now(), c.Accounted()
		if fits(acc) {
			return nil
		}
		if acc != accounted {
			accounted, progress = acc, now
			continue
		}
		if stalled := now.Sub(progress); stalled >= r.cfg.DrainTimeout {
			return fmt.Errorf("live: no collector credit for %v: %d of %d records accounted",
				stalled.Round(time.Millisecond), acc, r.m.ExportedRecords.Value())
		} else if h := c.handled.Load(); stalled >= creditStall && h != synced && c.idle() {
			synced = h
			if err := r.exporter.Sync(); err != nil {
				return err
			}
		}
	}
}

// SetRouteServerASN records the ASN the listener announces in its OPENs.
// Purely cosmetic for the wire exchange; may be called before the first
// speaker dials.
func (r *Runner) SetRouteServerASN(asn uint32) { r.listener.asn = asn }

// SendAhead sends one control update ahead of its turn: it registers the
// send with the sequencer, then writes the canonically encoded UPDATE on
// the peer's session (dialing it first if needed). The route server
// processes it only once Release gives it its turn.
func (r *Runner) SendAhead(peer uint32, upd *bgp.Update) error {
	if err := r.ctx.Err(); err != nil {
		return err
	}
	msg, err := bgp.EncodeUpdate(upd)
	if err != nil {
		return err
	}
	sp := r.speakers[peer]
	if sp == nil {
		cfg := r.cfg.Session
		if r.cfg.Fault != nil {
			cfg.Wrap = r.cfg.Fault.TCP(peer).Wrap
		}
		sp = Dial(r.listener.Addr(), peer, cfg, r.m)
		r.speakers[peer] = sp
	}
	r.seq.Sent(peer)
	return sp.Send(msg)
}

// Release gives the oldest update sent ahead to peer its turn in the
// run's total order, with logical timestamp ts. It does not wait for the
// update to arrive: the next Barrier does.
func (r *Runner) Release(ts time.Time, peer uint32) error {
	if err := r.ctx.Err(); err != nil {
		return err
	}
	return r.seq.Release(ts, peer)
}

// SendUpdate dispatches one control update at its turn: SendAhead, then
// Release.
func (r *Runner) SendUpdate(ts time.Time, peer uint32, upd *bgp.Update) error {
	if err := r.SendAhead(peer, upd); err != nil {
		return err
	}
	return r.Release(ts, peer)
}

// Barrier waits until every released update has been delivered.
func (r *Runner) Barrier() error {
	if err := r.ctx.Err(); err != nil {
		return err
	}
	return r.seq.Barrier(r.cfg.DrainTimeout)
}

// ExportFlowBatch hands one batch of sampled flow records to the IPFIX
// exporter, waiting for collector credit before each datagram.
func (r *Runner) ExportFlowBatch(b *ipfix.RecordBatch) error { return r.exporter.ExportBatch(b) }

// Drain completes the streams without tearing sessions down: a final
// barrier, the drop of every update sent ahead but never released, an
// exporter flush, and a wait for the collector to account for every
// exported record. Call once driving is done (or aborted).
//
// A tail drop — injected, or lost by the kernel — leaves no later
// datagram to reveal its sequence gap, so the drain repeatedly emits
// Sync messages (exempt from impairment) carrying the final sequence
// number until the collector has accounted for every record. The flush
// waits for credit even on a cancelled run. Under a fault plan recovery must complete first — every
// killed session re-established, every deferred peer-down cancelled —
// or shutdown could strand a reconnect and break the kills==reconnects
// reconciliation.
func (r *Runner) Drain() error {
	// On an aborted run the barrier may legitimately time out (a send
	// may have failed); drain the flow stream regardless so the archive
	// is consistent with what was delivered.
	err := r.seq.Barrier(r.cfg.DrainTimeout)
	r.seq.Drop()
	r.draining = true
	if ferr := r.exporter.Flush(); err == nil {
		err = ferr
	}
	deadline := time.Now().Add(r.cfg.DrainTimeout)
	if r.cfg.Fault != nil {
		if rerr := r.awaitRecovery(deadline); err == nil {
			err = rerr
		}
	}
	var derr error
	for {
		if derr = r.exporter.Sync(); derr != nil {
			break
		}
		derr = r.collector.Drain(r.exporter.Exported(), 100*time.Millisecond)
		// Only a timeout is worth another Sync: a failed sink stays failed.
		if derr == nil || r.collector.err() != nil || !time.Now().Before(deadline) {
			break
		}
	}
	if err == nil {
		err = derr
	}
	return err
}

// awaitRecovery blocks until every injected connection kill has been
// answered by a reconnect and no deferred peer-down flush is pending.
func (r *Runner) awaitRecovery(deadline time.Time) error {
	for {
		kills := r.cfg.Fault.M.TCPKills.Value()
		if r.m.Reconnects.Value() >= kills && r.guard.pending() == 0 {
			return nil
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("live: recovery incomplete at drain deadline: %d kills, %d reconnects, %d deferred peer-downs",
				kills, r.m.Reconnects.Value(), r.guard.pending())
		}
		time.Sleep(time.Millisecond)
	}
}

// Reconcile verifies the shutdown invariants: every sent update was
// delivered or dropped unreleased, and every exported record is accounted
// for as collected or dropped.
func (r *Runner) Reconcile() error {
	if err := r.seq.Err(); err != nil {
		return err
	}
	sent, delivered, unreleased := r.m.UpdatesSent.Value(), r.m.UpdatesDelivered.Value(), r.m.UpdatesUnreleased.Value()
	if sent != delivered+unreleased {
		return fmt.Errorf("live: %d updates sent but %d delivered and %d unreleased", sent, delivered, unreleased)
	}
	exported := r.m.ExportedRecords.Value()
	accounted := r.collector.Accounted()
	if exported != accounted {
		return fmt.Errorf("live: %d records exported but %d accounted (collected %d + dropped %d)",
			exported, accounted, r.m.CollectedRecords.Value(), r.m.DroppedRecords.Value())
	}
	return nil
}

// Shutdown closes everything: speakers first (graceful Cease, so the
// route server does not flush their routes), then the listener and the
// collector. Always safe to call, including on partially constructed
// runners and after Drain.
func (r *Runner) Shutdown() error {
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first = err
		}
	}
	for _, sp := range r.speakers {
		keep(sp.Close())
	}
	if r.listener != nil {
		keep(r.listener.Close())
	}
	if r.guard != nil {
		r.guard.stop()
	}
	if r.expConn != nil {
		keep(r.expConn.Close())
	}
	if r.collector != nil {
		keep(r.collector.Close())
	}
	return first
}
