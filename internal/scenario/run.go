package scenario

import (
	"fmt"
	"time"

	"repro/internal/bgp"
	"repro/internal/fabric"
	"repro/internal/ipfix"
	"repro/internal/obs"
	"repro/internal/routeserver"
	"repro/internal/stats"
)

// Sinks receives the simulation's measurement streams.
type Sinks struct {
	// Control receives every BGP message at the route server (wired to
	// an MRT writer in production use). May be nil.
	Control routeserver.Collector
	// Flow receives every sampled flow record, one batch per injected
	// packet batch (wired to an IPFIX writer). The sink borrows each
	// batch per the ipfix.RecordBatch contract. Required.
	Flow ipfix.BatchSink
	// Metrics, when non-nil, receives the route server's and the
	// fabric's observability metrics ("routeserver.*", "fabric.*").
	// Snapshot after RunFederated returns.
	Metrics *obs.Registry
}

// Executor receives the planned world's totally ordered action stream
// from Drive: BGP control messages and packet batches, interleaved
// chronologically. Every Inject must see the forwarding state of every
// Control before it — Drive relies on this for determinism. The
// in-process Exchange has the route server process the update inside
// Control; the live executor's Control returns while the update may
// still be on the wire, and its Inject waits for it. Drive makes every
// call on the goroutine that called it.
type Executor interface {
	// Control delivers one UPDATE from peerAS timestamped ts.
	Control(ts time.Time, peerAS uint32, upd *bgp.Update) error
	// Inject offers one packet batch to the switching fabric. b is valid
	// only for the call: Drive reuses a day's buffer two days later.
	Inject(b *fabric.Batch) error
}

// AheadSender is an Executor that takes control UPDATEs ahead of their
// turn. Before a day's first Control or Inject, Drive hands it the day's
// UPDATEs, one SendAhead each, in the order of the Control calls that
// follow; each Control then names the UPDATE whose turn has come (the
// peer's oldest one sent ahead). An executor without it sees only the
// Control and Inject stream.
type AheadSender interface {
	SendAhead(peerAS uint32, upd *bgp.Update) error
}

// DriveStats summarizes the actions Drive dispatched.
type DriveStats struct {
	Announcements int // UPDATE messages announcing RTBH prefixes
	Withdrawals   int // UPDATE messages withdrawing RTBH prefixes
	// Batches counts the packet batches dispatched to Executor.Inject.
	Batches int64
	// SplitSegments counts the batches among them that are pieces of a
	// generated batch cut at mitigation transitions.
	SplitSegments int64
	// MaxDayBatches is the largest number of batches any one day held:
	// the size a day buffer grows to. Like SplitSegments, it counts the
	// days dispatched, not a day generated ahead.
	MaxDayBatches int
	// DispatchWait is how long dispatch waited for a generated day, the
	// first day's generation included; GenerateWait is how long
	// generation waited for dispatch to free a day buffer: a long
	// DispatchWait means generation bounds the run, a long GenerateWait
	// that the executor does.
	DispatchWait, GenerateWait time.Duration
}

// NewRouteServer constructs the route server of the planned world with
// every member session registered, exactly as RunFederated does. Each
// member's registered address space is the victim blocks it announces
// for, which arms the route server's FlowSpec originator validation.
func NewRouteServer(w *World) (*routeserver.Server, error) {
	space := make(map[uint32][]bgp.Prefix)
	for _, v := range w.VictimASes {
		space[v.Peer] = append(space[v.Peer], v.Block)
	}
	rs := routeserver.New(w.RSASN, w.RSIP)
	for _, m := range w.Members {
		p := routeserver.Peer{ASN: m.ASN, IP: m.IP, Policy: m.Policy, Space: space[m.ASN]}
		if err := rs.AddPeer(p); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// Exchange is the unit every run wires: one route server and the
// switching fabric that forwards by its state. It is also the in-process
// Executor of its own exchange: control messages go straight to the
// route server, batches straight to the fabric.
type Exchange struct {
	RS *routeserver.Server
	FB *fabric.Fabric
	// FlowRecords counts the sampled flow records the fabric emitted.
	FlowRecords int64
}

func (x *Exchange) Control(ts time.Time, peerAS uint32, upd *bgp.Update) error {
	_, err := x.RS.Process(ts, peerAS, upd)
	return err
}

func (x *Exchange) Inject(b *fabric.Batch) error { return x.FB.Inject(b) }

// newExchanges builds the federation's exchanges inside Drive's build
// callback, one per entry of sinks: a route server with every member
// session and sinks[i].Control as its collector hook, a fabric emitting
// into sinks[i].Flow on the exchange's clock offset, and both registered
// on sinks[i].Metrics. All fabrics draw from one sample source forked
// from fabricRNG exactly as fabric.New forks it, so a single exchange
// reproduces the unfederated data plane bit for bit and N exchanges
// partition it (exactly, when MultiHomedShare is zero).
func newExchanges(fed *Federation, fabricRNG *stats.RNG, sinks []Sinks) ([]*Exchange, error) {
	if len(sinks) != fed.N {
		return nil, fmt.Errorf("scenario: %d sinks for %d IXPs", len(sinks), fed.N)
	}
	w := fed.W
	src, err := fabric.NewSampleSource(w.Cfg.SamplingRate, fabricRNG)
	if err != nil {
		return nil, err
	}
	xs := make([]*Exchange, fed.N)
	for i, s := range sinks {
		if s.Flow == nil {
			return nil, fmt.Errorf("scenario: Sinks[%d].Flow is required", i)
		}
		x := &Exchange{}
		if x.RS, err = NewRouteServer(w); err != nil {
			return nil, err
		}
		if s.Control != nil {
			x.RS.SetCollector(s.Control)
		}
		x.FB, err = fabric.NewWithSource(x.RS, src, func(b *ipfix.RecordBatch) error {
			x.FlowRecords += int64(b.Len())
			return s.Flow(b)
		})
		if err != nil {
			return nil, err
		}
		x.FB.ClockOffset = fed.ClockOffsets[i]
		if s.Metrics != nil {
			x.RS.RegisterMetrics(s.Metrics)
			x.FB.RegisterMetrics(s.Metrics)
		}
		xs[i] = x
	}
	return xs, nil
}

// RunFederated is the one driver of every run: each control message and
// batch of Drive's totally ordered action stream goes to the executor of
// the exchange the federation routes it to. With over nil that is the
// exchange itself, in process; the live driver's over puts its transports
// in front of each exchange as it is built. N exchanges partition the
// single exchange's streams. sinks has one entry per exchange. Exchanges
// and stats come back even when an executor failed mid-run.
func RunFederated(fed *Federation, sinks []Sinks, over func(i int, x *Exchange) (Executor, error)) ([]*Exchange, *DriveStats, error) {
	var xs []*Exchange
	st, err := Drive(fed.W, func(fabricRNG *stats.RNG) (Executor, error) {
		var err error
		if xs, err = newExchanges(fed, fabricRNG, sinks); err != nil {
			return nil, err
		}
		exs := make([]Executor, len(xs))
		for i, x := range xs {
			exs[i] = x
			if over != nil {
				if exs[i], err = over(i, x); err != nil {
					return nil, err
				}
			}
		}
		return fed.Route(exs), nil
	})
	return xs, st, err
}
