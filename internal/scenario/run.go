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
	// batch per the ipfix.RecordBatch contract. Required. Per-record
	// consumers can adapt with ipfix.EachRecord.
	Flow ipfix.BatchSink
	// Metrics, when non-nil, receives the route server's and the
	// fabric's observability metrics ("routeserver.*", "fabric.*").
	// Snapshot after Run returns.
	Metrics *obs.Registry
}

// Result summarizes a completed run.
type Result struct {
	World         *World
	FabricStats   fabric.Stats
	ControlMsgs   int
	Announcements int // UPDATE messages announcing RTBH prefixes
	Withdrawals   int // UPDATE messages withdrawing RTBH prefixes
	FlowRecords   int64
	// FlowSpecAnnouncements/Withdrawals count FlowSpec control messages
	// (zero under the default mitigation policy).
	FlowSpecAnnouncements int
	FlowSpecWithdrawals   int
	// Mitigation is the fabric's ground-truth per-event mitigation
	// ledger, keyed by event ID.
	Mitigation map[int]fabric.EventMitigation
	// Drive is everything Drive counted, the generator's batch counts
	// included.
	Drive DriveStats
}

// Executor receives the planned world's totally ordered action stream
// from Drive: BGP control messages and packet batches, interleaved
// chronologically. Control must complete (the route server must have
// processed the update) before it returns, so that a subsequent Inject
// sees the new forwarding state — Drive relies on this for determinism.
type Executor interface {
	// Control delivers one UPDATE from peerAS timestamped ts.
	Control(ts time.Time, peerAS uint32, upd *bgp.Update) error
	// Inject offers one packet batch to the switching fabric.
	Inject(b *fabric.Batch) error
}

// DriveStats summarizes the actions Drive dispatched.
type DriveStats struct {
	Announcements int // UPDATE messages announcing RTBH prefixes
	Withdrawals   int // UPDATE messages withdrawing RTBH prefixes
	// FlowSpec rule announcements and withdrawals, dispatched as plain
	// UPDATEs carrying multiprotocol attributes through the same
	// Executor.Control path.
	FlowSpecAnnouncements int
	FlowSpecWithdrawals   int
	// Batches counts the packet batches dispatched to Executor.Inject.
	Batches int64
	// SplitSegments counts the batches among them that are pieces of a
	// generated batch cut at mitigation transitions.
	SplitSegments int64
	// MaxDayBatches is the largest number of batches any one day held:
	// the size the generator's per-day scratch grows to.
	MaxDayBatches int
}

// NewRouteServer constructs the route server of the planned world with
// every member session registered, exactly as Run does. Each member's
// registered address space is the victim blocks it announces for, which
// arms the route server's FlowSpec originator validation.
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

// NewExchanges builds the federation's exchanges inside Drive's build
// callback, one per entry of sinks: a route server with every member
// session and sinks[i].Control as its collector hook, a fabric emitting
// into sinks[i].Flow on the exchange's clock offset, and both registered
// on sinks[i].Metrics. All fabrics draw from one sample source forked
// from fabricRNG exactly as fabric.New forks it, so a single exchange
// reproduces the unfederated data plane bit for bit and N exchanges
// partition it (exactly, when MultiHomedShare is zero).
func NewExchanges(fed *Federation, fabricRNG *stats.RNG, sinks []Sinks) ([]*Exchange, error) {
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

// RunFederated executes the planned world across the federation's
// exchanges in process: every control message and batch of Drive's
// totally ordered action stream goes straight to the route server and
// fabric of the exchange the federation routes it to. With fed.N == 1
// the emitted streams are byte-identical to Run's; with more, they
// partition them. sinks must have one entry per exchange.
func RunFederated(fed *Federation, sinks []Sinks) ([]*Exchange, *DriveStats, error) {
	var xs []*Exchange
	st, err := Drive(fed.W, func(fabricRNG *stats.RNG) (Executor, error) {
		var err error
		if xs, err = NewExchanges(fed, fabricRNG, sinks); err != nil {
			return nil, err
		}
		exs := make([]Executor, len(xs))
		for i, x := range xs {
			exs[i] = x
		}
		return fed.Route(exs), nil
	})
	return xs, st, err
}

// Run executes the planned world chronologically on a single exchange
// (whatever Config.IXPs says), feeding the route server, the switching
// fabric and the sinks.
func Run(w *World, sinks Sinks) (*Result, error) {
	xs, st, err := RunFederated(planFederation(w, 1), []Sinks{sinks})
	if err != nil {
		return nil, err
	}
	x := xs[0]
	return &Result{
		World:                 w,
		FabricStats:           x.FB.Stats(),
		ControlMsgs:           x.RS.MessagesProcessed(),
		Announcements:         st.Announcements,
		Withdrawals:           st.Withdrawals,
		FlowRecords:           x.FlowRecords,
		FlowSpecAnnouncements: st.FlowSpecAnnouncements,
		FlowSpecWithdrawals:   st.FlowSpecWithdrawals,
		Mitigation:            x.FB.Mitigation(),
		Drive:                 *st,
	}, nil
}
