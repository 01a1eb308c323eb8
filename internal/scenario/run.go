package scenario

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/bgp"
	"repro/internal/fabric"
	"repro/internal/ipfix"
	"repro/internal/netgen"
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
}

// attackSlotDuration is the granularity at which attack traffic is
// generated; matching the analysis slot size keeps boundary noise small.
const attackSlotDuration = 5 * time.Minute

// controlMsg is one scheduled BGP action.
type controlMsg struct {
	t        time.Time
	event    *Event
	announce bool
	fs       bool // FlowSpec rule action instead of an RTBH route action
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

// DriveStats summarizes the control-plane actions Drive dispatched.
type DriveStats struct {
	Announcements int // UPDATE messages announcing RTBH prefixes
	Withdrawals   int // UPDATE messages withdrawing RTBH prefixes
	// FlowSpec rule announcements and withdrawals, dispatched as plain
	// UPDATEs carrying multiprotocol attributes through the same
	// Executor.Control path.
	FlowSpecAnnouncements int
	FlowSpecWithdrawals   int
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
	}, nil
}

// Drive walks the planned world's total event order and dispatches every
// action to the executor created by build. The RNG substream handed to
// build is the exact fork Run's fabrics sample from, so an executor that
// wraps exchanges built with it (NewExchanges, or fabric.New for a
// hand-wired single fabric) reproduces Run's data plane bit-identically;
// the control updates Drive builds are likewise bit-identical to Run's.
// This is the seam the live subsystem uses to put real transports
// between the scenario and the route server/fabric while keeping the
// archived dataset byte-identical to the batch path.
//
// When an executor call fails mid-walk (including a cancelled live run),
// Drive returns the stats of the actions dispatched so far alongside the
// error, so interrupted runs can still report what was delivered.
func Drive(w *World, build func(fabricRNG *stats.RNG) (Executor, error)) (*DriveStats, error) {
	rng := stats.NewRNG(w.Cfg.Seed ^ 0x52554e)
	ex, err := build(rng.Fork(1))
	if err != nil {
		return nil, err
	}
	st := &DriveStats{}

	// Index control messages and attack slots by day.
	days := w.Cfg.Days
	ctlByDay := make([][]controlMsg, days)
	dayIndex := func(t time.Time) int {
		d := int(t.Sub(w.Cfg.Start) / (24 * time.Hour))
		if d < 0 {
			d = 0
		}
		if d >= days {
			d = days - 1
		}
		return d
	}
	for _, e := range w.Events {
		for _, ep := range e.Episodes {
			ctlByDay[dayIndex(ep.Announce)] = append(ctlByDay[dayIndex(ep.Announce)],
				controlMsg{t: ep.Announce, event: e, announce: true})
			if !ep.Withdraw.IsZero() {
				ctlByDay[dayIndex(ep.Withdraw)] = append(ctlByDay[dayIndex(ep.Withdraw)],
					controlMsg{t: ep.Withdraw, event: e, announce: false})
			}
		}
		if fs := e.FlowSpec; fs != nil {
			ctlByDay[dayIndex(fs.Start)] = append(ctlByDay[dayIndex(fs.Start)],
				controlMsg{t: fs.Start, event: e, announce: true, fs: true})
			if !fs.End.IsZero() {
				ctlByDay[dayIndex(fs.End)] = append(ctlByDay[dayIndex(fs.End)],
					controlMsg{t: fs.End, event: e, announce: false, fs: true})
			}
		}
	}

	addSessionResets(w, ctlByDay, dayIndex, rng.Fork(3))

	attacksByDay := make([][]*Event, days)
	for _, e := range w.Events {
		if e.Attack == nil {
			continue
		}
		first := dayIndex(e.Attack.Start)
		last := dayIndex(e.Attack.End())
		for d := first; d <= last; d++ {
			attacksByDay[d] = append(attacksByDay[d], e)
		}
	}

	// Per-event lazily built attack vectors, released once an attack is
	// over to bound reflector-pool memory.
	vectors := make(map[int][]netgen.Vector)
	attackEnds := make(map[int]time.Time)
	// Per-host episode transition times for batch splitting, and the
	// attack-event spans the host's inbound traffic is attributed to in
	// the mitigation ledger.
	transitions := hostTransitions(w)
	spans := hostMitigationSpans(w)

	genRNG := rng.Fork(2)
	var batches []fabric.Batch
	for d := 0; d < days; d++ {
		dayStart := w.Cfg.Start.AddDate(0, 0, d)
		batches = batches[:0]
		batches = appendBaselineBatches(batches, w, d, dayStart, transitions, spans, genRNG)
		batches = appendAttackBatches(batches, w, attacksByDay[d], dayStart, vectors, genRNG)
		batches = appendInternalBatches(batches, w, dayStart, genRNG)

		ctl := ctlByDay[d]
		slices.SortStableFunc(ctl, func(a, b controlMsg) int { return a.t.Compare(b.t) })
		slices.SortStableFunc(batches, func(a, b fabric.Batch) int { return a.Time.Compare(b.Time) })

		// Release vector pools of attacks that ended before this day.
		for id, e := range attackEnds {
			if e.Before(dayStart) {
				delete(vectors, id)
				delete(attackEnds, id)
			}
		}
		for _, e := range attacksByDay[d] {
			attackEnds[e.ID] = e.Attack.End()
		}

		ci, bi := 0, 0
		for ci < len(ctl) || bi < len(batches) {
			// Control messages win ties so that a batch starting exactly
			// at an announcement sees the new state.
			if ci < len(ctl) && (bi >= len(batches) || !batches[bi].Time.Before(ctl[ci].t)) {
				upd, err := buildControlUpdate(ctl[ci], genRNG)
				if err != nil {
					return st, err
				}
				if err := ex.Control(ctl[ci].t, ctl[ci].event.Peer, upd); err != nil {
					return st, err
				}
				switch {
				case ctl[ci].fs && ctl[ci].announce:
					st.FlowSpecAnnouncements++
				case ctl[ci].fs:
					st.FlowSpecWithdrawals++
				case ctl[ci].announce:
					st.Announcements++
				default:
					st.Withdrawals++
				}
				ci++
				continue
			}
			if err := ex.Inject(&batches[bi]); err != nil {
				return st, err
			}
			bi++
		}
	}
	return st, nil
}

// buildControlUpdate constructs the announce/withdraw UPDATE of one
// scheduled control message, consuming the shared generator stream.
// FlowSpec actions are wrapped as plain UPDATEs (MP attributes, no IPv4
// NLRI) and draw nothing from the stream.
func buildControlUpdate(cm controlMsg, r *stats.RNG) (*bgp.Update, error) {
	e := cm.event
	if cm.fs {
		fsu := &bgp.FlowSpecUpdate{}
		if cm.announce {
			fsu.Announced = []*bgp.FlowRule{e.FlowSpec.Rule}
			fsu.ExtComms = []bgp.ExtCommunity{bgp.TrafficRateDiscard}
		} else {
			fsu.Withdrawn = []*bgp.FlowRule{e.FlowSpec.Rule}
		}
		return bgp.UpdateFromFlowSpec(fsu)
	}
	upd := &bgp.Update{}
	if cm.announce {
		comms := bgp.Communities{bgp.Blackhole}
		if r.Bool(0.5) {
			comms = append(comms, bgp.NoExport)
		}
		for _, excl := range e.TargetedExclude {
			comms = append(comms, bgp.MakeCommunity(0, uint16(excl)))
		}
		path := []uint32{e.Peer}
		if e.OriginAS != e.Peer {
			path = append(path, e.OriginAS)
		}
		upd.Attrs = bgp.PathAttrs{
			Origin:      bgp.OriginIGP,
			ASPath:      path,
			NextHop:     routeserver.BlackholeNextHop,
			Communities: comms,
		}
		upd.NLRI = []bgp.Prefix{e.Prefix}
	} else {
		upd.Withdrawn = []bgp.Prefix{e.Prefix}
	}
	return upd, nil
}

// hostTransitions collects, per host index, the sorted set of times at
// which the blackholing state of the host's address may change. Baseline
// batches are split at these times so that their samples see the correct
// forwarding decision. Besides the host's own /32 events, covering
// shorter-prefix events (a /24 blackhole blankets every host in the
// subnet) contribute transitions too.
func hostTransitions(w *World) map[int][]time.Time {
	out := make(map[int][]time.Time)
	appendEpisodes := func(host int, e *Event) {
		for _, ep := range e.Episodes {
			out[host] = append(out[host], ep.Announce)
			if !ep.Withdraw.IsZero() {
				out[host] = append(out[host], ep.Withdraw)
			}
		}
		if fs := e.FlowSpec; fs != nil {
			out[host] = append(out[host], fs.Start)
			if !fs.End.IsZero() {
				out[host] = append(out[host], fs.End)
			}
		}
	}
	var wide []*Event // events on prefixes shorter than /32
	for _, e := range w.Events {
		if e.Prefix.Len < 32 {
			wide = append(wide, e)
		}
		if e.Host >= 0 && e.Prefix.Len == 32 {
			appendEpisodes(e.Host, e)
		}
	}
	for hi, h := range w.Hosts {
		for _, e := range wide {
			if e.Prefix.Contains(h.IP) {
				appendEpisodes(hi, e)
			}
		}
	}
	for h := range out {
		ts := out[h]
		sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
		out[h] = ts
	}
	return out
}

// mitSpan is the time range during which a host's inbound traffic is
// attributed to one attack event in the fabric's mitigation ledger: from
// the earlier of attack start and first mitigation action to the later
// of attack end and mitigation end.
type mitSpan struct {
	e        *Event
	from, to time.Time
}

// hostMitigationSpans indexes the attack events per victim host.
func hostMitigationSpans(w *World) map[int][]mitSpan {
	out := make(map[int][]mitSpan)
	for _, e := range w.Events {
		if e.Attack == nil || e.Host < 0 {
			continue
		}
		from := e.Attack.Start
		if s := e.Start(); s.Before(from) {
			from = s
		}
		to := e.Attack.End()
		if end, ok := e.End(); !ok {
			to = w.Cfg.End()
		} else if end.After(to) {
			to = end
		}
		out[e.Host] = append(out[e.Host], mitSpan{e: e, from: from, to: to})
	}
	for h := range out {
		sp := out[h]
		sort.Slice(sp, func(i, j int) bool { return sp[i].from.Before(sp[j].from) })
		out[h] = sp
	}
	return out
}

// splitBatch splits b at the given transition times, dividing the packet
// count proportionally to sub-interval duration. Batches untouched by any
// transition are appended unchanged.
func splitBatch(dst []fabric.Batch, b fabric.Batch, transitions []time.Time) []fabric.Batch {
	end := b.Time.Add(b.Duration)
	var cuts []time.Time
	for _, t := range transitions {
		if t.After(b.Time) && t.Before(end) {
			cuts = append(cuts, t)
		}
	}
	if len(cuts) == 0 {
		return append(dst, b)
	}
	prev := b.Time
	total := float64(b.Duration)
	remaining := b.Packets
	for i := 0; i <= len(cuts); i++ {
		var segEnd time.Time
		if i < len(cuts) {
			segEnd = cuts[i]
		} else {
			segEnd = end
		}
		seg := b
		seg.Time = prev
		seg.Duration = segEnd.Sub(prev)
		if i < len(cuts) {
			seg.Packets = int64(float64(b.Packets) * float64(seg.Duration) / total)
		} else {
			seg.Packets = remaining
		}
		remaining -= seg.Packets
		if seg.Packets > 0 && seg.Duration > 0 {
			dst = append(dst, seg)
		}
		prev = segEnd
	}
	return dst
}

// appendBaselineBatches emits the legitimate and scan traffic of all hosts
// active on day d, split at blackholing transitions.
func appendBaselineBatches(dst []fabric.Batch, w *World, d int, dayStart time.Time,
	transitions map[int][]time.Time, spans map[int][]mitSpan, r *stats.RNG) []fabric.Batch {
	var raw []fabric.Batch
	for hi, h := range w.Hosts {
		if d >= len(h.ActiveDays) {
			continue
		}
		raw = raw[:0]
		if h.ActiveDays[d] {
			switch {
			case h.Server != nil:
				raw = h.Server.DayBatches(raw, dayStart, w.RemotePool, r)
			case h.Client != nil:
				raw = h.Client.DayBatches(raw, dayStart, w.RemotePool, r)
			default:
				// A quiet host's stray active day: a trickle of traffic.
				peer := w.VictimASes[h.VictimAS].Peer
				raw = append(raw, fabric.Batch{
					Time: dayStart, Duration: 24 * time.Hour,
					IngressAS: w.RemotePool.Handover(r), EgressAS: peer,
					SrcIP: w.RemotePool.Addr(r), DstIP: h.IP,
					SrcPort: 443, DstPort: netgen.EphemeralPort(r),
					Proto: netgen.ProtoTCP, PacketSize: 600,
					Packets: 2000 + r.Int63n(8000),
				})
			}
		}
		if h.ScanDailyPackets > 0 && r.Bool(0.3) {
			peer := w.VictimASes[h.VictimAS].Peer
			raw = netgen.ScanBatches(raw, dayStart, h.IP, peer, h.ScanDailyPackets, w.RemotePool, r)
		}
		if len(raw) == 0 {
			continue
		}
		// All of a host's traffic — inbound, outbound, scans — anchors to
		// the member announcing the host's prefix: in a federated run the
		// host is observable exactly where its member connects.
		owner := w.VictimASes[h.VictimAS].Peer
		for i := range raw {
			raw[i].Owner = owner
		}
		tr := transitions[hi]
		sp := spans[hi]
		for _, b := range raw {
			n0 := len(dst)
			dst = splitBatch(dst, b, tr)
			if len(sp) == 0 {
				continue
			}
			// Attribute inbound segments to the covering attack event as
			// the victim's legitimate traffic. Segments were split at
			// every mitigation transition, so the phase at the segment
			// start holds throughout it.
			for i := n0; i < len(dst); i++ {
				if dst[i].DstIP != h.IP {
					continue
				}
				for _, s := range sp {
					if !dst[i].Time.Before(s.from) && dst[i].Time.Before(s.to) {
						dst[i].Event = s.e.ID + 1
						dst[i].Mitigation = s.e.MitigationPhase(dst[i].Time)
						break
					}
				}
			}
		}
	}
	return dst
}

// appendAttackBatches emits attack traffic slots for day d.
func appendAttackBatches(dst []fabric.Batch, w *World, attacks []*Event, dayStart time.Time,
	vectors map[int][]netgen.Vector, r *stats.RNG) []fabric.Batch {
	dayEnd := dayStart.Add(24 * time.Hour)
	var slotBuf []fabric.Batch
	for _, e := range attacks {
		a := e.Attack
		vs, ok := vectors[e.ID]
		if !ok {
			vs = buildVectors(w, e, r)
			vectors[e.ID] = vs
		}
		if len(vs) == 0 {
			continue
		}
		victimIP := victimAddr(w, e)
		victimAS := e.Peer

		// The host's own transitions bound drop-decision error; attack
		// slots are split at them like baseline batches.
		var tr []time.Time
		for _, ep := range e.Episodes {
			tr = append(tr, ep.Announce)
			if !ep.Withdraw.IsZero() {
				tr = append(tr, ep.Withdraw)
			}
		}
		if fs := e.FlowSpec; fs != nil {
			tr = append(tr, fs.Start)
			if !fs.End.IsZero() {
				tr = append(tr, fs.End)
			}
		}
		sort.Slice(tr, func(i, j int) bool { return tr[i].Before(tr[j]) })

		start := a.Start
		if start.Before(dayStart) {
			start = dayStart
		}
		end := a.End()
		if end.After(dayEnd) {
			end = dayEnd
		}
		// Bilateral (non-route-server) blackholing is an agreement with a
		// single neighbor: one designated handover member drops the
		// event's traffic regardless of route-server state.
		var bilateralAS uint32
		for t := start; t.Before(end); t = t.Add(attackSlotDuration) {
			slotEnd := t.Add(attackSlotDuration)
			if slotEnd.After(end) {
				slotEnd = end
			}
			dur := slotEnd.Sub(t)
			if dur <= 0 {
				break
			}
			pps := a.PPS * (0.8 + 0.4*r.Float64())
			perVector := pps / float64(len(vs))
			slotBuf = slotBuf[:0]
			for _, v := range vs {
				slotBuf = v.Batches(slotBuf, t, dur, perVector, victimIP, victimAS, r)
			}
			if e.Bilateral && bilateralAS == 0 && len(slotBuf) > 0 {
				bilateralAS = slotBuf[0].IngressAS
			}
			// The bilateral neighbor reacts like the victim does: its
			// dropping starts with the first announcement, not with the
			// attack itself.
			bilateralLive := e.Bilateral && !t.Before(e.Start())
			for i := range slotBuf {
				slotBuf[i].Owner = victimAS
				slotBuf[i].Event = e.ID + 1
				slotBuf[i].Attack = true
				if bilateralLive && slotBuf[i].IngressAS == bilateralAS {
					slotBuf[i].BilateralDropFraction = 1
				}
				n0 := len(dst)
				dst = splitBatch(dst, slotBuf[i], tr)
				// Segments lie between mitigation transitions, so one
				// phase covers each.
				for j := n0; j < len(dst); j++ {
					dst[j].Mitigation = e.MitigationPhase(dst[j].Time)
				}
			}
		}
	}
	return dst
}

// victimAddr returns the concrete attacked address of an event: the host
// address, or an address inside the prefix for hostless events.
func victimAddr(w *World, e *Event) uint32 {
	if e.Host >= 0 {
		return w.Hosts[e.Host].IP
	}
	return e.Prefix.Addr + 1
}

// buildVectors materializes the attack's vector set: reflector pools per
// origin AS for amplification, and transit handovers for direct floods.
func buildVectors(w *World, e *Event, r *stats.RNG) []netgen.Vector {
	a := e.Attack
	var out []netgen.Vector

	if len(a.Protocols) > 0 {
		nAmp := int(r.Poisson(float64(w.Cfg.MeanAmplifiersPerAttack)))
		if nAmp < len(a.OriginASes) {
			nAmp = len(a.OriginASes)
		}
		perAS := nAmp / len(a.OriginASes)
		if perAS == 0 {
			perAS = 1
		}
		var pool []netgen.Reflector
		for _, asIdx := range a.OriginASes {
			ras := w.RemoteASes[asIdx]
			for i := 0; i < perAS; i++ {
				ip := ras.Block.Addr + uint32(r.Int63n(int64(ras.Block.NumAddresses())))
				pool = append(pool, netgen.Reflector{IP: ip, OriginAS: ras.ASN, HandoverAS: ras.Handover})
			}
		}
		for _, proto := range a.Protocols {
			out = append(out, &netgen.AmplificationVector{Protocol: proto, Reflectors: pool})
		}
	}

	transit := make([]uint32, 0, 3)
	for i := 0; i < 3 && i < len(w.RemotePool.Handovers); i++ {
		transit = append(transit, w.RemotePool.Handovers[r.Intn(len(w.RemotePool.Handovers))])
	}
	if a.SYNFlood {
		out = append(out, &netgen.SYNFloodVector{Handovers: transit, DstPorts: []uint16{80, 443}})
	}
	if a.ExtraRandomPort {
		if r.Bool(0.5) {
			out = append(out, &netgen.RandomPortUDPVector{Handovers: transit})
		} else {
			out = append(out, &netgen.RotatingPortVector{Handovers: transit})
		}
	}
	return out
}

// appendInternalBatches emits the small share of IXP-internal flows that
// the paper removes during data cleaning.
func appendInternalBatches(dst []fabric.Batch, w *World, dayStart time.Time, r *stats.RNG) []fabric.Batch {
	if w.Cfg.InternalTrafficShare <= 0 {
		return dst
	}
	// Rough daily packet volume of the relevant traffic, from which the
	// internal share is derived.
	busy := len(w.Hosts) / 3
	daily := float64(busy) * 2 * float64(w.Cfg.BaselineDailyPackets) * w.Cfg.Scale()
	pkts := int64(daily * w.Cfg.InternalTrafficShare)
	// Keep internal traffic visible even in miniature test worlds: at
	// least ~0.4 expected samples per day.
	if floor := 2 * w.Cfg.SamplingRate / 5; pkts < floor {
		pkts = floor
	}
	for i := 0; i < 2; i++ {
		m := w.Members[r.Intn(len(w.Members))].ASN
		dst = append(dst, fabric.Batch{
			Time: dayStart.Add(time.Duration(i) * 12 * time.Hour), Duration: 12 * time.Hour,
			IngressAS: m,
			EgressAS:  0,
			Owner:     m,
			SrcIP:     w.RSIP, DstIP: w.RSIP + 1,
			SrcPort: 179, DstPort: netgen.EphemeralPort(r),
			Proto: netgen.ProtoTCP, PacketSize: 100,
			Packets:  pkts / 2,
			Internal: true,
		})
	}
	return dst
}

// addSessionResets injects BGP session flaps: a handful of times over the
// period, one of the heaviest RTBH users re-announces its entire active
// blackhole set within a minute. These bursts produce the message-rate
// spikes of the paper's Fig 3 while leaving event structure untouched
// (re-announcements of active routes merge into the same event).
func addSessionResets(w *World, ctlByDay [][]controlMsg, dayIndex func(time.Time) int, r *stats.RNG) {
	// The three peers with the most events are reset candidates.
	counts := make(map[uint32]int)
	for _, e := range w.Events {
		counts[e.Peer]++
	}
	type pc struct {
		peer uint32
		n    int
	}
	var peers []pc
	for p, n := range counts {
		peers = append(peers, pc{p, n})
	}
	sort.Slice(peers, func(i, j int) bool {
		if peers[i].n != peers[j].n {
			return peers[i].n > peers[j].n
		}
		return peers[i].peer < peers[j].peer
	})
	if len(peers) > 3 {
		peers = peers[:3]
	}
	if len(peers) == 0 {
		return
	}

	period := w.Cfg.End().Sub(w.Cfg.Start)
	nResets := max(2, w.Cfg.Days/15)
	for i := 0; i < nResets; i++ {
		peer := peers[r.Intn(len(peers))].peer
		// Leave margin at the period edges.
		at := w.Cfg.Start.Add(time.Duration(0.05*float64(period)) +
			time.Duration(r.Float64()*0.9*float64(period)))
		for _, e := range w.Events {
			if e.Peer != peer {
				continue
			}
			// Re-announce only routes solidly inside an active episode.
			for _, ep := range e.Episodes {
				wd := ep.Withdraw
				if wd.IsZero() {
					wd = w.Cfg.End()
				}
				if !at.After(ep.Announce) || !at.Add(2*time.Minute).Before(wd) {
					continue
				}
				t := at.Add(time.Duration(r.Int63n(int64(50 * time.Second))))
				ctlByDay[dayIndex(t)] = append(ctlByDay[dayIndex(t)],
					controlMsg{t: t, event: e, announce: true})
				break
			}
		}
	}
}
