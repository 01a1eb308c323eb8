// Package pipeline orchestrates the full data-plane analysis: it joins
// each sampled flow record against the control-plane event structure
// exactly once and dispatches the attributed observation to the
// per-question incremental operators (drop statistics, anomaly features,
// protocol mix, host profiles, time alignment, collateral damage,
// mitigation).
//
// The pipeline runs in a single streaming pass over the flow archive.
// The collateral-damage question — which needs the server top ports that
// host profiling only knows at the end of the pass — is answered from a compact pending store keyed by (event, destination,
// proto/port): whether a packet counts as collateral depends only on
// those coordinates, so tallying during the pass and filtering against
// the top-port sets at compose time is exact (see collateral.Pending).
//
// The seven streaming stages satisfy the analysis.Operator contract
// (Observe/Merge/Snapshot), which is what lets one engine serve the batch
// pass, federation (Merge) and the online analyzer (Snapshot +
// speculative observation; see NewSpeculative and DESIGN.md, "Incremental
// analysis"). A record is resolved against the control plane once
// (attribute) and each operator is fed from the result, either back to
// back on the caller (ObserveRecords) or on a goroutine per operator
// (Lanes).
package pipeline

import (
	"maps"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/anomaly"
	"repro/internal/analysis/collateral"
	"repro/internal/analysis/dropstats"
	"repro/internal/analysis/events"
	"repro/internal/analysis/hosts"
	"repro/internal/analysis/mitigation"
	"repro/internal/analysis/protomix"
	"repro/internal/analysis/timealign"
	"repro/internal/bgp"
	"repro/internal/ipfix"
	"repro/internal/netgen"
	"repro/internal/obs"
)

// Compile-time checks that every streaming stage satisfies the Operator
// contract (internal/analysis).
var (
	_ analysis.Operator[*dropstats.Aggregator]  = (*dropstats.Aggregator)(nil)
	_ analysis.Operator[*anomaly.Aggregator]    = (*anomaly.Aggregator)(nil)
	_ analysis.Operator[*protomix.Aggregator]   = (*protomix.Aggregator)(nil)
	_ analysis.Operator[*hosts.Aggregator]      = (*hosts.Aggregator)(nil)
	_ analysis.Operator[*timealign.Aggregator]  = (*timealign.Aggregator)(nil)
	_ analysis.Operator[*collateral.Pending]    = (*collateral.Pending)(nil)
	_ analysis.Operator[*mitigation.Aggregator] = (*mitigation.Aggregator)(nil)
)

// ReactionBuffer is prepended to each event when selecting legitimate
// traffic for host profiling (§6.1: a 10-minute reaction time during
// which traffic is not classified as legitimate).
const ReactionBuffer = 10 * time.Minute

// Pipeline is the single-pass streaming analyzer.
type Pipeline struct {
	Meta   *analysis.Metadata
	Events []*events.Event
	Index  *events.Index

	Drop    *dropstats.Aggregator
	Anomaly *anomaly.Aggregator
	Proto   *protomix.Aggregator
	Hosts   *hosts.Aggregator
	Align   *timealign.Aggregator
	// Mit compares FlowSpec against RTBH on the mitigated traffic (the
	// Table 5 experiment); FlowIx is the FlowSpec-window view it
	// attributes against, bound via BindFlow (nil-safe: with no windows
	// the operator stays empty).
	Mit    *mitigation.Aggregator
	FlowIx *mitigation.Index

	// Pending holds the compact during-event tallies that become the
	// collateral-damage result once ComposeCollateral filters them
	// through the detected server top ports.
	Pending *collateral.Pending

	// Counters of the cleaning and attribution steps (§3.1).
	TotalRecords      int64
	InternalRecords   int64
	AttributedRecords int64
	DroppedRecords    int64

	// curDst/curSrc memoize the attribution probes per address run (see
	// events.Cursor): the flow stream arrives in long stretches sharing
	// endpoints, so the prefix-map hashing that dominates a naive pass
	// resolves once per stretch. Destination- and source-keyed queries
	// get separate cursors because both address runs persist
	// independently across records. curFlow is the destination memo
	// over the FlowSpec view. curAlign is the align feed's own
	// destination memo, through which Align reads episode windows: that
	// feed runs beside attribute under Lanes, so it cannot share curDst.
	// Each memo drops itself whenever its view is extended in place (see
	// events.Cursor and mitigation.Cursor).
	curDst, curSrc, curAlign *events.Cursor
	curFlow                  *mitigation.Cursor

	// MAC-derived metadata memo (IsInternal and the ingress member):
	// records of one injected batch share both MACs.
	lastSrcMAC, lastDstMAC ipfix.MAC
	lastInternal           bool
	lastMember             uint32
	macValid               bool
	// side is the inline pass's side array (see attr), one block long;
	// ring holds the Lanes' slots, allocated by the first pass through
	// them and reused by every later one (the online analyzer starts lanes
	// for each seal check).
	side []attr
	ring chan *laneBatch

	// speculative marks a pipeline whose state holds candidates gathered
	// before the control stream was complete (the online analyzer): compose
	// filters the profiled hosts through the ever-blackholed predicate and
	// resolves the pair tallies (hostKeep, FinalAttributed, Finalize).
	speculative bool
	// wide marks a speculative pipeline whose control-plane view can still
	// grow under it. It widens two observation gates that batch mode
	// evaluates eagerly, which is sound because EverBlackholed grows
	// monotonically as updates arrive: host profiling observes every
	// external candidate, and records attributable only through a
	// not-yet-announced blackhole are tallied in pairs. Freeze clears it.
	wide bool
	// pairs counts records whose destination/source pair was not (yet)
	// ever-blackholed at observation time, keyed dst<<32|src.
	pairs map[uint64]int64

	// profileCount is set by ComposeProfiles for the pipeline.profiles
	// gauge.
	profileCount int64
	// obs is the optional accounting of the pass (RegisterMetrics).
	obs *passObs
}

// passObs accounts where a pass spends its time, per batch, never per
// record. Under Lanes every feed adds to its own from its own goroutine.
type passObs struct {
	attribute, blocked *obs.Gauge
	busy               [nFeeds]*obs.Gauge
	records            [nFeeds]*obs.Counter
}

// New builds a batch pipeline: events are merged from the complete update
// stream with the given threshold (events.DefaultDelta for the paper's
// 10 minutes).
func New(meta *analysis.Metadata, updates []analysis.ControlUpdate, delta time.Duration) (*Pipeline, error) {
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	evs := events.Merge(updates, delta, meta.End)
	p := newEmpty(meta)
	p.Rebind(evs, events.NewIndex(evs, meta.End))
	return p, nil
}

// NewSpeculative builds a pipeline for the online analyzer: the control
// stream is still growing, so observation runs with wide gates (see the
// field comments) against a view the caller binds once (Rebind, BindFlow)
// and then extends in place as updates arrive, republishing Events.
func NewSpeculative(meta *analysis.Metadata) (*Pipeline, error) {
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	p := newEmpty(meta)
	p.speculative, p.wide = true, true
	p.pairs = make(map[uint64]int64)
	p.Rebind(nil, events.NewIndex(nil, meta.End))
	return p, nil
}

// bindCursors (re)creates the per-address attribution memos over the
// current Index and FlowIx. Call whenever either is (re)assigned.
func (p *Pipeline) bindCursors() {
	p.curDst = events.NewCursor(p.Index)
	p.curSrc = events.NewCursor(p.Index)
	p.curAlign = events.NewCursor(p.Index)
	p.curFlow = mitigation.NewCursor(p.FlowIx)
}

func newEmpty(meta *analysis.Metadata) *Pipeline {
	return &Pipeline{
		Meta:    meta,
		Drop:    dropstats.New(),
		Anomaly: anomaly.New(),
		Proto:   protomix.New(),
		Hosts:   hosts.New(),
		Align:   timealign.New(),
		Mit:     mitigation.New(),
		Pending: collateral.NewPending(),
	}
}

// Rebind points the pipeline at a control-plane view (events plus
// attribution index) with fresh address memos, the align feed's among
// them: a new pipeline, a speculative one before its first record, a
// wire-decoded one (UnmarshalState), which has no cursors at all, or a
// folded one. The operators hold no view, so nothing else is rebound. An index an events.Merger extends in place needs no
// rebinding; only Events is republished.
func (p *Pipeline) Rebind(evs []*events.Event, ix *events.Index) {
	p.Events = evs
	p.Index = ix
	p.bindCursors()
}

// BindFlow points the pipeline at the FlowSpec mitigation view, once
// before the first record. The online analyzer extends the bound view in
// place, which keeps sealed observations valid because a record seals
// only once no in-flight FlowSpec update can still cover its timestamp;
// the cursor notices the extension by itself.
func (p *Pipeline) BindFlow(ix *mitigation.Index) {
	p.FlowIx = ix
	p.curFlow = mitigation.NewCursor(ix)
}

// Freeze declares that the pipeline's control-plane view will not change
// for the rest of its life (no further Rebind or BindFlow): observation
// narrows to the batch gates. The online analyzer freezes the clone it
// replays the unsealed tail through. That is exact because the clone
// composes under the very index it observed with: a host the eager gate
// skips is one hostKeep would drop, and a pair it does not tally is one
// FinalAttributed would resolve to zero. The compose-time filters stay on —
// the sealed state underneath still holds unfiltered candidates.
func (p *Pipeline) Freeze() { p.wide = false }

// Clone returns an independent copy of the pipeline's operator state
// (shared immutable control-plane view). The original may continue
// observing; the clone is the copy-on-snapshot input for report
// composition. The keyed stores that make up nearly all of the state
// (hosts, pending collateral cells, anomaly slots) share their
// sub-aggregates with the clone until one side writes them, so the cost
// follows what is written afterwards, not what has accumulated.
func (p *Pipeline) Clone() *Pipeline {
	c := &Pipeline{
		Meta:              p.Meta,
		Events:            p.Events,
		Index:             p.Index,
		Drop:              p.Drop.Snapshot(),
		Anomaly:           p.Anomaly.Snapshot(),
		Proto:             p.Proto.Snapshot(),
		Hosts:             p.Hosts.Snapshot(),
		Align:             p.Align.Snapshot(),
		Mit:               p.Mit.Snapshot(),
		FlowIx:            p.FlowIx,
		Pending:           p.Pending.Snapshot(),
		TotalRecords:      p.TotalRecords,
		InternalRecords:   p.InternalRecords,
		AttributedRecords: p.AttributedRecords,
		DroppedRecords:    p.DroppedRecords,
		speculative:       p.speculative,
		wide:              p.wide,
		pairs:             maps.Clone(p.pairs),
	}
	c.bindCursors()
	return c
}

// CowCopies returns how many shared sub-aggregates (hosts, pending tables,
// anomaly slots) the pipeline's stores have copied on first write.
func (p *Pipeline) CowCopies() int64 {
	return p.Hosts.CowCopies() + p.Pending.CowCopies() + p.Anomaly.CowCopies()
}

// RegisterMetrics exposes the pipeline's cleaning counters, event and
// profile populations, and the drop-statistics totals under the
// "pipeline." and "dropstats." prefixes. The gauges read pipeline state
// at snapshot time; snapshot after the pass finished. The registered
// values reconcile exactly with the rendered report: records.dropped
// equals the report's DroppedRecords, and the dropstats totals sum the
// Fig 5 rows (see DESIGN.md, "Observability").
//
// It also switches on the pass's own accounting, however the pass is
// driven: pipeline.attribute.busy_ns, per operator feed
// pipeline.lane.<op>.busy_ns and .records (what the feed handed its
// operators), and pipeline.lanes.blocked_ns (a Lanes source waiting for a
// ring slot). The busy_ns gauges are wall time: a lane descheduled or
// waiting on a shared core still counts, so on a loaded box they bound
// CPU time from above; Lanes' pprof labels split CPU time by lane.
// Without a registry no clock is read. Call before the pass.
func (p *Pipeline) RegisterMetrics(reg *obs.Registry) {
	p.obs = &passObs{
		attribute: reg.Gauge("pipeline.attribute.busy_ns"),
		blocked:   reg.Gauge("pipeline.lanes.blocked_ns"),
	}
	for i, f := range feeds {
		p.obs.busy[i] = reg.Gauge("pipeline.lane." + f.name + ".busy_ns")
		p.obs.records[i] = reg.Counter("pipeline.lane." + f.name + ".records")
	}
	reg.GaugeFunc("pipeline.records.total", func() int64 { return p.TotalRecords })
	reg.GaugeFunc("pipeline.records.internal", func() int64 { return p.InternalRecords })
	reg.GaugeFunc("pipeline.records.attributed", func() int64 { return p.FinalAttributed() })
	reg.GaugeFunc("pipeline.records.dropped", func() int64 { return p.DroppedRecords })
	reg.GaugeFunc("pipeline.events", func() int64 { return int64(len(p.Events)) })
	reg.GaugeFunc("pipeline.profiles", func() int64 { return p.profileCount })
	reg.GaugeFunc("dropstats.events", func() int64 { return int64(p.Drop.Events()) })
	reg.GaugeFunc("dropstats.dropped_pkts", func() int64 { return p.Drop.Totals().DroppedPkts })
	reg.GaugeFunc("dropstats.forwarded_pkts", func() int64 { return p.Drop.Totals().ForwardedPkts })
	reg.GaugeFunc("dropstats.dropped_bytes", func() int64 { return p.Drop.Totals().DroppedBytes })
	reg.GaugeFunc("dropstats.forwarded_bytes", func() int64 { return p.Drop.Totals().ForwardedBytes })
	reg.GaugeFunc("mitigation.prefixes", func() int64 { return int64(p.Mit.Prefixes()) })
	reg.GaugeFunc("mitigation.windows", func() int64 { return int64(p.FlowIx.Windows()) })
}

// attr is what the attribution pass resolves about one record and every
// operator feed reads instead of resolving it again. A prefix an
// attribution query returns is the record's destination address cut to
// some length, so only the length is kept. The zero value (an internal
// record) feeds no operator.
type attr struct {
	flags                    uint8
	matchLen, fsLen, anomLen uint8  // prefix lengths: blackhole (fInEvent), FlowSpec (fFlowSpec), anomaly (fInRange)
	event                    int32  // fInEvent: the covering event's ID
	member                   uint32 // ingress (source-MAC) member ASN
	day                      int32  // fLegitIn, fLegitOut: day of the period
}

// The attr flags. fDropped is never set on an internal record; fActive
// implies fInEvent.
const (
	fDropped  uint8 = 1 << iota // delivered to the blackhole MAC
	fFlowSpec                   // a FlowSpec window covers the record
	fActive                     // an announced episode covers the ever-blackholed destination
	fInEvent                    // an event window covers the ever-blackholed destination
	fInRange                    // the destination is inside an event's analysis range
	fLegitIn                    // legitimate traffic toward a profiled host
	fLegitOut                   // legitimate traffic from a profiled host
)

// inlineBlock is how many records the inline pass attributes before it
// runs the feeds over them: few enough that records and side array are
// still in the first-level cache when the last feed reads them.
const inlineBlock = 256

// ObserveRecords processes a slice of flow records in order, on the
// calling goroutine: block by block, one attribution pass resolves every
// record against the control plane, then each operator's feed walks the
// attributed block. The per-run memos (address cursors, MAC metadata) do
// the heavy lifting: consecutive records overwhelmingly share endpoints,
// so the per-record map probes that dominate a naive pass amortize across
// each run.
//
// The loop and the operators under it keep one rule: a record's keys are
// resolved once per batch, by a run memo, a dense array or bitset read, or
// one find-or-insert in a flat table — never by lookup-then-assign on a Go
// map, by a per-record allocation, or by time.Time arithmetic (DESIGN.md,
// "The observe loop").
func (p *Pipeline) ObserveRecords(recs []ipfix.FlowRecord) {
	if p.side == nil {
		p.side = make([]attr, inlineBlock)
	}
	for len(recs) > 0 {
		n := min(len(recs), inlineBlock)
		p.attribute(recs[:n], p.side[:n])
		for i := range feeds {
			p.feed(i, recs[:n], p.side[:n])
		}
		recs = recs[n:]
	}
}

// ObserveBatch processes one pooled record batch, borrowed for the
// duration of the call per the ipfix.RecordBatch contract.
func (p *Pipeline) ObserveBatch(b *ipfix.RecordBatch) { p.ObserveRecords(b.Recs) }

// attribute is the one place a record meets the control plane: it counts
// the cleaning steps (§3.1), tallies the wide-gate pairs and writes each
// record's attr into at. Memos and counters belong to its one caller.
func (p *Pipeline) attribute(recs []ipfix.FlowRecord, at []attr) {
	var start time.Time
	if p.obs != nil {
		start = time.Now()
	}
	// Summed per batch: under Lanes the feeds read the pipeline's operator
	// pointers from the cache lines the counters share.
	var internal, blackholed, attributed int64
	// Every query below compares unix nanoseconds: a record's start is
	// read once, the period start once per batch.
	periodStart := p.Meta.Start.UnixNano()
	for i := range recs {
		rec, a := &recs[i], &at[i]
		*a = attr{}
		if !p.macValid || rec.SrcMAC != p.lastSrcMAC || rec.DstMAC != p.lastDstMAC {
			p.macValid = true
			p.lastSrcMAC, p.lastDstMAC = rec.SrcMAC, rec.DstMAC
			p.lastInternal = p.Meta.IsInternal(rec)
			p.lastMember = p.Meta.MemberOf(rec.SrcMAC)
		}
		if p.lastInternal {
			internal++
			continue
		}
		a.member = p.lastMember
		if rec.DstMAC == p.Meta.BlackholeMAC {
			blackholed++
			a.flags |= fDropped
		}
		tn := rec.Start.UnixNano()
		// FlowSpec is evaluated before the RTBH gates: a FlowSpec-only
		// mitigation covers destinations that may never enter the
		// ever-blackholed set at all.
		if fs, ok := p.curFlow.Lookup(rec.DstIP, tn); ok {
			a.flags |= fFlowSpec
			a.fsLen = fs.Len
		}

		_, dstBH := p.curDst.EverBlackholed(rec.DstIP)
		_, srcBH := p.curSrc.EverBlackholed(rec.SrcIP)
		if dstBH || srcBH {
			attributed++
		} else if p.wide {
			// Neither endpoint has been blackholed *yet*; a later
			// announcement can still make this record attributable.
			// EverBlackholed is monotone, so tallying the pair now and
			// resolving it against the final predicate (FinalAttributed)
			// reproduces the batch count exactly.
			p.pairs[uint64(rec.DstIP)<<32|uint64(rec.SrcIP)]++
		}
		// Host profiling. Batch mode knows the final ever-blackholed set
		// up front and only profiles those hosts; with wide gates every
		// external candidate passes and the (by then final) predicate is
		// left to ComposeProfiles. The event-window gates evaluate
		// identically either way: once a record is old enough to be
		// observed here, no future event can still cover it.
		if dstBH || p.wide {
			m := p.curDst.LookupNs(rec.DstIP, tn)
			if dstBH {
				if m.Active {
					a.flags |= fActive
				}
				if m.Event != nil {
					a.flags |= fInEvent
					a.event, a.matchLen = int32(m.Event.ID), m.Prefix.Len
				}
				if prefix, ok := p.curDst.InterestingNs(rec.DstIP, tn); ok {
					a.flags |= fInRange
					a.anomLen = prefix.Len
				}
			}
			if m.Event == nil && legitAt(p.curDst, rec.DstIP, tn) {
				a.flags |= fLegitIn
			}
		}
		if srcBH || p.wide {
			if m := p.curSrc.LookupNs(rec.SrcIP, tn); m.Event == nil && legitAt(p.curSrc, rec.SrcIP, tn) {
				a.flags |= fLegitOut
			}
		}
		if a.flags&(fLegitIn|fLegitOut) != 0 {
			a.day = int32((tn - periodStart) / int64(24*time.Hour))
		}
	}
	p.TotalRecords += int64(len(recs))
	p.InternalRecords += internal
	p.DroppedRecords += blackholed
	p.AttributedRecords += attributed
	if p.obs != nil {
		p.obs.attribute.Add(int64(time.Since(start)))
	}
}

const nFeeds = 6

// feeds are the operator lanes: each walks an attributed batch and touches
// its own operators only, so the feeds can run back to back on one
// goroutine (ObserveRecords) or each on its own (Lanes) and every operator
// still sees the stream in order. run returns how many records it fed.
var feeds = [nFeeds]struct {
	name string
	run  func(*Pipeline, []ipfix.FlowRecord, []attr) int
}{
	{"align", (*Pipeline).feedAlign},
	{"drop", (*Pipeline).feedDrop},
	{"proto", (*Pipeline).feedProto},
	{"pending", (*Pipeline).feedPending},
	{"anomaly", (*Pipeline).feedAnomaly},
	{"hosts", (*Pipeline).feedHosts},
}

// feed runs feeds[i] over one attributed batch and accounts it when
// instrumented.
func (p *Pipeline) feed(i int, recs []ipfix.FlowRecord, at []attr) {
	if p.obs == nil {
		feeds[i].run(p, recs, at)
		return
	}
	start := time.Now()
	n := feeds[i].run(p, recs, at)
	p.obs.busy[i].Add(int64(time.Since(start)))
	p.obs.records[i].Add(int64(n))
}

func (p *Pipeline) feedAlign(recs []ipfix.FlowRecord, at []attr) (n int) {
	for i := range at {
		if at[i].flags&fDropped != 0 {
			p.Align.AddDropped(p.curAlign, recs[i].DstIP, recs[i].Start)
			n++
		}
	}
	return n
}

// feedDrop feeds the drop statistics and the mitigation comparison, where
// FlowSpec wins a record an RTBH episode covers too: the more specific rule.
func (p *Pipeline) feedDrop(recs []ipfix.FlowRecord, at []attr) (n int) {
	for i, a := range at {
		if a.flags&(fFlowSpec|fActive) == 0 {
			continue
		}
		rec := &recs[i]
		drop, pkts, bytes := a.flags&fDropped != 0, int64(rec.Packets), int64(rec.Bytes)
		if a.flags&fFlowSpec != 0 {
			p.Mit.Add(bgp.MakePrefix(rec.DstIP, a.fsLen), mitigation.PhaseFlowSpec, rec.Proto, rec.SrcPort, drop, pkts, bytes)
		}
		if a.flags&fActive != 0 {
			p.Drop.Add(int(a.event), a.matchLen, a.member, drop, pkts, bytes)
			if a.flags&fFlowSpec == 0 {
				p.Mit.Add(bgp.MakePrefix(rec.DstIP, a.matchLen), mitigation.PhaseRTBH, rec.Proto, rec.SrcPort, drop, pkts, bytes)
			}
		}
		n++
	}
	return n
}

func (p *Pipeline) feedProto(recs []ipfix.FlowRecord, at []attr) (n int) {
	for i, a := range at {
		if a.flags&fInEvent == 0 {
			continue
		}
		rec := &recs[i]
		// Proto.Add reads the origin AS of amplification traffic only.
		var originAS uint32
		if netgen.IsAmplificationPort(rec.Proto, rec.SrcPort) {
			originAS, _ = p.Meta.IP2AS.Lookup(rec.SrcIP)
		}
		p.Proto.Add(int(a.event), rec.Proto, rec.SrcIP, rec.SrcPort, int64(rec.Packets), originAS, a.member)
		n++
	}
	return n
}

func (p *Pipeline) feedPending(recs []ipfix.FlowRecord, at []attr) (n int) {
	for i, a := range at {
		if a.flags&fInEvent != 0 {
			rec := &recs[i]
			p.Pending.Add(int(a.event), rec.DstIP, rec.DstPort, rec.Proto, a.flags&fDropped != 0, int64(rec.Packets))
			n++
		}
	}
	return n
}

func (p *Pipeline) feedAnomaly(recs []ipfix.FlowRecord, at []attr) (n int) {
	for i, a := range at {
		if a.flags&fInRange != 0 {
			rec := &recs[i]
			p.Anomaly.Add(bgp.MakePrefix(rec.DstIP, a.anomLen), rec.Start, rec.SrcIP, rec.SrcPort, rec.DstPort, rec.Proto, int64(rec.Packets))
			n++
		}
	}
	return n
}

func (p *Pipeline) feedHosts(recs []ipfix.FlowRecord, at []attr) (n int) {
	for i, a := range at {
		if a.flags&(fLegitIn|fLegitOut) == 0 {
			continue
		}
		rec := &recs[i]
		if a.flags&fLegitIn != 0 {
			p.Hosts.AddIncoming(rec.DstIP, a.day, rec.SrcPort, rec.DstPort, rec.Proto, int64(rec.Packets))
		}
		if a.flags&fLegitOut != 0 {
			p.Hosts.AddOutgoing(rec.SrcIP, a.day, rec.SrcPort, rec.DstPort, rec.Proto, int64(rec.Packets))
		}
		n++
	}
	return n
}

// legitAt reports that no event window starts within the reaction buffer
// after tn (the caller has already checked that tn itself is outside any
// window). cur is the cursor already seeked to ip's address family of
// queries (destination- or source-keyed).
func legitAt(cur *events.Cursor, ip uint32, tn int64) bool {
	return cur.LookupNs(ip, tn+int64(ReactionBuffer)).Event == nil
}

// EverBlackholed reports whether ip lies inside a prefix that was
// blackholed at any point of the (currently known) control stream.
func (p *Pipeline) EverBlackholed(ip uint32) bool {
	_, ok := p.Index.EverBlackholed(ip)
	return ok
}

// FinalAttributed returns the attributed-record count under the current
// control-plane view: the eagerly counted records plus the speculative
// pairs whose destination or source has since entered the
// ever-blackholed set. Batch pipelines have no pairs, so this equals
// AttributedRecords.
func (p *Pipeline) FinalAttributed() int64 {
	n := p.AttributedRecords
	for k, v := range p.pairs {
		if p.EverBlackholed(uint32(k>>32)) || p.EverBlackholed(uint32(k)) {
			n += v
		}
	}
	return n
}

// ComposeProfiles computes the host profiles (the §6 population) from the
// accumulated host state. minActiveDays is the detection criterion
// (hosts.MinActiveDays for the paper's 20). Speculative pipelines filter
// their candidate hosts through the ever-blackholed predicate here,
// which is exactly the population a batch pass would have profiled.
func (p *Pipeline) ComposeProfiles(minActiveDays int) []hosts.Profile {
	profiles := p.Hosts.ProfilesFunc(minActiveDays, p.hostKeep())
	p.profileCount = int64(len(profiles))
	return profiles
}

// ComposeWhitelist computes the §7.2 whitelist coverage under the same
// host predicate as ComposeProfiles.
func (p *Pipeline) ComposeWhitelist(minActiveDays int) []hosts.Coverage {
	return p.Hosts.WhitelistCoverageFunc(minActiveDays, p.hostKeep())
}

func (p *Pipeline) hostKeep() func(uint32) bool {
	if !p.speculative {
		return nil
	}
	return p.EverBlackholed
}

// ComposeCollateral builds the collateral-damage aggregator for the
// detected server profiles and materializes the pending during-event
// tallies into it (§6.3, Fig 18), probing each event's table for the
// servers inside the event's prefix.
func (p *Pipeline) ComposeCollateral(profiles []hosts.Profile) *collateral.Aggregator {
	agg := collateral.New(profiles)
	prefixes := make([]bgp.Prefix, len(p.Events))
	for i, e := range p.Events {
		prefixes[i] = e.Prefix // Events are in ID order
	}
	p.Pending.Materialize(agg, prefixes)
	return agg
}

// PendingCells returns the number of (event, destination, port) tally
// cells retained for the collateral question: every cell of every event
// the observed records touched, kept for the whole run because top ports
// are known only at compose time. On the online analyzer's sealed state
// it is the online.pending_cells gauge.
func (p *Pipeline) PendingCells() int { return p.Pending.Len() }
