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
// (Observe/Merge/Snapshot), which is what lets one engine serve three
// drivers: the sequential batch pass, the sharded parallel runner
// (Merge), and the online analyzer (Snapshot + speculative observation;
// see NewSpeculative and DESIGN.md, "Incremental analysis").
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
	// independently across records.
	curDst, curSrc *events.Cursor

	// MAC-derived metadata memo (IsInternal and the ingress member):
	// records of one injected batch share both MACs.
	lastSrcMAC, lastDstMAC ipfix.MAC
	lastInternal           bool
	lastMember             uint32
	macValid               bool

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
}

// New builds a batch pipeline: events are merged from the complete update
// stream with the given threshold (events.DefaultDelta for the paper's
// 10 minutes).
func New(meta *analysis.Metadata, updates []analysis.ControlUpdate, delta time.Duration) (*Pipeline, error) {
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	evs := events.Merge(updates, delta, meta.End)
	ix := events.NewIndex(evs, meta.End)
	p := newEmpty(meta)
	p.Events = evs
	p.Index = ix
	p.Align = timealign.New(ix)
	p.bindCursors()
	return p, nil
}

// NewSpeculative builds a pipeline for the online analyzer: the control
// stream is still growing, so observation runs with wide gates (see the
// field comments) against a view the caller extends as updates arrive,
// calling Rebind each time.
func NewSpeculative(meta *analysis.Metadata) (*Pipeline, error) {
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	p := newEmpty(meta)
	p.speculative, p.wide = true, true
	p.pairs = make(map[uint64]int64)
	p.Index = events.NewIndex(nil, meta.End)
	p.Align = timealign.New(p.Index)
	p.bindCursors()
	return p, nil
}

// bindCursors (re)creates the per-address attribution memos over the
// current Index. Call whenever Index is (re)assigned.
func (p *Pipeline) bindCursors() {
	p.curDst = events.NewCursor(p.Index)
	p.curSrc = events.NewCursor(p.Index)
}

func newEmpty(meta *analysis.Metadata) *Pipeline {
	return &Pipeline{
		Meta:    meta,
		Drop:    dropstats.New(),
		Anomaly: anomaly.New(),
		Proto:   protomix.New(),
		Hosts:   hosts.New(),
		Mit:     mitigation.New(),
		Pending: collateral.NewPending(),
	}
}

// Rebind points the pipeline at the current control-plane view (events
// plus attribution index): a rebuilt one, or the same index after an
// events.Merger extended it in place — either way every address memo
// resolved against the old state is dropped. Only meaningful for
// speculative pipelines, whose sealed observations stay valid because
// records are only finalized once no new event can still cover them
// (DESIGN.md, "Incremental analysis").
func (p *Pipeline) Rebind(evs []*events.Event, ix *events.Index) {
	p.Events = evs
	p.Index = ix
	p.Align.Rebind(ix)
	// Fresh cursors rather than Cursor.Rebind: wire-decoded pipelines
	// (UnmarshalState) reach here with no cursors at all.
	p.bindCursors()
}

// BindFlow points the pipeline at the FlowSpec mitigation view. Batch
// drivers bind once before the pass; the online analyzer re-binds as
// FlowSpec updates arrive, which keeps sealed observations valid for the
// same reason Rebind does — a record seals only once no in-flight
// FlowSpec update can still cover its timestamp.
func (p *Pipeline) BindFlow(ix *mitigation.Index) { p.FlowIx = ix }

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

// newShard returns a pipeline sharing p's immutable control-plane state
// (metadata, events, attribution index — all read-only during the
// streaming pass) with fresh, empty operators.
func (p *Pipeline) newShard() *Pipeline {
	s := newEmpty(p.Meta)
	s.Events = p.Events
	s.Index = p.Index
	s.FlowIx = p.FlowIx
	s.Align = timealign.New(p.Index)
	s.bindCursors()
	s.speculative, s.wide = p.speculative, p.wide
	if p.wide {
		s.pairs = make(map[uint64]int64)
	}
	return s
}

// MergeTimers holds per-operator span timers for the shard-merge stage of
// the parallel runner. Each shard merge contributes one span per
// operator.
type MergeTimers struct {
	Drop, Anomaly, Proto, Hosts, Align, Collateral, Mitigation obs.Timer
}

// spanned runs fn under t when timing is enabled (t may be nil).
func spanned(t *obs.Timer, fn func()) {
	if t == nil {
		fn()
		return
	}
	sp := t.Start()
	fn()
	sp.End()
}

// merge folds o's state into p, timing each operator merge when tm is
// non-nil. o must not observe any further records.
func (p *Pipeline) merge(o *Pipeline, tm *MergeTimers) {
	p.TotalRecords += o.TotalRecords
	p.InternalRecords += o.InternalRecords
	p.AttributedRecords += o.AttributedRecords
	p.DroppedRecords += o.DroppedRecords
	var drop, anom, proto, hosts, align, coll, mit *obs.Timer
	if tm != nil {
		drop, anom, proto, hosts, align, coll, mit = &tm.Drop, &tm.Anomaly, &tm.Proto, &tm.Hosts, &tm.Align, &tm.Collateral, &tm.Mitigation
	}
	spanned(drop, func() { p.Drop.Merge(o.Drop) })
	spanned(anom, func() { p.Anomaly.Merge(o.Anomaly) })
	spanned(proto, func() { p.Proto.Merge(o.Proto) })
	spanned(hosts, func() { p.Hosts.Merge(o.Hosts) })
	spanned(align, func() { p.Align.Merge(o.Align) })
	spanned(coll, func() { p.Pending.Merge(o.Pending) })
	spanned(mit, func() { p.Mit.Merge(o.Mit) })
	if p.pairs == nil && len(o.pairs) > 0 {
		p.pairs = make(map[uint64]int64, len(o.pairs))
	}
	for k, v := range o.pairs {
		p.pairs[k] += v
	}
}

// RegisterMetrics exposes the pipeline's cleaning counters, event and
// profile populations, and the drop-statistics totals under the
// "pipeline." and "dropstats." prefixes. The gauges read pipeline state
// at snapshot time; snapshot after the pass finished. The registered
// values reconcile exactly with the rendered report: records.dropped
// equals the report's DroppedRecords, and the dropstats totals sum the
// Fig 5 rows (see DESIGN.md, "Observability").
func (p *Pipeline) RegisterMetrics(reg *obs.Registry) {
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

// ObserveRecords processes a slice of flow records in order. Each record
// goes through a destination-keyed and a source-keyed half, split so that
// the parallel runner can route each half to the shard owning the
// respective address; run back to back they are exactly the sequential
// pass. The per-run memos (address cursors, MAC metadata) do the heavy
// lifting: consecutive records overwhelmingly share endpoints, so the
// per-record map probes that dominate a naive pass amortize across each
// run.
//
// The loop and the operators under it keep one rule: a record's keys are
// resolved by a run memo, a dense array or bitset read, or one
// find-or-insert in a flat table — never by lookup-then-assign on a Go
// map, by a per-record allocation, or by time.Time arithmetic (DESIGN.md,
// "The observe loop").
func (p *Pipeline) ObserveRecords(recs []ipfix.FlowRecord) {
	for i := range recs {
		rec := &recs[i]
		p.observeDst(rec)
		p.observeSrc(rec)
	}
}

// ObserveBatch processes one pooled record batch, borrowed for the
// duration of the call per the ipfix.RecordBatch contract.
func (p *Pipeline) ObserveBatch(b *ipfix.RecordBatch) { p.ObserveRecords(b.Recs) }

// resolveMACs returns the MAC-derived metadata for rec through the
// one-entry memo: whether the record touches an internal system and the
// ingress (source-MAC) member ASN.
func (p *Pipeline) resolveMACs(rec *ipfix.FlowRecord) (internal bool, srcMember uint32) {
	if !p.macValid || rec.SrcMAC != p.lastSrcMAC || rec.DstMAC != p.lastDstMAC {
		p.macValid = true
		p.lastSrcMAC, p.lastDstMAC = rec.SrcMAC, rec.DstMAC
		p.lastInternal = p.Meta.IsInternal(rec)
		p.lastMember = p.Meta.MemberOf(rec.SrcMAC)
	}
	return p.lastInternal, p.lastMember
}

// observeDst handles the cleaning counters and all aggregations keyed by
// the destination address (drop stats, protocol mix, anomaly features,
// time alignment, incoming host traffic, pending collateral tallies).
func (p *Pipeline) observeDst(rec *ipfix.FlowRecord) {
	p.TotalRecords++
	internal, srcMember := p.resolveMACs(rec)
	if internal {
		p.InternalRecords++
		return
	}
	dropped := rec.DstMAC == p.Meta.BlackholeMAC
	if dropped {
		p.DroppedRecords++
		p.Align.AddDropped(rec.DstIP, rec.Start)
	}
	pkts := int64(rec.Packets)
	bytes := int64(rec.Bytes)

	// FlowSpec-phase mitigation tally, evaluated before the RTBH
	// attribution gates: a FlowSpec-only mitigation covers destinations
	// that may never enter the ever-blackholed set at all. When both a
	// FlowSpec window and an RTBH episode cover the record, FlowSpec wins
	// (the rule is more specific than the covering blackhole).
	fsPrefix, fsActive := p.FlowIx.Lookup(rec.DstIP, rec.Start)
	if fsActive {
		p.Mit.Add(fsPrefix, mitigation.PhaseFlowSpec, rec.Proto, rec.SrcPort, dropped, pkts, bytes)
	}

	_, dstBH := p.curDst.EverBlackholed(rec.DstIP)
	_, srcBH := p.curSrc.EverBlackholed(rec.SrcIP)
	if dstBH || srcBH {
		p.AttributedRecords++
	} else if p.wide {
		// Neither endpoint has been blackholed *yet*; a later
		// announcement can still make this record attributable.
		// EverBlackholed is monotone, so tallying the pair now and
		// resolving it against the final predicate (FinalAttributed)
		// reproduces the batch count exactly.
		p.pairs[uint64(rec.DstIP)<<32|uint64(rec.SrcIP)]++
	}
	if !dstBH && !p.wide {
		return
	}
	m := p.curDst.Lookup(rec.DstIP, rec.Start)
	if dstBH {
		if m.Active {
			p.Drop.Add(m.Event.ID, m.Prefix.Len, srcMember, dropped, pkts, bytes)
			if !fsActive {
				p.Mit.Add(m.Prefix, mitigation.PhaseRTBH, rec.Proto, rec.SrcPort, dropped, pkts, bytes)
			}
		}
		if m.Event != nil {
			// Proto.Add reads the origin AS of amplification traffic only.
			var originAS uint32
			if netgen.IsAmplificationPort(rec.Proto, rec.SrcPort) {
				originAS, _ = p.Meta.IP2AS.Lookup(rec.SrcIP)
			}
			p.Proto.Add(m.Event.ID, rec.Proto, rec.SrcIP, rec.SrcPort, pkts, originAS, srcMember)
			p.Pending.Add(m.Event.ID, rec.DstIP, rec.DstPort, rec.Proto, dropped, pkts)
		}
		if prefix, ok := p.curDst.Interesting(rec.DstIP, rec.Start); ok {
			p.Anomaly.Add(prefix, rec.Start, rec.SrcIP, rec.SrcPort, rec.DstPort, rec.Proto, pkts)
		}
	}
	// Host profiling. Batch mode knows the final ever-blackholed set up
	// front and only profiles those destinations; with wide gates every
	// external candidate reaches here and the (by then final) predicate
	// is left to ComposeProfiles. The event-window gates
	// evaluate identically either way: once a record is old enough to
	// be observed here, no future event can still cover it.
	if m.Event == nil && p.legitAt(p.curDst, rec.DstIP, rec.Start) {
		day := int32(analysis.Day(p.Meta.Start, rec.Start))
		p.Hosts.AddIncoming(rec.DstIP, day, rec.SrcPort, rec.DstPort, rec.Proto, pkts)
	}
}

// observeSrc handles the aggregation keyed by the source address
// (outgoing host traffic). Counters are owned by observeDst so that a
// record dispatched to two shards is counted once.
func (p *Pipeline) observeSrc(rec *ipfix.FlowRecord) {
	internal, _ := p.resolveMACs(rec)
	if internal {
		return
	}
	if _, srcBH := p.curSrc.EverBlackholed(rec.SrcIP); !srcBH && !p.wide {
		return
	}
	mSrc := p.curSrc.Lookup(rec.SrcIP, rec.Start)
	if mSrc.Event == nil && p.legitAt(p.curSrc, rec.SrcIP, rec.Start) {
		day := int32(analysis.Day(p.Meta.Start, rec.Start))
		p.Hosts.AddOutgoing(rec.SrcIP, day, rec.SrcPort, rec.DstPort, rec.Proto, int64(rec.Packets))
	}
}

// legitAt reports that no event window starts within the reaction buffer
// after t (the caller has already checked that t itself is outside any
// window). cur is the cursor already seeked to ip's address family of
// queries (destination- or source-keyed).
func (p *Pipeline) legitAt(cur *events.Cursor, ip uint32, t time.Time) bool {
	m := cur.Lookup(ip, t.Add(ReactionBuffer))
	return m.Event == nil
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
// tallies into it (§6.3, Fig 18).
func (p *Pipeline) ComposeCollateral(profiles []hosts.Profile) *collateral.Aggregator {
	agg := collateral.New(profiles)
	p.Pending.Materialize(agg)
	return agg
}

// PendingCells returns the number of compact per-event tally cells
// currently retained for the collateral question (the
// online.open_event_records gauge).
func (p *Pipeline) PendingCells() int { return p.Pending.Len() }
