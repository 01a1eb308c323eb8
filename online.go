package rtbh

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/events"
	"repro/internal/analysis/mitigation"
	"repro/internal/analysis/pipeline"
	"repro/internal/bgp"
	"repro/internal/federation"
	"repro/internal/ipfix"
	"repro/internal/obs"
)

// ControlUpdate is the public name of the expanded RTBH control-plane
// update record.
type ControlUpdate = analysis.ControlUpdate

// sealHorizon is how far a flow record must lie behind the control-plane
// watermark before the online analyzer folds it into the incremental
// operators and releases it. events.PreWindow covers the longest
// look-back any stage performs (a future event's 72-hour pre-window);
// the extra hour generously covers every shorter-range gate (the
// 10-minute reaction buffer, the ±2s time-alignment search). A record
// older than this can never be re-attributed by an update that has not
// arrived yet, so observing it through the operators now is final (see
// DESIGN.md, "Incremental analysis").
const sealHorizon = events.PreWindow + time.Hour

// sealCheckEvery is how many ingested flow records pass between
// opportunistic seal/compact attempts on the ingest path.
const sealCheckEvery = 4096

// onlineMetrics is the optional obs instrumentation of the online path.
type onlineMetrics struct {
	retainedUpdates  *obs.Gauge
	retainedFlows    *obs.Gauge
	pendingCells     *obs.Gauge
	hosts            *obs.Gauge
	hostsPromoted    *obs.Gauge
	recordsCompacted *obs.Counter
	snapshotLatency  *obs.Histogram
	// The three phases of a snapshot after the seals have caught up, and
	// the sub-aggregates copied on first write by the sealed side and by
	// the snapshots' clones together.
	clone, replay, compose *obs.Timer
	cowCopies              *obs.Counter
	// What the seal checks cost the ingest goroutine, and how many control
	// updates the event view has folded in: equal to retained_updates as
	// long as every update was merged once, not once per check.
	seal          *obs.Timer
	mergedUpdates *obs.Counter
}

// OnlineAnalyzer accumulates a live run's measurement streams
// incrementally and can produce a Report at any point: a partial
// snapshot while the run is still streaming, or the final report once
// the streams have drained. A report over the complete streams is
// byte-identical (rendered) to analyzing the archived dataset with
// Dataset.Analyze, because both paths feed the same records through the
// same incremental operators in the same order.
//
// Unlike the batch driver, the analyzer does not buffer the flow stream
// forever: once a record falls a seal horizon (~73 hours of stream time)
// behind the newest control update, no future announcement can change
// its attribution, so it is folded into the compact operator state and
// released. Retained memory is therefore bounded by the horizon-sized
// tail of the flow stream plus the per-event aggregates, and Snapshot
// costs what the horizon tail touches plus compose: the sealed state is
// shared with the snapshot, not copied (see frozen).
//
// ObserveUpdate and ObserveFlowBatch may be called from different
// goroutines (in live mode they are: updates arrive on the route server's
// delivery goroutine, flows on the collector's decode goroutine);
// Snapshot may be called concurrently with both and never blocks ingest:
// the ingest paths wait only for a mutex held for appends and chunk
// hand-overs. Sealing is driven by the flow goroutine itself, every
// sealCheckEvery records, when the operator state is free (TryLock) — a
// check that finds a Snapshot holding it is skipped, not waited for. A
// check that seals anything folds it through the operators' lanes, one
// goroutine per operator, and returns once they have drained: no
// goroutine outlives the call, so the analyzer needs no Close.
//
// Updates must arrive in non-decreasing timestamp order (the live
// sequencer's delivery order guarantees this); feeding an update older
// than the seal horizon behind the newest one voids the batch-parity
// guarantee for already-sealed records.
type OnlineAnalyzer struct {
	meta  *analysis.Metadata
	delta time.Duration

	// mu guards the ingest state: stream appends and counters. Ingest
	// never blocks on analysis work.
	mu          sync.Mutex
	updates     []analysis.ControlUpdate
	flowUpdates []analysis.FlowUpdate
	// chunks is the arrival-order FIFO of the flow records not yet
	// released: pooled batches with Recs stretched to capacity, every one
	// but the last full; tail is how many records the last one holds.
	chunks    []*ipfix.RecordBatch
	tail      int
	flowCount int64
	watermark time.Time // newest control-update timestamp

	// opMu guards the incremental operator state and the seal machinery.
	// Lock order: opMu before mu; mu is never held while taking opMu.
	opMu sync.Mutex
	// ops holds the operator state of every sealed record, observing with
	// wide gates (see pipeline.NewSpeculative).
	ops *pipeline.Pipeline
	// sealed counts the records folded into ops; head is how many of them
	// sit at the front of chunks[0], waiting for the rest of their chunk.
	sealed int64
	head   int
	// cowSeen is how much of ops.CowCopies the cow_copies counter holds.
	cowSeen int64
	// view is the control-plane view ops observes under — events,
	// attribution index and the time-sorted stream behind them — extended
	// by the updates past the first opUpdates whenever a seal check finds
	// some. flowIx is the FlowSpec view ops observes under, extended the
	// same way by the raw FlowSpec updates past the first opFlows.
	view      *events.Merger
	opUpdates int
	flowIx    *mitigation.Index
	opFlows   int

	// initErr records an invalid-metadata failure; Snapshot surfaces it.
	initErr error

	metrics *onlineMetrics
}

// NewOnlineAnalyzer returns an analyzer accumulating against the given
// dataset metadata (side tables, sampling rate, measurement period).
// Events are merged at the paper's default threshold; Snapshot rejects
// Options with a different Delta — the merge threshold shapes the sealed
// per-event state and cannot change per snapshot.
func NewOnlineAnalyzer(meta *analysis.Metadata) *OnlineAnalyzer {
	a := &OnlineAnalyzer{
		meta:   meta,
		delta:  events.DefaultDelta,
		view:   events.NewMerger(events.DefaultDelta, meta.End),
		flowIx: mitigation.NewIndex(nil, meta.End),
	}
	a.ops, a.initErr = pipeline.NewSpeculative(meta)
	if a.ops != nil {
		a.ops.Rebind(a.view.Events(), a.view.Index())
		a.ops.BindFlow(a.flowIx)
	}
	return a
}

// RegisterMetrics exposes the analyzer's retention and snapshot metrics
// under the "online." prefix: gauges for retained control updates,
// retained (unsealed) flow records, the sealed collateral cells and the
// sealed host candidates (all of them, and those that outgrew a record), a
// counter of records compacted into operator state, a snapshot latency
// histogram (milliseconds) with span timers for its clone, replay and
// compose phases (they sum to no more than the histogram's total: lock
// wait and seal catch-up are the rest), and a counter of operator
// sub-aggregates copied on first write — at most one per key written per
// snapshot on either side. A span timer covers the seal checks that ran
// on the ingest goroutine, and a counter the control updates folded into
// the event view, each once: it equals the retained-updates gauge unless
// an out-of-order update forced a rebuild. All are updated per seal check
// or per snapshot, never per record. Call once, before the run starts.
func (a *OnlineAnalyzer) RegisterMetrics(reg *obs.Registry) {
	a.metrics = &onlineMetrics{
		retainedUpdates:  reg.Gauge("online.retained_updates"),
		retainedFlows:    reg.Gauge("online.retained_flows"),
		pendingCells:     reg.Gauge("online.pending_cells"),
		hosts:            reg.Gauge("online.hosts"),
		hostsPromoted:    reg.Gauge("online.hosts_promoted"),
		recordsCompacted: reg.Counter("online.records_compacted"),
		snapshotLatency: reg.Histogram("online.snapshot_latency_ms",
			1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000),
		clone:     reg.Timer("online.snapshot.clone"),
		replay:    reg.Timer("online.snapshot.replay"),
		compose:   reg.Timer("online.snapshot.compose"),
		cowCopies: reg.Counter("online.cow_copies"),

		seal:          reg.Timer("online.seal"),
		mergedUpdates: reg.Counter("online.control.merged_updates"),
	}
}

// ObserveUpdate ingests one BGP UPDATE the route server processed,
// expanding it into RTBH control updates and FlowSpec actions exactly as
// the batch MRT parser would (the same UPDATE never yields both).
func (a *OnlineAnalyzer) ObserveUpdate(ts time.Time, peer uint32, upd *bgp.Update) {
	a.mu.Lock()
	a.updates = analysis.ExpandUpdate(a.updates, ts, peer, upd)
	a.flowUpdates = analysis.ExpandFlowSpec(a.flowUpdates, ts, peer, upd)
	if ts.After(a.watermark) {
		a.watermark = ts
	}
	a.mu.Unlock()
}

// ObserveControl ingests one already-expanded control update (the
// archive replay path; live mode uses ObserveUpdate).
func (a *OnlineAnalyzer) ObserveControl(u ControlUpdate) {
	a.mu.Lock()
	a.updates = append(a.updates, u)
	if u.Time.After(a.watermark) {
		a.watermark = u.Time
	}
	a.mu.Unlock()
}

// ObserveFlowSpec ingests one already-expanded FlowSpec action (the
// archive replay counterpart of ObserveControl; live mode extracts
// FlowSpec actions from ObserveUpdate).
func (a *OnlineAnalyzer) ObserveFlowSpec(u analysis.FlowUpdate) {
	a.mu.Lock()
	a.flowUpdates = append(a.flowUpdates, u)
	if u.Time.After(a.watermark) {
		a.watermark = u.Time
	}
	a.mu.Unlock()
}

// ObserveFlowBatch ingests one batch of collected flow records (copied
// into the pending chunks; the caller keeps ownership of b per the
// ipfix.RecordBatch contract). The ingest lock is taken once per batch.
// Whenever the stream crosses a multiple of sealCheckEvery records it
// opportunistically folds sealed records into the operators — skipped
// without blocking when a Snapshot holds the operator state.
func (a *OnlineAnalyzer) ObserveFlowBatch(b *ipfix.RecordBatch) {
	if b.Len() == 0 {
		return
	}
	a.mu.Lock()
	for src := b.Recs; len(src) > 0; {
		if len(a.chunks) == 0 || a.tail == len(a.chunks[len(a.chunks)-1].Recs) {
			c := ipfix.GetBatch()
			c.Recs = c.Recs[:cap(c.Recs)]
			a.chunks = append(a.chunks, c)
			a.tail = 0
		}
		n := copy(a.chunks[len(a.chunks)-1].Recs[a.tail:], src)
		a.tail += n
		src = src[n:]
	}
	before := a.flowCount
	a.flowCount += int64(b.Len())
	n := a.flowCount
	a.mu.Unlock()

	if n/sealCheckEvery != before/sealCheckEvery && a.opMu.TryLock() {
		start := time.Now()
		a.advanceLocked()
		a.opMu.Unlock()
		if m := a.metrics; m != nil {
			m.seal.Observe(time.Since(start))
		}
	}
}

// Counts reports how much the analyzer has accumulated so far.
func (a *OnlineAnalyzer) Counts() (updates int, flows int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.updates), a.flowCount
}

// Watermark returns the newest control-update timestamp observed so far
// (the zero time before the first update). The serving layer uses it as
// the default "now" for active-blackhole queries.
func (a *OnlineAnalyzer) Watermark() time.Time {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.watermark
}

// Period returns the measurement period the analyzer accumulates
// against (the dataset metadata's start and end).
func (a *OnlineAnalyzer) Period() (start, end time.Time) {
	return a.meta.Start, a.meta.End
}

// pendingView is a stable prefix of the pending FIFO: the chunk list as
// it stood, the record count of its last chunk, and how many flow records
// the stream held in all. Ingest only writes past it — behind tail in the
// last chunk, or into chunks appended since.
type pendingView struct {
	chunks []*ipfix.RecordBatch
	tail   int
	total  int64
}

// recs returns the records of the view's i-th chunk.
func (v pendingView) recs(i int) []ipfix.FlowRecord {
	if i == len(v.chunks)-1 {
		return v.chunks[i].Recs[:v.tail]
	}
	return v.chunks[i].Recs
}

// observe feeds p the view's records in arrival order, from the head-th
// of the first chunk on, through the pipeline's lanes (inline: on the
// caller). The caller holds opMu, which keeps the chunks from being
// released under the lanes.
func (v pendingView) observe(p *pipeline.Pipeline, head int, inline bool) {
	l := p.StartLanes(inline)
	defer l.Close()
	for i := range v.chunks {
		l.ObserveRecords(v.recs(i)[head:])
		head = 0
	}
}

// ingestView returns a consistent view of the ingest state: the slices
// are stable prefixes (elements are never mutated and appends either
// write past the view or relocate the backing array).
func (a *OnlineAnalyzer) ingestView() (updates []analysis.ControlUpdate, flows []analysis.FlowUpdate, pend pendingView, w time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.updates, a.flowUpdates, pendingView{a.chunks, a.tail, a.flowCount}, a.watermark
}

// advanceLocked brings the operator state up to date: it extends the
// control-plane view by the updates that arrived since the last call,
// then folds every pending record older than the seal horizon into the
// operators through their lanes (one goroutine per operator, as in
// Dataset.Analyze; inline under GOMAXPROCS 1), hands the chunks that
// leaves empty back to the batch pool and accounts the retention metrics.
// The lanes live for one call: the view is extended in place under the
// attribution cursors, so they must have drained before the next Extend.
// Caller holds opMu; any pendingView taken before the call is stale after
// it.
func (a *OnlineAnalyzer) advanceLocked() {
	if a.ops == nil {
		return
	}
	updates, flows, pend, w := a.ingestView()

	if len(updates) != a.opUpdates {
		// The batch parser sorts by time after reading the archive; the
		// live stream arrives time-ordered, equal timestamps in processing
		// order, so extending the view by the new updates alone merges what
		// the parser's order would (a stream that is not falls back to
		// that order inside Extend). The index ops is bound to is
		// extended in place, and its cursors notice by themselves; only
		// the published events change.
		merged := a.view.Extend(updates[a.opUpdates:])
		a.ops.Events = a.view.Events()
		a.opUpdates = len(updates)
		if m := a.metrics; m != nil {
			m.mergedUpdates.Add(int64(merged))
		}
	}

	if len(flows) != a.opFlows {
		// The FlowSpec view is extended in place like the event view:
		// records seal only once every FlowSpec update that can cover them
		// has arrived, so extending never invalidates a sealed observation.
		a.flowIx.Extend(flows[a.opFlows:])
		a.opFlows = len(flows)
	}

	// Seal strictly in arrival order from the head: a young head record
	// blocks older successors, so the sealed stream plus the replayed
	// tail is always exactly the arrival order — the order the batch
	// pipeline would observe. A chunk is released once it is full and
	// sealed to its last record; the last chunk may still be filling. The
	// lanes start at the first record to seal and are closed before any
	// chunk they read goes back to the pool.
	cutoff := w.Add(-sealHorizon).UnixNano()
	before, released := a.sealed, 0
	var lanes *pipeline.Lanes
	for released < len(pend.chunks) {
		recs := pend.recs(released)
		end := a.head
		for end < len(recs) && recs[end].Start.UnixNano() < cutoff {
			end++
		}
		if end > a.head {
			if lanes == nil {
				lanes = a.ops.StartLanes(false)
			}
			lanes.ObserveRecords(recs[a.head:end])
		}
		a.sealed += int64(end - a.head)
		a.head = end
		if end < len(pend.chunks[released].Recs) {
			break
		}
		released++
		a.head = 0
	}
	if lanes != nil {
		lanes.Close()
	}
	if released > 0 {
		// Ingest only ever appends to the list, so its first entries are
		// still the chunks just sealed.
		a.mu.Lock()
		for i := range a.chunks[:released] {
			a.chunks[i].Release()
			a.chunks[i] = nil
		}
		a.chunks = a.chunks[released:]
		a.mu.Unlock()
	}

	if m := a.metrics; m != nil {
		m.recordsCompacted.Add(a.sealed - before)
		m.retainedUpdates.Set(int64(len(updates)))
		m.retainedFlows.Set(pend.total - a.sealed)
		m.pendingCells.Set(int64(a.ops.PendingCells()))
		m.hosts.Set(int64(a.ops.Hosts.Hosts()))
		m.hostsPromoted.Set(int64(a.ops.Hosts.Promoted()))
		copies := a.ops.CowCopies()
		m.cowCopies.Add(copies - a.cowSeen)
		a.cowSeen = copies
	}
}

// frozen hands compose the operator state of a batch pass over everything
// observed so far, leaving the analyzer's own state to keep accepting
// seals: it catches the seals up, clones the compact operator state —
// which copies nothing sealed; the clone shares every sub-aggregate until
// one side writes it — and replays the unsealed tail through the clone.
// The clone's control-plane view is fixed for its whole life, so it is
// frozen first and the tail pays batch gates, not speculative ones (see
// pipeline.Pipeline.Freeze) and, being private to this call, can take it
// through the pipeline's lanes unless inline is set. a.view.Updates() is
// the matching control stream.
//
// compose may keep whatever it derives from the clone after opMu is
// released: sealing never writes a sub-aggregate in place while it is
// shared, so state reachable from a finished snapshot is immutable.
func (a *OnlineAnalyzer) frozen(inline bool, compose func(*pipeline.Pipeline) error) error {
	start := time.Now()
	a.opMu.Lock()
	defer a.opMu.Unlock()
	a.advanceLocked()
	_, _, pend, _ := a.ingestView()

	cloneStart := time.Now()
	clone := a.ops.Clone()
	clone.Freeze()
	replayStart := time.Now()
	pend.observe(clone, a.head, inline)
	composeStart := time.Now()
	err := compose(clone)

	if m := a.metrics; m != nil {
		end := time.Now()
		m.clone.Observe(replayStart.Sub(cloneStart))
		m.replay.Observe(composeStart.Sub(replayStart))
		m.compose.Observe(end.Sub(composeStart))
		m.cowCopies.Add(clone.CowCopies())
		m.snapshotLatency.Observe(end.Sub(start).Milliseconds())
	}
	return err
}

// Snapshot composes a report over everything observed so far. Safe to
// call at any time, including while the streams are still being fed; the
// snapshot covers a consistent prefix of each stream and its rendered
// output is byte-identical to Dataset.Analyze over that prefix. Cost is
// proportional to the records and updates that arrived since sealing last
// caught up, the operator state those records touch, and compose — not to
// the total stream length or the sealed state.
//
// The report may be shared freely (the serving layer caches it across
// readers): whatever it references of the analyzer's state is never
// written in place afterwards.
//
// opts.Delta must equal the construction-time merge threshold
// (events.DefaultDelta, as in DefaultOptions). opts.Workers schedules the
// tail replay and the compose as it schedules Analyze's pass and compose. opts.Metrics is ignored:
// a snapshot is repeatable, and re-registering the pipeline gauges on
// each call would collide — use RegisterMetrics for the online path's
// own instrumentation.
func (a *OnlineAnalyzer) Snapshot(opts Options) (*Report, error) {
	if a.initErr != nil {
		return nil, a.initErr
	}
	if opts.Delta != a.delta {
		return nil, fmt.Errorf("rtbh: online snapshot delta %v does not match analyzer delta %v", opts.Delta, a.delta)
	}
	var report *Report
	err := a.frozen(opts.Workers == 1, func(clone *pipeline.Pipeline) error {
		report = composeReport(a.meta, a.view.Updates(), clone, opts)
		return nil
	})
	return report, err
}

// Final is the report over the drained streams: call it after the live
// run has finished (or been gracefully interrupted and drained). It is
// Snapshot at a moment when nothing more will arrive.
func (a *OnlineAnalyzer) Final(opts Options) (*Report, error) {
	return a.Snapshot(opts)
}

// FederationState reduces everything observed so far to a federation
// snapshot: the analyzer's time-sorted control stream plus the
// finalized, marshaled pipeline state over a consistent prefix of the
// flow stream. Like Snapshot it never disturbs the analyzer's own
// state — the clone absorbs the unsealed tail and is finalized, so the
// shipped state is interchangeable with a batch pass over the same
// records (see internal/federation).
func (a *OnlineAnalyzer) FederationState(ixp int, seq uint64, clockOffset time.Duration) (*federation.Snapshot, error) {
	if a.initErr != nil {
		return nil, a.initErr
	}
	snap := &federation.Snapshot{IXP: ixp, Seq: seq, ClockOffset: clockOffset}
	err := a.frozen(false, func(clone *pipeline.Pipeline) error {
		clone.Finalize()
		state, err := clone.MarshalState()
		snap.State = state
		snap.Updates = append([]analysis.ControlUpdate(nil), a.view.Updates()...)
		return err
	})
	if err != nil {
		return nil, err
	}
	return snap, nil
}
