package rtbh

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/anomaly"
	"repro/internal/analysis/events"
	"repro/internal/analysis/hosts"
	"repro/internal/analysis/load"
	"repro/internal/analysis/pipeline"
	"repro/internal/analysis/usecase"
	"repro/internal/analysis/visibility"
	"repro/internal/ipfix"
	"repro/internal/radviz"
)

// flowRecord aliases the canonical data-plane record.
type flowRecord = ipfix.FlowRecord

// recordBatch aliases the pooled record batch of the hot streaming path.
type recordBatch = ipfix.RecordBatch

// FlowRecord is the public name of the sampled-packet record type.
type FlowRecord = ipfix.FlowRecord

// composeReport assembles every figure/table from the finished pipeline
// state and the (time-sorted) control-update stream. Both the batch
// driver and the online analyzer's Snapshot call it: the pipeline carries
// the flow-derived operator state, and the control-plane figures are
// recomputed from the updates — pure functions of a stream several orders
// of magnitude smaller than the flow archive, each one pass over it (the
// Fig 10 sweep included: one pass, then a binary search per threshold).
// The pre-RTBH anomaly scan follows the populated feature slots, not the
// 865 slots of every event's window. Every cold looking-glass query pays
// for all of this, so nothing here may grow with a window length or a
// parameter count (DESIGN.md, "Compose cost").
//
// The sections only read the pipeline, and each writes its own Report
// fields, so the four groups below run on goroutines of their own while
// the caller composes the control-plane figures, the drop statistics and
// Table 5. Under opts.Workers 1 or a single processor they run on the
// caller, in the order listed, before the caller's own sections.
func composeReport(meta *analysis.Metadata, updates []analysis.ControlUpdate, p *pipeline.Pipeline, opts Options) *Report {
	r := &Report{
		TotalRecords:      p.TotalRecords,
		InternalRecords:   p.InternalRecords,
		AttributedRecords: p.FinalAttributed(),
		DroppedRecords:    p.DroppedRecords,
		Events:            p.Events,
	}
	wait := sections(opts.Workers == 1,
		// Data-plane: time alignment.
		func() { r.Fig2 = p.Align.Estimate(opts.OffsetStep) },
		func() { composeAnomaly(r, meta, p, opts) },
		func() { composeHosts(r, meta, p, opts) },
		func() { r.Whitelist = p.ComposeWhitelist(opts.MinActiveDays) },
	)

	// Control-plane figures.
	r.Fig3 = load.Compute(updates, meta.Start, meta.End)
	peers := make([]uint32, 0, len(meta.MemberByMAC))
	for _, asn := range meta.MemberByMAC {
		peers = append(peers, asn)
	}
	r.Fig4 = visibility.Compute(updates, peers, meta.Start, meta.End, opts.VisibilityInterval)
	r.Fig10, r.Fig10LowerBound = sweep(updates, meta.End, opts)

	// Drop statistics.
	r.Fig5 = p.Drop.ByLength()
	r.Fig5AvgPkts, r.Fig5AvgBytes = p.Drop.AverageDropRate()
	r.Fig6Slash24 = p.Drop.DropRateCDF(24, opts.MinEventPkts)
	r.Fig6Slash32 = p.Drop.DropRateCDF(32, opts.MinEventPkts)
	r.EventDrops = p.Drop.EventStats()
	r.Fig7 = p.Drop.TopSources(opts.TopSources)
	r.Fig7Classes = p.Drop.ClassifyTopSources(opts.TopSources)
	r.Fig8 = p.Drop.TypesOfTopSources(opts.TopSources, meta.PDB)

	// Table 5: the RTBH-vs-FlowSpec mitigation comparison.
	r.Table5 = p.Mit.Compose()
	wait()
	return r
}

// sections starts each fn on a goroutine of its own and returns the wait
// for all of them — or, with inline set or a single processor, runs them
// on the caller in order and returns a no-op: the rule pipeline.Lanes
// follows.
func sections(inline bool, fns ...func()) (wait func()) {
	if inline || runtime.GOMAXPROCS(0) == 1 {
		for _, fn := range fns {
			fn()
		}
		return func() {}
	}
	var wg sync.WaitGroup
	wg.Add(len(fns))
	for _, fn := range fns {
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	return wg.Wait
}

// composeAnomaly is the anomaly chain: the pre-RTBH verdicts, what
// Table 2 and Figs 11-13 tally from them, the protocol mix over the events
// they select, and the use cases of Fig 19.
func composeAnomaly(r *Report, meta *analysis.Metadata, p *pipeline.Pipeline, opts Options) {
	// The EWMA threshold is relative; the absolute anomaly support floor
	// derives from the dataset's traffic scale.
	r.Verdicts = p.Anomaly.AnalyzeScaled(p.Events, meta.End, opts.Threshold, meta.MagnitudeScale())
	r.Table2 = anomaly.Classify(r.Verdicts)
	lastMax, withPreData := 0, 0
	var anomalyAndDataIDs []int
	for i := range r.Verdicts {
		v := &r.Verdicts[i]
		if v.HasPreData {
			withPreData++
			r.Fig11PreDataSlots = append(r.Fig11PreDataSlots, v.PreDataSlots)
		} else {
			r.Fig11NoData++
		}
		r.Fig12 = append(r.Fig12, v.Anomalies...)
		for f := range v.AmpFactor {
			if v.AmpFactor[f] > 0 {
				r.Fig13[f] = append(r.Fig13[f], v.AmpFactor[f])
			}
		}
		if v.AmpFactor[anomaly.FeatPackets] > 0 && v.LastSlotIsMax {
			lastMax++
		}
		if v.HasEventData {
			r.EventsWithData++
			if v.Within10Min {
				r.AnomalyAndData++
				anomalyAndDataIDs = append(anomalyAndDataIDs, v.EventID)
			}
		}
	}
	// Per §5.3, the share is over events with pre-window data.
	if withPreData > 0 {
		r.Fig13LastSlotMax = float64(lastMax) / float64(withPreData)
	}

	// Protocol mix, filtering potential and AS participation over events
	// with a preceding anomaly and during-event data (§5.4-§5.5).
	r.ProtoShares = p.Proto.Shares(anomalyAndDataIDs)
	r.Table3, r.Table3Events = p.Proto.ProtocolCountDist(anomalyAndDataIDs)
	r.Fig14 = p.Proto.FilterableShares(anomalyAndDataIDs)
	r.Fig14FullyFilterable = p.Proto.FullyFilterableShare(anomalyAndDataIDs)
	r.Fig15Origin = p.Proto.OriginParticipation(anomalyAndDataIDs)
	r.Fig15Handover = p.Proto.HandoverParticipation(anomalyAndDataIDs)
	r.Fig15Scale = p.Proto.Scale(anomalyAndDataIDs)

	r.Fig19 = usecase.Classify(p.Events, r.Verdicts, meta.End)
}

// composeHosts is the host chain: the host profiles, their projection
// and types (Figs 16-17, Table 4), and the collateral damage to the
// detected servers (Fig 18).
func composeHosts(r *Report, meta *analysis.Metadata, p *pipeline.Pipeline, opts Options) {
	profiles := p.ComposeProfiles(opts.MinActiveDays)
	r.Fig17 = profiles
	proj := radviz.New(hosts.NumFeatures)
	for i := range profiles {
		r.Fig16 = append(r.Fig16, proj.Project(profiles[i].Features[:]))
	}
	r.Table4 = hosts.Types(profiles, meta.IP2AS, meta.PDB)
	r.Fig18 = p.ComposeCollateral(profiles).Result()
}

// sweep runs the Fig 10 merge-threshold sweep.
func sweep(updates []analysis.ControlUpdate, periodEnd time.Time, opts Options) ([]SweepPoint, float64) {
	if len(opts.SweepDeltas) == 0 {
		return nil, 0
	}
	return events.Sweep(updates, opts.SweepDeltas, periodEnd)
}
