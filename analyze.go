package rtbh

import (
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/anomaly"
	"repro/internal/analysis/collateral"
	"repro/internal/analysis/dropstats"
	"repro/internal/analysis/events"
	"repro/internal/analysis/hosts"
	"repro/internal/analysis/load"
	"repro/internal/analysis/mitigation"
	"repro/internal/analysis/pipeline"
	"repro/internal/analysis/protomix"
	"repro/internal/analysis/timealign"
	"repro/internal/analysis/usecase"
	"repro/internal/analysis/visibility"
	"repro/internal/obs"
	"repro/internal/radviz"
	"repro/internal/stats"
)

// MetricsRegistry is the observability registry (see internal/obs): a
// named collection of counters, gauges, histograms and span timers that
// renders to a human text table or stable JSON. Aliased so consumers need
// no internal imports.
type MetricsRegistry = obs.Registry

// MetricsSnapshot is a point-in-time copy of a registry's state.
type MetricsSnapshot = obs.Snapshot

// NewMetricsRegistry returns an empty metrics registry, ready to pass as
// Options.Metrics or to SimulateObserved.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// Public aliases so report consumers need no internal imports.
type (
	// Event is a merged RTBH event.
	Event = events.Event
	// SweepPoint is one merge-threshold sweep result (Fig 10).
	SweepPoint = events.SweepPoint
	// LoadResult is the Fig 3 outcome.
	LoadResult = load.Result
	// VisibilityResult is the Fig 4 outcome.
	VisibilityResult = visibility.Result
	// TimeAlignResult is the Fig 2 outcome.
	TimeAlignResult = timealign.Result
	// LengthStat is one Fig 5 row.
	LengthStat = dropstats.LengthStat
	// EventDropStat is one event's efficacy tally (serving layer).
	EventDropStat = dropstats.EventStat
	// SourceBehaviour is one Fig 7 row.
	SourceBehaviour = dropstats.SourceBehaviour
	// SourceClasses is the Fig 7 summary.
	SourceClasses = dropstats.SourceClasses
	// TopSourceTypes is the Fig 8 outcome.
	TopSourceTypes = dropstats.TopSourceTypes
	// Verdict is a per-event anomaly verdict.
	Verdict = anomaly.Verdict
	// ClassCounts is the Table 2 outcome.
	ClassCounts = anomaly.ClassCounts
	// ProtocolShares is the §5.4 transport mix.
	ProtocolShares = protomix.ProtocolShares
	// Participation is one Fig 15 CDF.
	Participation = protomix.Participation
	// AttackScale summarizes per-event source diversity.
	AttackScale = protomix.AttackScale
	// HostProfile is one profiled blackholed host (Figs 16-17).
	HostProfile = hosts.Profile
	// WhitelistCoverage quantifies the §7.2 whitelisting claim.
	WhitelistCoverage = hosts.Coverage
	// TypeTable is the Table 4 outcome.
	TypeTable = hosts.TypeTable
	// CollateralResult is the Fig 18 outcome.
	CollateralResult = collateral.Result
	// MitigationResult is the Table 5 outcome (RTBH vs FlowSpec).
	MitigationResult = mitigation.Result
	// MitigationPhaseStat is one Table 5 row.
	MitigationPhaseStat = mitigation.PhaseStat
	// MitigationPrefixStat is the per-victim-prefix Table 5 detail.
	MitigationPrefixStat = mitigation.PrefixStat
	// MitigationCounter is a dropped/forwarded traffic tally.
	MitigationCounter = analysis.Counter
	// UseCaseResult is the Fig 19 outcome.
	UseCaseResult = usecase.Result
	// UseCaseClass is a Fig 19 classification label.
	UseCaseClass = usecase.Class
	// ECDF is an empirical CDF.
	ECDF = stats.ECDF
	// RadVizPoint is a projected Fig 16 coordinate.
	RadVizPoint = radviz.Point
)

// Options tune the analysis; DefaultOptions matches the paper.
type Options struct {
	// Delta is the event merge threshold (paper: 10 minutes).
	Delta time.Duration
	// Threshold is the EWMA anomaly threshold in standard deviations
	// (paper: 2.5).
	Threshold float64
	// MinActiveDays is the host-profiling criterion (paper: 20).
	MinActiveDays int
	// OffsetStep is the Fig 2 grid resolution.
	OffsetStep time.Duration
	// SweepDeltas are the Fig 10 thresholds.
	SweepDeltas []time.Duration
	// TopSources is the Fig 7/8 population size (paper: 100).
	TopSources int
	// VisibilityInterval is the Fig 4 sampling interval.
	VisibilityInterval time.Duration
	// MinEventPkts excludes events with fewer samples from the Fig 6
	// per-event drop-rate CDFs.
	MinEventPkts int64
	// Workers selects how the streaming pass and the report's compose are
	// scheduled: 1 runs both on one goroutine; 0 (the default) runs one
	// goroutine per operator and composes the report's independent
	// sections side by side, scheduled over GOMAXPROCS — on the caller
	// alone when GOMAXPROCS is 1. Any larger count is accepted and means
	// 0: there is one lane per operator, not per worker. Reports are
	// byte-identical either way (see DESIGN.md, "Parallel pipeline" and
	// "Compose cost").
	Workers int
	// Metrics, when non-nil, receives the analysis observability metrics
	// ("pipeline.*", "dropstats.*", "analysis.*"; see DESIGN.md,
	// "Observability"). A registry instruments a single Analyze call:
	// pass a fresh registry per run and snapshot after Analyze returns.
	Metrics *MetricsRegistry
}

// DefaultOptions returns the paper's parameterization.
func DefaultOptions() Options {
	sweep := make([]time.Duration, 0, 60)
	for m := 1; m <= 60; m++ {
		sweep = append(sweep, time.Duration(m)*time.Minute)
	}
	return Options{
		Delta:              events.DefaultDelta,
		Threshold:          anomaly.DefaultThreshold,
		MinActiveDays:      hosts.MinActiveDays,
		OffsetStep:         10 * time.Millisecond,
		SweepDeltas:        sweep,
		TopSources:         100,
		VisibilityInterval: 30 * time.Minute,
		MinEventPkts:       10,
	}
}

// Report carries the regenerated result of every figure and table in the
// paper's evaluation. Field names follow the paper's numbering; see
// EXPERIMENTS.md for the paper-vs-measured comparison.
type Report struct {
	// Cleaning/attribution counters (§3.1).
	TotalRecords, InternalRecords, AttributedRecords, DroppedRecords int64

	// Events are the merged RTBH events at Options.Delta.
	Events []*Event
	// Verdicts are the per-event anomaly verdicts (same order).
	Verdicts []Verdict

	// Fig2: control/data clock offset MLE.
	Fig2 *TimeAlignResult
	// Fig3: parallel-RTBH load series.
	Fig3 *LoadResult
	// Fig4: targeted-announcement visibility quantiles.
	Fig4 *VisibilityResult
	// Fig5: drop rates by prefix length; Fig5AvgPkts/Bytes are the
	// dashed averages.
	Fig5         []LengthStat
	Fig5AvgPkts  float64
	Fig5AvgBytes float64
	// Fig6: per-event drop-rate CDFs for /24 and /32.
	Fig6Slash24 *ECDF
	Fig6Slash32 *ECDF
	// EventDrops are the per-event efficacy tallies behind Fig 6, sorted
	// by event ID (events without attributed traffic have no row). The
	// looking-glass serving layer (internal/serve) joins them against
	// Events and Verdicts for its per-event view.
	EventDrops []EventDropStat
	// Fig7: top source behaviour and its classification.
	Fig7        []SourceBehaviour
	Fig7Classes SourceClasses
	// Fig8: PeeringDB types of the top sources.
	Fig8 TopSourceTypes
	// Fig10: merge-threshold sweep; Fig10LowerBound is delta=infinity.
	Fig10           []SweepPoint
	Fig10LowerBound float64
	// Fig11: cumulative distribution of pre-RTBH slots with data.
	Fig11PreDataSlots []int
	Fig11NoData       int
	// Fig12: anomaly (level, offset) points across all events.
	Fig12 []anomaly.Anomaly
	// Fig13: per-feature anomaly amplification factors (events with a
	// defined factor), plus the share of events whose last slot is the
	// window maximum.
	Fig13            [anomaly.NumFeatures][]float64
	Fig13LastSlotMax float64
	// Fig14: per-event filterable shares and the fully-filterable rate.
	Fig14                []float64
	Fig14FullyFilterable float64
	// Fig15: AS participation in amplification events.
	Fig15Origin   Participation
	Fig15Handover Participation
	Fig15Scale    AttackScale
	// Fig16: RadViz projection of host profiles (same order as Fig17).
	Fig16 []RadVizPoint
	// Fig17: host profiles with top-port variation and classification.
	Fig17 []HostProfile
	// Fig18: collateral damage.
	Fig18 *CollateralResult
	// Fig19: use-case classification.
	Fig19 *UseCaseResult
	// Table5: RTBH-vs-FlowSpec mitigation comparison, measured from the
	// data plane against the FlowSpec signaling stream. Always non-nil;
	// Measured() is false on datasets without fine-grained mitigation.
	Table5 *MitigationResult
	// Table2: pre-RTBH event classes.
	Table2 ClassCounts
	// Table3: distribution of distinct amplification protocols per
	// anomaly event with data; Table3Events is the population size.
	Table3       [6]float64
	Table3Events int
	// Table4: host population types.
	Table4 TypeTable
	// Whitelist is the §7.2 extension: per-host share of daily incoming
	// traffic a top-port whitelist built from earlier days would pass.
	Whitelist []WhitelistCoverage
	// Protocol mix over anomaly events with data (§5.4).
	ProtoShares ProtocolShares
	// EventsWithData counts events with any during-event samples (§5.4
	// reports 29%).
	EventsWithData int
	// AnomalyAndData counts events with both a preceding anomaly and
	// during-event data (§5.4 reports 18% of all).
	AnomalyAndData int
}

// span runs fn as one timed span of t (t may be nil).
func span(t *obs.Timer, fn func() error) error {
	if t == nil {
		return fn()
	}
	sp := t.Start()
	defer sp.End()
	return fn()
}

// pass streams the archive through the single-pass operator pipeline:
// the one batch pass, behind Analyze and behind every snapshot
// AnalyzeFederated merges. opts.Workers decides only how it is scheduled
// — on the caller, or on a goroutine per operator — and the pipeline's
// state is the same either way.
func (d *Dataset) pass(opts Options) (*pipeline.Pipeline, error) {
	pp, err := pipeline.NewParallel(d.Meta, d.Updates, opts.Delta, opts.Workers)
	if err != nil {
		return nil, err
	}
	pp.BindFlow(mitigation.NewIndex(d.FlowUpdates, d.Meta.End))
	var observe *obs.Timer
	if opts.Metrics != nil {
		pp.Instrument(opts.Metrics)
		observe = opts.Metrics.Timer("pipeline.observe")
	}
	if err := span(observe, func() error { return pp.RunBatches(d.EachFlowBatch) }); err != nil {
		return nil, err
	}
	return pp.Pipeline(), nil
}

// Analyze runs the batch pass and composes the report, byte-identical
// at any Options.Workers and identical to what the online analyzer's
// Snapshot produces over the same stream (see DESIGN.md, "Incremental
// analysis").
func (d *Dataset) Analyze(opts Options) (*Report, error) {
	p, err := d.pass(opts)
	if err != nil {
		return nil, err
	}
	var compose *obs.Timer
	if opts.Metrics != nil {
		opts.Metrics.GaugeFunc("analysis.control_updates", func() int64 { return int64(len(d.Updates)) })
		compose = opts.Metrics.Timer("analysis.compose")
	}
	var report *Report
	_ = span(compose, func() error { report = composeReport(d.Meta, d.Updates, p, opts); return nil })
	return report, nil
}

// Re-exported use-case classes (Fig 19).
const (
	UseCaseOther                    = usecase.ClassOther
	UseCaseInfrastructureProtection = usecase.ClassInfrastructureProtection
	UseCaseSquattingProtection      = usecase.ClassSquattingProtection
	UseCaseZombie                   = usecase.ClassZombie
	UseCaseContentBlocking          = usecase.ClassContentBlocking
)
