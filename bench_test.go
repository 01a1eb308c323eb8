package rtbh

// The benchmark harness regenerates every table and figure of the paper
// (see DESIGN.md for the experiment index). A shared world is simulated
// and analyzed once; each benchmark then times the computation behind its
// figure and reports the figure's headline numbers as custom metrics, so
// `go test -bench=. -benchmem` doubles as the reproduction run.
//
// Scale is selectable via RTBH_BENCH_SCALE=test|bench|full (default:
// test). The bench scale takes a few minutes of setup; full reproduces
// the paper's 104-day period.

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

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

var bench struct {
	once   sync.Once
	ds     *Dataset
	pipe   *pipeline.Pipeline
	report *Report
	opts   Options
	err    error
}

func benchSetup(b *testing.B) (*Dataset, *pipeline.Pipeline, *Report, Options) {
	b.Helper()
	bench.once.Do(func() {
		var cfg Config
		switch os.Getenv("RTBH_BENCH_SCALE") {
		case "full":
			cfg = DefaultConfig()
		case "bench":
			cfg = BenchConfig()
		default:
			cfg = TestConfig()
		}
		dir, err := os.MkdirTemp("", "rtbh-bench-*")
		if err != nil {
			bench.err = err
			return
		}
		if _, err := Simulate(cfg, dir); err != nil {
			bench.err = err
			return
		}
		ds, err := OpenDataset(dir)
		if err != nil {
			bench.err = err
			return
		}
		opts := DefaultOptions()
		p, err := pipeline.New(ds.Meta, ds.Updates, opts.Delta)
		if err != nil {
			bench.err = err
			return
		}
		if err := ds.EachFlowBatch(func(b *recordBatch) error { p.ObserveBatch(b); return nil }); err != nil {
			bench.err = err
			return
		}
		report, err := ds.Analyze(opts)
		if err != nil {
			bench.err = err
			return
		}
		bench.ds, bench.pipe, bench.report, bench.opts = ds, p, report, opts
	})
	if bench.err != nil {
		b.Fatal(bench.err)
	}
	return bench.ds, bench.pipe, bench.report, bench.opts
}

// BenchmarkFig2TimeOffset regenerates the control/data clock-offset MLE
// (paper: 99.36% overlap at -0.04s; here +40ms recovers the injected
// -40ms data-plane skew).
func BenchmarkFig2TimeOffset(b *testing.B) {
	_, p, _, opts := benchSetup(b)
	var res *TimeAlignResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = p.Align.Estimate(opts.OffsetStep)
	}
	b.ReportMetric(res.BestOffset.Seconds()*1000, "best_offset_ms")
	b.ReportMetric(100*res.BestOverlap, "overlap_pct")
}

// BenchmarkFig3RTBHLoad regenerates the parallel-RTBH load series
// (paper: 1,107 parallel on average, at most 1,400).
func BenchmarkFig3RTBHLoad(b *testing.B) {
	ds, _, _, _ := benchSetup(b)
	var res *LoadResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = load.Compute(ds.Updates, ds.Meta.Start, ds.Meta.End)
	}
	b.ReportMetric(res.AvgActive, "avg_active")
	b.ReportMetric(float64(res.MaxActive), "max_active")
	b.ReportMetric(float64(res.MaxMessagesPerMinute), "max_msgs_per_min")
}

// BenchmarkFig4Visibility regenerates the targeted-announcement
// visibility quantiles (paper: median peer missed up to 6.2%).
func BenchmarkFig4Visibility(b *testing.B) {
	ds, _, _, opts := benchSetup(b)
	peers := make([]uint32, 0, len(ds.Meta.MemberByMAC))
	for _, asn := range ds.Meta.MemberByMAC {
		peers = append(peers, asn)
	}
	var res *VisibilityResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = visibility.Compute(ds.Updates, peers, ds.Meta.Start, ds.Meta.End, opts.VisibilityInterval)
	}
	b.ReportMetric(100*res.PeakP50, "peak_median_hidden_pct")
	b.ReportMetric(100*res.PeakMax, "peak_max_hidden_pct")
}

// BenchmarkFig5DropByPrefixLen regenerates drop rates by prefix length
// (paper: /32 drops ~50% of packets, 44% of bytes).
func BenchmarkFig5DropByPrefixLen(b *testing.B) {
	_, p, _, _ := benchSetup(b)
	var rows []LengthStat
	var avgP, avgB float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = p.Drop.ByLength()
		avgP, avgB = p.Drop.AverageDropRate()
	}
	for _, row := range rows {
		if row.PrefixLen == 32 {
			b.ReportMetric(100*row.DropRatePkts(), "drop32_pkts_pct")
		}
	}
	b.ReportMetric(100*avgP, "avg_drop_pkts_pct")
	b.ReportMetric(100*avgB, "avg_drop_bytes_pct")
}

// BenchmarkFig6DropRateCDF regenerates the per-event drop-rate CDFs
// (paper: /32 quartiles 30/53/88%, /24 median 97%).
func BenchmarkFig6DropRateCDF(b *testing.B) {
	_, p, _, opts := benchSetup(b)
	var c32, c24 *ECDF
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c32 = p.Drop.DropRateCDF(32, opts.MinEventPkts)
		c24 = p.Drop.DropRateCDF(24, opts.MinEventPkts)
	}
	if c32.Len() > 0 {
		b.ReportMetric(100*c32.Quantile(0.5), "median32_pct")
	}
	if c24.Len() > 0 {
		b.ReportMetric(100*c24.Quantile(0.5), "median24_pct")
	}
}

// BenchmarkFig7Top100SourceASes regenerates the top-source behaviour
// classes (paper: 32 acceptors, 55 rejectors, 13 inconsistent).
func BenchmarkFig7Top100SourceASes(b *testing.B) {
	_, p, _, opts := benchSetup(b)
	var cls SourceClasses
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cls = p.Drop.ClassifyTopSources(opts.TopSources)
	}
	b.ReportMetric(float64(cls.Acceptors), "acceptors")
	b.ReportMetric(float64(cls.Rejectors), "rejectors")
	b.ReportMetric(float64(cls.Inconsistent), "inconsistent")
}

// BenchmarkFig8PeeringDBTypes regenerates the organization types of the
// top sources (paper: NSPs dominate the non-acceptors).
func BenchmarkFig8PeeringDBTypes(b *testing.B) {
	ds, p, _, opts := benchSetup(b)
	var tt TopSourceTypes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tt = p.Drop.TypesOfTopSources(opts.TopSources, ds.Meta.PDB)
	}
	b.ReportMetric(float64(tt.NonAcceptors["NSP"]), "nsp_non_acceptors")
}

// BenchmarkFig10MergeThreshold regenerates the merge-threshold sweep
// (paper: 400k announcements -> 34k events = 8.5% at delta 10min).
func BenchmarkFig10MergeThreshold(b *testing.B) {
	ds, _, _, _ := benchSetup(b)
	deltas := []time.Duration{time.Minute, 5 * time.Minute, 10 * time.Minute, 30 * time.Minute, time.Hour}
	var points []SweepPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, _ = events.Sweep(ds.Updates, deltas, ds.Meta.End)
	}
	for _, pt := range points {
		if pt.Delta == 10*time.Minute {
			b.ReportMetric(100*pt.Fraction, "events_per_announcement_pct")
		}
	}
}

// BenchmarkFig12AnomalyOffsets runs the full five-feature EWMA detection
// over every event's 72-hour pre-window — the computational heart of
// Figs 11-13 and Table 2.
func BenchmarkFig12AnomalyOffsets(b *testing.B) {
	ds, p, _, opts := benchSetup(b)
	var vs []Verdict
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vs = p.Anomaly.Analyze(p.Events, ds.Meta.End, opts.Threshold)
	}
	b.StopTimer()
	near, total := 0, 0
	for i := range vs {
		for _, a := range vs[i].Anomalies {
			total++
			if a.SlotsBefore <= 2 {
				near++
			}
		}
	}
	if total > 0 {
		b.ReportMetric(100*float64(near)/float64(total), "anomalies_within10min_pct")
	}
}

// BenchmarkFig11PreRTBHVisibility derives the pre-window data-sparsity
// distribution (paper: 46% of windows without any samples).
func BenchmarkFig11PreRTBHVisibility(b *testing.B) {
	_, _, r, _ := benchSetup(b)
	var noData, withData int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		noData, withData = 0, 0
		for j := range r.Verdicts {
			if r.Verdicts[j].HasPreData {
				withData++
			} else {
				noData++
			}
		}
	}
	b.ReportMetric(100*float64(noData)/float64(maxI(noData+withData, 1)), "no_data_pct")
}

// BenchmarkFig13AmplificationFactor derives the last-slot amplification
// factors (paper: multiples up to 800).
func BenchmarkFig13AmplificationFactor(b *testing.B) {
	_, _, r, _ := benchSetup(b)
	var maxF float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		maxF = 0
		for j := range r.Verdicts {
			if f := r.Verdicts[j].AmpFactor[anomaly.FeatPackets]; f > maxF {
				maxF = f
			}
		}
	}
	b.ReportMetric(maxF, "max_amp_factor")
}

// BenchmarkTable2PreRTBHClasses tallies the Table 2 classes
// (paper: 46% / 27% / 27%).
func BenchmarkTable2PreRTBHClasses(b *testing.B) {
	_, _, r, _ := benchSetup(b)
	var c ClassCounts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c = anomaly.Classify(r.Verdicts)
	}
	t := float64(maxI(c.Total(), 1))
	b.ReportMetric(100*float64(c.NoData)/t, "no_data_pct")
	b.ReportMetric(100*float64(c.DataAnomaly10Min)/t, "anomaly10min_pct")
}

// anomalyAndDataIDs recomputes the §5.4 event population.
func anomalyAndDataIDs(r *Report) []int {
	var ids []int
	for i := range r.Verdicts {
		if r.Verdicts[i].Within10Min && r.Verdicts[i].HasEventData {
			ids = append(ids, r.Verdicts[i].EventID)
		}
	}
	return ids
}

// BenchmarkTable3AmpProtocols regenerates the protocols-per-event
// distribution (paper: 1-2 protocols dominate at 40%+45%).
func BenchmarkTable3AmpProtocols(b *testing.B) {
	_, p, r, _ := benchSetup(b)
	ids := anomalyAndDataIDs(r)
	var dist [6]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist, _ = p.Proto.ProtocolCountDist(ids)
	}
	b.ReportMetric(100*dist[1], "one_protocol_pct")
	b.ReportMetric(100*dist[2], "two_protocols_pct")
}

// BenchmarkFig14FineGrainedFiltering regenerates the port-list filtering
// potential (paper: 90% of events fully coverable).
func BenchmarkFig14FineGrainedFiltering(b *testing.B) {
	_, p, r, _ := benchSetup(b)
	ids := anomalyAndDataIDs(r)
	var share float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		share = p.Proto.FullyFilterableShare(ids)
	}
	b.ReportMetric(100*share, "fully_filterable_pct")
}

// BenchmarkFig15ASParticipation regenerates the amplification-source
// participation CDFs (paper: top origin AS in 60% of events).
func BenchmarkFig15ASParticipation(b *testing.B) {
	_, p, r, _ := benchSetup(b)
	ids := anomalyAndDataIDs(r)
	var origin Participation
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		origin = p.Proto.OriginParticipation(ids)
	}
	if len(origin.Top10) > 0 {
		b.ReportMetric(100*origin.Top10[0], "top_origin_participation_pct")
	}
	b.ReportMetric(float64(origin.ASes), "origin_ases")
}

// BenchmarkFig16RadViz projects all host profiles (paper: client-like
// mass dominates).
func BenchmarkFig16RadViz(b *testing.B) {
	_, _, r, _ := benchSetup(b)
	proj := radviz.New(hosts.NumFeatures)
	var pt RadVizPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range r.Fig17 {
			pt = proj.Project(r.Fig17[j].Features[:])
		}
	}
	_ = pt
	b.ReportMetric(float64(len(r.Fig17)), "hosts_projected")
}

// BenchmarkFig17PortVariation rebuilds the host profiles from the raw
// aggregates (paper: >4k clients, ~1k servers).
func BenchmarkFig17PortVariation(b *testing.B) {
	_, p, _, opts := benchSetup(b)
	var profiles []HostProfile
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profiles = p.ComposeProfiles(opts.MinActiveDays)
	}
	servers, clients := 0, 0
	for i := range profiles {
		switch profiles[i].Kind {
		case hosts.KindServer:
			servers++
		case hosts.KindClient:
			clients++
		}
	}
	b.ReportMetric(float64(clients), "clients")
	b.ReportMetric(float64(servers), "servers")
}

// BenchmarkTable4HostASTypes joins host profiles against the routing
// table and PeeringDB (paper: clients 60% Cable/DSL, servers 34% Content).
func BenchmarkTable4HostASTypes(b *testing.B) {
	ds, _, r, _ := benchSetup(b)
	var tt TypeTable
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tt = hosts.Types(r.Fig17, ds.Meta.IP2AS, ds.Meta.PDB)
	}
	b.ReportMetric(100*tt.ClientTypes["Cable/DSL/ISP"], "client_cable_dsl_pct")
	b.ReportMetric(100*tt.ServerTypes["Content"], "server_content_pct")
}

// BenchmarkFig18CollateralDamage materializes the pending per-event cells
// against the server profiles and summarizes the collateral-damage counts
// (paper: up to 10^6 packets, ~300 events).
func BenchmarkFig18CollateralDamage(b *testing.B) {
	_, p, _, opts := benchSetup(b)
	profiles := p.ComposeProfiles(opts.MinActiveDays)
	var res *CollateralResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = p.ComposeCollateral(profiles).Result()
	}
	b.ReportMetric(float64(res.Events), "events_with_damage")
	b.ReportMetric(float64(res.MaxAll), "max_damage_pkts")
}

// BenchmarkFig19UseCaseClasses classifies all events into use cases
// (paper: 27% DDoS, 13% zombies, ~60% other).
func BenchmarkFig19UseCaseClasses(b *testing.B) {
	ds, p, r, _ := benchSetup(b)
	var res *UseCaseResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = usecase.Classify(p.Events, r.Verdicts, ds.Meta.End)
	}
	b.ReportMetric(100*res.Shares[UseCaseInfrastructureProtection], "infrastructure_pct")
	b.ReportMetric(100*res.Shares[UseCaseZombie], "zombie_pct")
	b.ReportMetric(100*res.Shares[UseCaseOther], "other_pct")
}

// BenchmarkTable1UseCaseMatrix touches the static expectations table
// (descriptive; included for completeness of the experiment index).
func BenchmarkTable1UseCaseMatrix(b *testing.B) {
	benchSetup(b)
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = len(usecase.Table1)
	}
	b.ReportMetric(float64(n), "rows")
}

// --- Ablations (design choices called out in DESIGN.md) ---

// BenchmarkAblationMergeDelta compares event counts at alternative merge
// thresholds: too small splits mitigations, too large fuses incidents.
func BenchmarkAblationMergeDelta(b *testing.B) {
	ds, _, _, _ := benchSetup(b)
	for _, delta := range []time.Duration{time.Minute, 10 * time.Minute, time.Hour} {
		b.Run(delta.String(), func(b *testing.B) {
			var evs []*Event
			for i := 0; i < b.N; i++ {
				evs = events.Merge(ds.Updates, delta, ds.Meta.End)
			}
			b.ReportMetric(float64(len(evs)), "events")
		})
	}
}

// BenchmarkAblationThreshold compares the anomaly classification at the
// paper's 2.5 sigma against the extreme 10 sigma it reports as stable.
func BenchmarkAblationThreshold(b *testing.B) {
	ds, p, _, _ := benchSetup(b)
	for _, thr := range []float64{2.5, 10} {
		b.Run(thrName(thr), func(b *testing.B) {
			var vs []Verdict
			for i := 0; i < b.N; i++ {
				vs = p.Anomaly.Analyze(p.Events, ds.Meta.End, thr)
			}
			c := anomaly.Classify(vs)
			b.ReportMetric(100*float64(c.DataAnomaly10Min)/float64(maxI(c.Total(), 1)), "anomaly10min_pct")
		})
	}
}

func thrName(t float64) string {
	if t == 2.5 {
		return "2.5sd"
	}
	return "10sd"
}

// BenchmarkAblationSamplingRate re-simulates a small world at different
// sampling rates and reports how many events remain visible on the data
// plane — the paper's core measurement caveat.
func BenchmarkAblationSamplingRate(b *testing.B) {
	for _, rate := range []int64{1000, 10000, 100000} {
		b.Run(rateName(rate), func(b *testing.B) {
			var visible float64
			for i := 0; i < b.N; i++ {
				visible = eventVisibilityAtRate(b, rate)
			}
			b.ReportMetric(100*visible, "events_with_predata_pct")
		})
	}
}

func rateName(r int64) string {
	switch r {
	case 1000:
		return "1:1000"
	case 10000:
		return "1:10000"
	default:
		return "1:100000"
	}
}

func eventVisibilityAtRate(b *testing.B, rate int64) float64 {
	b.Helper()
	cfg := TestConfig()
	cfg.Days = 14
	cfg.EventsTotal = 300
	cfg.UniqueVictims = 150
	cfg.Members = 60
	cfg.RTBHUsers = 12
	cfg.VictimOriginASes = 16
	cfg.RemoteOriginASes = 200
	cfg.SamplingRate = rate
	dir, err := os.MkdirTemp("", "rtbh-ablate-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if _, err := Simulate(cfg, dir); err != nil {
		b.Fatal(err)
	}
	ds, err := OpenDataset(dir)
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions()
	opts.SweepDeltas = nil
	opts.OffsetStep = 100 * time.Millisecond
	r, err := ds.Analyze(opts)
	if err != nil {
		b.Fatal(err)
	}
	withData := 0
	for i := range r.Verdicts {
		if r.Verdicts[i].HasPreData {
			withData++
		}
	}
	return float64(withData) / float64(maxI(len(r.Verdicts), 1))
}

// BenchmarkSimulate measures end-to-end dataset generation at a small
// scale (per-iteration full simulation).
func BenchmarkSimulate(b *testing.B) {
	cfg := TestConfig()
	cfg.Days = 10
	cfg.EventsTotal = 200
	cfg.UniqueVictims = 100
	cfg.Members = 50
	cfg.RTBHUsers = 10
	cfg.VictimOriginASes = 12
	cfg.RemoteOriginASes = 150
	for i := 0; i < b.N; i++ {
		dir, err := os.MkdirTemp("", "rtbh-simbench-*")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Simulate(cfg, dir); err != nil {
			b.Fatal(err)
		}
		os.RemoveAll(dir)
	}
}

// BenchmarkAnalyzeFull measures the complete analysis over the shared
// dataset — decode, observe, merge and compose — as records/s. It is the
// gated series (bench_baseline.json) that watches composeReport; the
// BenchmarkPipeline* family stops at the observe loop.
func BenchmarkAnalyzeFull(b *testing.B) {
	ds, _, _, opts := benchSetup(b)
	var records int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := ds.Analyze(opts)
		if err != nil {
			b.Fatal(err)
		}
		records += report.TotalRecords
	}
	b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkOnlineSnapshot contrasts the online analyzer's incremental
// snapshot against a cold batch re-analysis of the same streams, at two
// stream lengths with the event population held fixed. Everything past
// the ~73h seal horizon is folded into compact operator state and the
// raw records released, so a snapshot shares that state with a clone
// (copy-on-write: only the map of each keyed store is copied) and
// replays only the horizon-sized tail through it, with batch gates:
// doubling the stream length roughly doubles the cold cost while the
// incremental cost grows only by the longer control stream and the
// larger maps — sub-linear in total stream length. retained_records (vs
// total_records) is the steady-state memory bound, which depends on the
// horizon, not on how long the run has streamed.
func BenchmarkOnlineSnapshot(b *testing.B) {
	for _, days := range []int{14, 28} {
		b.Run(fmt.Sprintf("days=%d", days), func(b *testing.B) {
			benchOnlineSnapshot(b, days)
		})
	}
}

func benchOnlineSnapshot(b *testing.B, days int) {
	cfg := TestConfig()
	cfg.Days = days
	cfg.EventsTotal = 300
	cfg.UniqueVictims = 150
	cfg.Members = 60
	cfg.RTBHUsers = 12
	cfg.VictimOriginASes = 16
	cfg.RemoteOriginASes = 200
	dir, err := os.MkdirTemp("", "rtbh-online-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if _, err := Simulate(cfg, dir); err != nil {
		b.Fatal(err)
	}
	ds, err := OpenDataset(dir)
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions()
	opts.SweepDeltas = nil
	opts.OffsetStep = 100 * time.Millisecond
	opts.Workers = 1

	reg := NewMetricsRegistry()
	a := NewOnlineAnalyzer(ds.Meta)
	a.RegisterMetrics(reg)
	for i := range ds.Updates {
		a.ObserveControl(ds.Updates[i])
	}
	if err := ds.EachFlowBatch(func(b *recordBatch) error { a.ObserveFlowBatch(b); return nil }); err != nil {
		b.Fatal(err)
	}
	if _, err := a.Snapshot(opts); err != nil { // seal everything eligible once
		b.Fatal(err)
	}
	_, total := a.Counts()
	retained := reg.Snapshot().Gauge("online.retained_flows")

	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := a.Snapshot(opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(retained), "retained_records")
		b.ReportMetric(float64(total), "total_records")
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ds.Analyze(opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(total), "total_records")
	})
}

// BenchmarkOnlineIngest times what the looking glass and the live collector
// sink into: one OnlineAnalyzer ingesting the shared world's whole archive,
// control updates interleaved with the flow batches in timestamp order (see
// IngestInterleaved), seal checks and all, with no snapshot taken. The
// batches are the archive's own, one per IPFIX message. Besides records/s
// it reports what the ingest allocates per record over the whole run —
// pending storage, view extension and operator state growth together.
func BenchmarkOnlineIngest(b *testing.B) {
	ds, _, _, _ := benchSetup(b)
	var batches []*recordBatch
	total := 0
	if err := ds.EachFlowBatch(func(fb *recordBatch) error {
		if fb.Len() > 0 {
			batches = append(batches, &recordBatch{Recs: slices.Clone(fb.Recs)})
			total += fb.Len()
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IngestInterleaved(NewOnlineAnalyzer(ds.Meta), ds, batches)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(total) * float64(b.N)
	b.ReportMetric(n/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/record")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/record")
}

// benchFlows caches the shared dataset's flow archive in memory, chunked
// into dispatch-sized record batches, so the pipeline benchmarks time
// aggregation, not file decoding. Each batch holds one permanent
// reference so the runner's retain/release cycles never recycle it.
var benchFlows struct {
	once    sync.Once
	total   int
	batches []*recordBatch
	err     error
}

func loadBenchFlows(b *testing.B, ds *Dataset) (int, []*recordBatch) {
	b.Helper()
	benchFlows.once.Do(func() {
		var recs []FlowRecord
		benchFlows.err = ds.EachFlowBatch(func(b *recordBatch) error {
			recs = append(recs, b.Recs...)
			return nil
		})
		benchFlows.total = len(recs)
		const batchSize = 4096 // records per dispatch batch
		for i := 0; i < len(recs); i += batchSize {
			j := i + batchSize
			if j > len(recs) {
				j = len(recs)
			}
			bb := &recordBatch{Recs: recs[i:j]}
			bb.Retain() // permanent reference: keep out of the pool
			benchFlows.batches = append(benchFlows.batches, bb)
		}
	})
	if benchFlows.err != nil {
		b.Fatal(benchFlows.err)
	}
	return benchFlows.total, benchFlows.batches
}

// runPipelineBench times the streaming pass over the in-memory archive at
// the given worker count (1 = the inline pass, 0 = one goroutine per
// operator), through the batch driver the production path uses. Besides
// records/s it reports allocs/record over the observation phase alone
// (pipeline construction excluded) — the steady-state figure the batch
// path is designed to hold at ~0.
func runPipelineBench(b *testing.B, workers int) {
	ds, _, _, opts := benchSetup(b)
	total, batches := loadBenchFlows(b, ds)
	src := func(fn ipfix.BatchSink) error {
		for _, bb := range batches {
			if err := fn(bb); err != nil {
				return err
			}
		}
		return nil
	}
	var ms runtime.MemStats
	var observeMallocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pp, err := pipeline.NewParallel(ds.Meta, ds.Updates, opts.Delta, workers)
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if err := pp.RunBatches(src); err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		observeMallocs += ms.Mallocs - before
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(total)*float64(b.N)/secs, "records/s")
	}
	if n := total * b.N; n > 0 {
		b.ReportMetric(float64(observeMallocs)/float64(n), "allocs/record")
	}
}

// BenchmarkPipelineSequential is the single-pass baseline: attribution and
// every operator feed on the calling goroutine.
func BenchmarkPipelineSequential(b *testing.B) { runPipelineBench(b, 1) }

// BenchmarkPipelineLanes times the same pass with one goroutine per
// operator feed behind the source's attribution (the default; the inline
// pass again when GOMAXPROCS is 1).
func BenchmarkPipelineLanes(b *testing.B) { runPipelineBench(b, 0) }

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
