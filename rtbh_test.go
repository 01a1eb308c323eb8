package rtbh

import (
	"math"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis/mitigation"
)

// sharedRun simulates one TestConfig world into a temp dir and analyzes
// it once; all integration tests share the result.
var sharedRun struct {
	once    sync.Once
	dir     string
	sum     *SimulationSummary
	ds      *Dataset
	report  *Report
	failure error
}

func run(t *testing.T) (*SimulationSummary, *Dataset, *Report) {
	t.Helper()
	sharedRun.once.Do(func() {
		dir, err := os.MkdirTemp("", "rtbh-e2e-*")
		if err != nil {
			sharedRun.failure = err
			return
		}
		// The temp dir is kept for the process lifetime; datasets are a
		// few tens of MB at test scale.
		cfg := TestConfig()
		sum, err := Simulate(cfg, dir)
		if err != nil {
			sharedRun.failure = err
			return
		}
		ds, err := OpenDataset(dir)
		if err != nil {
			sharedRun.failure = err
			return
		}
		opts := DefaultOptions()
		opts.OffsetStep = 20 * time.Millisecond
		report, err := ds.Analyze(opts)
		if err != nil {
			sharedRun.failure = err
			return
		}
		// The dir must outlive the analysis: EachFlowBatch re-opens the
		// flow archive on every call.
		sharedRun.dir = dir
		sharedRun.sum, sharedRun.ds, sharedRun.report = sum, ds, report
	})
	if sharedRun.failure != nil {
		t.Fatal(sharedRun.failure)
	}
	return sharedRun.sum, sharedRun.ds, sharedRun.report
}

// groundTruth reads ds's ground truth, failing the test if it cannot.
func groundTruth(t *testing.T, ds *Dataset) *GroundTruth {
	t.Helper()
	gt, err := ds.GroundTruth()
	if err != nil {
		t.Fatal(err)
	}
	return gt
}

func TestEndToEndDatasetRoundTrip(t *testing.T) {
	sum, ds, _ := run(t)
	if sum.FlowRecords == 0 || sum.ControlMsgs == 0 {
		t.Fatalf("summary = %+v", sum)
	}
	// The MRT round trip preserves every RTBH update.
	if len(ds.Updates) != sum.Announcements+sum.Withdrawals {
		t.Fatalf("updates = %d, want %d announcements + %d withdrawals",
			len(ds.Updates), sum.Announcements, sum.Withdrawals)
	}
	// The IPFIX round trip preserves every record.
	var n int64
	ds.EachFlowBatch(func(b *recordBatch) error { n += int64(b.Len()); return nil })
	if n != sum.FlowRecords {
		t.Fatalf("flow records = %d, want %d", n, sum.FlowRecords)
	}
	if groundTruth(t, ds) == nil {
		t.Fatal("ground truth not loaded")
	}
}

func TestEventReconstruction(t *testing.T) {
	_, ds, r := run(t)
	truthEvents := len(groundTruth(t, ds).Events)
	got := len(r.Events)
	// The 10-minute merge must recover the planned events within a few
	// percent (boundary effects are possible, systematic splits are not).
	if got < truthEvents*95/100 || got > truthEvents*105/100 {
		t.Fatalf("reconstructed %d events, ground truth %d", got, truthEvents)
	}
}

func TestFig2TimeOffsetRecovered(t *testing.T) {
	_, ds, r := run(t)
	if r.Fig2.Dropped == 0 {
		t.Fatal("no dropped records for MLE")
	}
	// The injected skew is -40ms (data behind control), so aligning data
	// to control requires +40ms.
	want := -time.Duration(groundTruth(t, ds).ClockOffsetMS) * time.Millisecond
	if d := (r.Fig2.BestOffset - want); d < -30*time.Millisecond || d > 30*time.Millisecond {
		t.Fatalf("best offset = %v, want ~%v", r.Fig2.BestOffset, want)
	}
	if r.Fig2.BestOverlap < 0.9 {
		t.Fatalf("best overlap = %v, want > 0.9 (paper: 99.4%%)", r.Fig2.BestOverlap)
	}
}

func TestFig3Load(t *testing.T) {
	_, _, r := run(t)
	if r.Fig3.AvgActive <= 0 || r.Fig3.MaxActive < int(r.Fig3.AvgActive) {
		t.Fatalf("load = %+v", r.Fig3)
	}
	if r.Fig3.Peers == 0 || r.Fig3.OriginASes < r.Fig3.Peers {
		t.Fatalf("peers=%d origins=%d (each peer announces for >=1 origin AS)",
			r.Fig3.Peers, r.Fig3.OriginASes)
	}
}

func TestFig4TargetedEpochVisible(t *testing.T) {
	_, _, r := run(t)
	// During the targeted epoch some peers must miss a noticeable share.
	if r.Fig4.PeakMax < 0.005 {
		t.Fatalf("peak max hidden share = %v, want an excursion", r.Fig4.PeakMax)
	}
	// Targeting is the exception overall.
	if r.Fig4.TargetedShare > 0.3 {
		t.Fatalf("targeted share = %v, want a minority", r.Fig4.TargetedShare)
	}
	if r.Fig4.PeakMax < r.Fig4.PeakP50 {
		t.Fatal("quantile ordering violated")
	}
}

func TestFig5DropRatesByLength(t *testing.T) {
	_, _, r := run(t)
	var s32, s24 *LengthStat
	for i := range r.Fig5 {
		switch r.Fig5[i].PrefixLen {
		case 32:
			s32 = &r.Fig5[i]
		case 24:
			s24 = &r.Fig5[i]
		}
	}
	if s32 == nil {
		t.Fatal("no /32 traffic")
	}
	// Paper: /32 drops ~50% of packets; /32 carries ~99.9% of traffic.
	if rate := s32.DropRatePkts(); rate < 0.3 || rate > 0.7 {
		t.Fatalf("/32 drop rate = %v, want ~0.5", rate)
	}
	if s32.TrafficSharePkts < 0.9 {
		t.Fatalf("/32 traffic share = %v, want dominant", s32.TrafficSharePkts)
	}
	if s24 != nil && s24.TotalPkts() > 500 {
		if rate := s24.DropRatePkts(); rate < 0.8 {
			t.Fatalf("/24 drop rate = %v, want > 0.8 (paper: 93-99%%)", rate)
		}
	}
	if r.Fig5AvgPkts <= 0.2 || r.Fig5AvgPkts >= 0.8 {
		t.Fatalf("average drop rate = %v", r.Fig5AvgPkts)
	}
}

func TestFig6DropRateDistributions(t *testing.T) {
	_, _, r := run(t)
	if r.Fig6Slash32.Len() < 20 {
		t.Fatalf("only %d /32 events with traffic", r.Fig6Slash32.Len())
	}
	med := r.Fig6Slash32.Quantile(0.5)
	if med < 0.25 || med > 0.75 {
		t.Fatalf("/32 median drop rate = %v, want ~0.53", med)
	}
	// Wide spread: quartiles clearly apart (paper: 30% / 53% / 88%).
	q1, q3 := r.Fig6Slash32.Quantile(0.25), r.Fig6Slash32.Quantile(0.75)
	if q3-q1 < 0.2 {
		t.Fatalf("/32 drop-rate IQR = %v..%v, want a wide spread", q1, q3)
	}
}

func TestFig7SourceBehaviourClasses(t *testing.T) {
	_, _, r := run(t)
	c := r.Fig7Classes
	total := c.Acceptors + c.Rejectors + c.Inconsistent
	if total == 0 {
		t.Fatal("no top sources")
	}
	// All three behaviours present; rejectors are the plurality (paper:
	// 55 rejectors / 32 acceptors / 13 inconsistent).
	if c.Acceptors == 0 || c.Rejectors == 0 || c.Inconsistent == 0 {
		t.Fatalf("classes = %+v", c)
	}
	if c.Rejectors <= c.Inconsistent {
		t.Fatalf("rejectors (%d) should outnumber inconsistent (%d)", c.Rejectors, c.Inconsistent)
	}
	if c.TopShare < 0.5 {
		t.Fatalf("top sources carry %v of traffic, want the bulk", c.TopShare)
	}
}

func TestFig10MergeSweep(t *testing.T) {
	_, _, r := run(t)
	if len(r.Fig10) == 0 {
		t.Fatal("no sweep points")
	}
	// Fraction decreases with delta and flattens after ~10 minutes.
	at1 := r.Fig10[0].Fraction
	var at10, at30 float64
	for _, p := range r.Fig10 {
		switch p.Delta {
		case 10 * time.Minute:
			at10 = p.Fraction
		case 30 * time.Minute:
			at30 = p.Fraction
		}
	}
	if !(at1 > at10) {
		t.Fatalf("fraction at 1m (%v) not above 10m (%v)", at1, at10)
	}
	if at10-at30 > 0.35*(at1-at10) {
		t.Fatalf("curve not flat after 10m: 1m=%v 10m=%v 30m=%v", at1, at10, at30)
	}
	if r.Fig10LowerBound <= 0 || r.Fig10LowerBound > at30 {
		t.Fatalf("lower bound = %v", r.Fig10LowerBound)
	}
}

func TestTable2PreRTBHClasses(t *testing.T) {
	_, _, r := run(t)
	total := float64(r.Table2.Total())
	noData := float64(r.Table2.NoData) / total
	anom := float64(r.Table2.DataAnomaly10Min) / total
	noAnom := float64(r.Table2.DataNoAnomaly) / total
	// Paper: 46% / 27% / 27%. Allow generous bands at test scale.
	if noData < 0.30 || noData > 0.62 {
		t.Fatalf("no-data share = %v, want ~0.46", noData)
	}
	if anom < 0.15 || anom > 0.40 {
		t.Fatalf("anomaly share = %v, want ~0.27", anom)
	}
	if noAnom < 0.12 || noAnom > 0.45 {
		t.Fatalf("data-no-anomaly share = %v, want ~0.27", noAnom)
	}
}

func TestFig12AnomalyOffsets(t *testing.T) {
	_, _, r := run(t)
	if len(r.Fig12) == 0 {
		t.Fatal("no anomalies")
	}
	near, far := 0, 0
	for _, a := range r.Fig12 {
		if a.Level < 1 || a.Level > 5 {
			t.Fatalf("anomaly level = %d", a.Level)
		}
		if a.SlotsBefore <= 2 {
			near++
		} else {
			far++
		}
	}
	// Most anomalies sit within 10 minutes of the event start.
	if near <= far {
		t.Fatalf("anomalies near=%d far=%d, want concentration near the event", near, far)
	}
}

func TestFig13AmplificationFactors(t *testing.T) {
	_, _, r := run(t)
	pk := r.Fig13[0] // packets feature
	if len(pk) == 0 {
		t.Fatal("no amplification factors")
	}
	maxF := 0.0
	for _, f := range pk {
		if f > maxF {
			maxF = f
		}
	}
	// Paper observes multiples up to ~800; demand at least large ones.
	if maxF < 50 {
		t.Fatalf("max amplification factor = %v, want large bursts", maxF)
	}
	if r.Fig13LastSlotMax <= 0 {
		t.Fatal("no events with last-slot maximum")
	}
}

func TestProtocolMixUDPDominant(t *testing.T) {
	_, _, r := run(t)
	if r.ProtoShares.Packets == 0 {
		t.Fatal("no during-event traffic for anomaly events")
	}
	// Paper: 99.5% UDP.
	if r.ProtoShares.UDP < 0.95 {
		t.Fatalf("UDP share = %v, want > 0.95", r.ProtoShares.UDP)
	}
}

func TestTable3ProtocolCounts(t *testing.T) {
	_, _, r := run(t)
	if r.Table3Events == 0 {
		t.Fatal("no events counted")
	}
	// One or two amplification protocols dominate (paper: 40% + 45%).
	if r.Table3[1]+r.Table3[2] < 0.5 {
		t.Fatalf("1-2 protocol share = %v, dist %v", r.Table3[1]+r.Table3[2], r.Table3)
	}
	var sum float64
	for _, v := range r.Table3 {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("distribution sums to %v", sum)
	}
}

func TestFig14FineGrainedFiltering(t *testing.T) {
	_, _, r := run(t)
	if len(r.Fig14) == 0 {
		t.Fatal("no filterable shares")
	}
	// Paper: ~90% of events fully mitigated by the port list.
	if r.Fig14FullyFilterable < 0.75 || r.Fig14FullyFilterable > 0.98 {
		t.Fatalf("fully filterable = %v, want ~0.90", r.Fig14FullyFilterable)
	}
}

// TestTable5MitigationEfficacy scores the paper's §5.5 claim — filtering
// the amplification ports mitigates attacks that RTBH can only trade
// against legitimate traffic — on the measured Table 5 of the escalate
// world, where every amplification victim blackholes first and hands
// over to a FlowSpec discard rule mid-attack:
//
//   - no prefix forwards any FlowSpec-phase attack packet;
//   - on every prefix where RTBH dropped legitimate packets and FlowSpec
//     saw legitimate traffic, FlowSpec drops a strictly smaller share;
//   - in the aggregate rows FlowSpec drops more of the attack and less of
//     the legitimate traffic than RTBH.
func TestTable5MitigationEfficacy(t *testing.T) {
	cfg := TestConfig()
	cfg.MitigationPolicy = "escalate"
	dir := t.TempDir()
	if _, err := Simulate(cfg, dir); err != nil {
		t.Fatal(err)
	}
	ds, err := OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.OffsetStep = 20 * time.Millisecond
	r, err := ds.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	const rtbh, fs = mitigation.PhaseRTBH, mitigation.PhaseFlowSpec

	var scored, legitPairs int
	for _, ps := range r.Table5.ByPrefix {
		if ps.Attack[fs].TotalPkts() > 0 {
			scored++
			if ps.Attack[fs].ForwardedPkts != 0 {
				t.Errorf("%v: %d of %d attack packets forwarded under FlowSpec",
					ps.Prefix, ps.Attack[fs].ForwardedPkts, ps.Attack[fs].TotalPkts())
			}
		}
		if ps.Legit[rtbh].DroppedPkts == 0 || ps.Legit[fs].TotalPkts() == 0 {
			continue
		}
		legitPairs++
		if got, rt := ps.Legit[fs].DropRatePkts(), ps.Legit[rtbh].DropRatePkts(); got >= rt {
			t.Errorf("%v: legitimate drop share %.3f under FlowSpec, not below %.3f under RTBH", ps.Prefix, got, rt)
		}
	}
	if scored < 20 || legitPairs < 5 {
		t.Fatalf("%d prefixes with FlowSpec-phase attack traffic, %d legitimate pairs; want >= 20 and >= 5", scored, legitPairs)
	}

	rt, fl := &r.Table5.Rows[rtbh], &r.Table5.Rows[fs]
	if fl.Attack.DropRatePkts() <= rt.Attack.DropRatePkts() {
		t.Errorf("attack drop share %.3f under FlowSpec, not above %.3f under RTBH",
			fl.Attack.DropRatePkts(), rt.Attack.DropRatePkts())
	}
	if fl.Legit.DropRatePkts() >= rt.Legit.DropRatePkts() {
		t.Errorf("legitimate drop share %.3f under FlowSpec, not below %.3f under RTBH",
			fl.Legit.DropRatePkts(), rt.Legit.DropRatePkts())
	}
	t.Logf("prefixes: %d RTBH, %d FlowSpec, %d scored, %d legitimate pairs; attack/legit dropped: RTBH %.3f/%.3f, FlowSpec %.3f/%.3f",
		rt.Prefixes, fl.Prefixes, scored, legitPairs,
		rt.Attack.DropRatePkts(), rt.Legit.DropRatePkts(), fl.Attack.DropRatePkts(), fl.Legit.DropRatePkts())
}

// TestDefaultPolicyMeasuresNoFlowSpec pins the default policy on what
// the archives carry: no FlowSpec update, and an empty FlowSpec row in
// the measured Table 5.
func TestDefaultPolicyMeasuresNoFlowSpec(t *testing.T) {
	_, ds, r := run(t)
	if len(ds.FlowUpdates) != 0 {
		t.Fatalf("default world archived %d FlowSpec updates", len(ds.FlowUpdates))
	}
	row := r.Table5.Rows[mitigation.PhaseFlowSpec]
	if row.Prefixes != 0 || row.Attack.TotalPkts()+row.Legit.TotalPkts() != 0 {
		t.Fatalf("default world measured a FlowSpec row: %+v", row)
	}
}

func TestFig15Participation(t *testing.T) {
	_, _, r := run(t)
	if r.Fig15Origin.ASes == 0 || r.Fig15Handover.ASes == 0 {
		t.Fatal("no participating ASes")
	}
	// The head of the origin CDF: one AS in a large share of events.
	if len(r.Fig15Origin.Top10) == 0 || r.Fig15Origin.Top10[0] < 0.3 {
		t.Fatalf("top origin participation = %v, want >= 0.3 (paper: 0.60)", r.Fig15Origin.Top10)
	}
	// Paper: top origin AS == top handover AS.
	if r.Fig15Origin.TopAS != r.Fig15Handover.TopAS {
		t.Fatalf("top origin AS%d != top handover AS%d", r.Fig15Origin.TopAS, r.Fig15Handover.TopAS)
	}
	// Many more origin ASes than handover ASes.
	if r.Fig15Origin.ASes <= r.Fig15Handover.ASes {
		t.Fatalf("origins=%d handovers=%d", r.Fig15Origin.ASes, r.Fig15Handover.ASes)
	}
	if r.Fig15Scale.MeanAmplifiers < 5 {
		t.Fatalf("mean amplifiers = %v", r.Fig15Scale.MeanAmplifiers)
	}
}

func TestFig17HostClassification(t *testing.T) {
	_, _, r := run(t)
	if len(r.Fig17) == 0 {
		t.Fatal("no detected hosts")
	}
	servers, clients := 0, 0
	for i := range r.Fig17 {
		switch r.Fig17[i].Kind.String() {
		case "server":
			servers++
		case "client":
			clients++
		}
	}
	if servers == 0 || clients == 0 {
		t.Fatalf("servers=%d clients=%d", servers, clients)
	}
	// Paper: ~4x more clients than servers.
	ratio := float64(clients) / float64(servers)
	if ratio < 1.5 || ratio > 9 {
		t.Fatalf("client:server ratio = %v, want ~4", ratio)
	}
	if len(r.Fig16) != len(r.Fig17) {
		t.Fatalf("RadViz points = %d, profiles = %d", len(r.Fig16), len(r.Fig17))
	}
}

func TestTable4HostTypes(t *testing.T) {
	_, _, r := run(t)
	if r.Table4.Clients == 0 || r.Table4.Servers == 0 {
		t.Fatalf("table4 = %+v", r.Table4)
	}
	// Clients concentrate in Cable/DSL/ISP networks (paper: 60%).
	if r.Table4.ClientTypes["Cable/DSL/ISP"] < 0.35 {
		t.Fatalf("client Cable/DSL share = %v", r.Table4.ClientTypes["Cable/DSL/ISP"])
	}
	// Servers concentrate in Content (paper: 34%) more than clients do.
	if r.Table4.ServerTypes["Content"] <= r.Table4.ClientTypes["Content"] {
		t.Fatalf("server Content share %v not above client %v",
			r.Table4.ServerTypes["Content"], r.Table4.ClientTypes["Content"])
	}
}

func TestFig18CollateralDamage(t *testing.T) {
	_, _, r := run(t)
	if r.Fig18.Events == 0 {
		t.Fatal("no collateral damage observed")
	}
	if r.Fig18.MaxAll <= 0 {
		t.Fatalf("max damage = %d", r.Fig18.MaxAll)
	}
	// Dropped damage can never exceed total damage per event count.
	if len(r.Fig18.DroppedPkts) > len(r.Fig18.AllPkts) {
		t.Fatal("more dropped-damage events than damage events")
	}
}

func TestFig19UseCases(t *testing.T) {
	_, ds, r := run(t)
	shares := map[string]float64{}
	for c, s := range r.Fig19.Shares {
		shares[c.String()] = s
	}
	if shares["infrastructure-protection"] < 0.15 || shares["infrastructure-protection"] > 0.45 {
		t.Fatalf("infrastructure share = %v, want ~0.27", shares["infrastructure-protection"])
	}
	if shares["zombie"] < 0.05 || shares["zombie"] > 0.3 {
		t.Fatalf("zombie share = %v, want ~0.13", shares["zombie"])
	}
	if shares["other"] < 0.3 {
		t.Fatalf("other share = %v, want large (paper: ~0.60)", shares["other"])
	}
	if r.Fig19.SquatPrefixes == 0 || r.Fig19.SquatASes == 0 {
		t.Fatalf("squatting not recovered: %+v", r.Fig19)
	}
	// Cross-check against ground-truth class counts (same order of
	// magnitude; classification is statistical, not exact).
	truthDDoS := groundTruth(t, ds).ClassCounts["ddos"]
	got := r.Fig19.Counts[UseCaseInfrastructureProtection]
	if got < truthDDoS*5/10 || got > truthDDoS*15/10 {
		t.Fatalf("infrastructure events = %d, truth %d", got, truthDDoS)
	}
}

func TestCleaningRemovesInternal(t *testing.T) {
	_, _, r := run(t)
	if r.InternalRecords == 0 {
		t.Fatal("no internal records cleaned")
	}
	frac := float64(r.InternalRecords) / float64(r.TotalRecords)
	if frac > 0.01 {
		t.Fatalf("internal share = %v, want tiny", frac)
	}
}

func TestFig11PreDataSparsity(t *testing.T) {
	_, _, r := run(t)
	if r.Fig11NoData == 0 || len(r.Fig11PreDataSlots) == 0 {
		t.Fatalf("fig11: noData=%d withData=%d", r.Fig11NoData, len(r.Fig11PreDataSlots))
	}
	// Many pre-RTBH windows are sparse: a sizable share has few slots.
	sparse := 0
	for _, n := range r.Fig11PreDataSlots {
		if n <= 24 {
			sparse++
		}
	}
	if sparse == 0 {
		t.Fatal("no sparse pre-windows")
	}
}

// TestSamplingBlindness is the paper's core measurement caveat as an
// ablation: the same small world re-simulated at coarser 1:N sampling
// leaves fewer events with any pre-RTBH data — a blackhole the data plane
// cannot see the cause of (57.8 / 55.1 / 45.6 % at the three rates).
func TestSamplingBlindness(t *testing.T) {
	withPreData := func(rate int64) float64 {
		cfg := TestConfig()
		cfg.Days = 14
		cfg.EventsTotal = 300
		cfg.UniqueVictims = 150
		cfg.Members = 60
		cfg.RTBHUsers = 12
		cfg.VictimOriginASes = 16
		cfg.RemoteOriginASes = 200
		cfg.SamplingRate = rate
		dir := t.TempDir()
		if _, err := Simulate(cfg, dir); err != nil {
			t.Fatal(err)
		}
		ds, err := OpenDataset(dir)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.SweepDeltas = nil
		opts.OffsetStep = 100 * time.Millisecond
		r, err := ds.Analyze(opts)
		if err != nil {
			t.Fatal(err)
		}
		return float64(len(r.Fig11PreDataSlots)) / float64(len(r.Verdicts))
	}
	rates := []int64{1000, 10000, 100000}
	var shares []float64
	for _, rate := range rates {
		shares = append(shares, withPreData(rate))
	}
	t.Logf("events with pre-RTBH data at 1:%v sampling: %.3f", rates, shares)
	if shares[1] > shares[0] || shares[2] > shares[1] {
		t.Errorf("share of events with pre-RTBH data grows with coarser sampling: %.3f at 1:%v", shares, rates)
	}
	if shares[2] >= shares[0] {
		t.Errorf("1:%d sampling sees pre-RTBH data for %.3f of events, no fewer than 1:%d (%.3f)",
			rates[2], shares[2], rates[0], shares[0])
	}
}

// TestSimulateObservedPublishesDriveWaits: rtbh-sim -metrics carries the
// generator pipeline's two wait times, each inside the run's wall time.
func TestSimulateObservedPublishesDriveWaits(t *testing.T) {
	reg := NewMetricsRegistry()
	start := time.Now()
	if _, err := SimulateObserved(TestConfig(), t.TempDir(), reg); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	snap := reg.Snapshot()
	for _, name := range []string{"scenario.dispatch_wait_ns", "scenario.generate_wait_ns"} {
		if ns := snap.Gauge(name); ns < 0 || time.Duration(ns) > wall {
			t.Errorf("%s = %d in a %v run", name, ns, wall)
		}
	}
	if snap.Gauge("scenario.dispatch_wait_ns") == 0 {
		t.Error("scenario.dispatch_wait_ns = 0: dispatch cannot start before the first day is generated")
	}
}
