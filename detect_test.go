package rtbh_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	rtbh "repro"
	"repro/internal/bgp"
	"repro/internal/detect"
	"repro/internal/ipfix"
)

// detectEvalSlack is the truth-matching slack for detection scoring: a
// window that closes just after the last attack packet still describes
// the attack, so an extra detection window absorbs the trailing edge.
const detectEvalSlack = detect.DefaultWindow + time.Minute

// runDetectLive executes one live run with the closed-loop detector
// armed (and, optionally, a chaos profile) and returns the run plus its
// dataset directory.
func runDetectLive(t *testing.T, cfg rtbh.Config, reg *rtbh.MetricsRegistry, chaosProfile string, chaosSeed uint64) (*rtbh.LiveRun, string) {
	t.Helper()
	dir := t.TempDir()
	lr, err := rtbh.NewLiveRun(cfg, dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	if chaosProfile != "" {
		if err := lr.EnableChaos(chaosSeed, chaosProfile); err != nil {
			t.Fatal(err)
		}
	}
	if err := lr.EnableDetector(detect.Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := lr.Run(context.Background()); err != nil {
		t.Fatalf("live run with detector: %v", err)
	}
	if lr.Interrupted() {
		t.Fatal("uninterrupted run reports Interrupted")
	}
	return lr, dir
}

// TestDetectClosedLoop is the end-to-end mitigation test: a seeded world
// streams through the live transports with the detector armed, and
// afterwards the detection log must score against the scenario's ground
// truth (precision >= 0.9, recall >= 0.8), every detection's RTBH
// announcement must be visible in the written MRT archive as an update
// from the mitigation peer, and the online report must equal the batch
// analysis of the run's own dataset.
func TestDetectClosedLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("streams a full world through live transports")
	}
	cfg := chaosConfig()
	opts := rtbh.DefaultOptions()
	opts.OffsetStep = 20 * time.Millisecond

	reg := rtbh.NewMetricsRegistry()
	lr, dir := runDetectLive(t, cfg, reg, "", 0)

	st := lr.Detector().Status()
	if len(st.Detections) == 0 {
		t.Fatal("no detections fired over a world with seeded attacks")
	}

	// Score against ground truth; the rendered table is the per-attack
	// mitigation-latency report (onset -> detection -> announcement ->
	// first fabric drop).
	ev := lr.EvaluateDetections(detectEvalSlack)
	t.Logf("closed-loop evaluation:\n%s", ev.Render())
	if ev.Precision < 0.9 {
		t.Errorf("precision %.3f < 0.9 (%d false positives)", ev.Precision, ev.FalsePositives)
	}
	if ev.Recall < 0.8 {
		t.Errorf("recall %.3f < 0.8 (%d of %d attacks missed)", ev.Recall, ev.Attacks-ev.DetectedAtk, ev.Attacks)
	}
	drops := 0
	for _, a := range ev.PerAttack {
		if a.HasDrop {
			drops++
		}
	}
	if drops == 0 {
		t.Error("no attack shows a first fabric drop after its announcement — the loop never closed")
	}

	// Every detection reached the route server: its announcement (and,
	// once withdrawn, its withdrawal) must be in the archived MRT stream
	// under the mitigation peer's ASN.
	ds, err := rtbh.OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	announced := map[string]int{}
	withdrawn := map[string]int{}
	for i := range ds.Updates {
		u := &ds.Updates[i]
		if u.Peer != detect.PeerASN {
			continue
		}
		if u.Announce {
			announced[u.Prefix.String()]++
			// RFC 7999: the originator of a blackhole keeps it from leaving
			// the exchange.
			if !u.Communities.Contains(bgp.Blackhole) || !u.Communities.Contains(bgp.NoExport) {
				t.Errorf("announcement of %s from peer %d carries %v, want BLACKHOLE and NO_EXPORT", u.Prefix, u.Peer, u.Communities)
			}
		} else {
			withdrawn[u.Prefix.String()]++
		}
	}
	for _, d := range st.Detections {
		p := bgp.HostPrefix(d.Victim).String()
		if d.AnnouncedAt.IsZero() {
			t.Errorf("detection %d (%s) was never announced", d.ID, p)
		}
		if announced[p] == 0 {
			t.Errorf("detection %d: no announcement for %s from peer %d in the MRT archive", d.ID, p, detect.PeerASN)
		}
		if !d.Active() && withdrawn[p] == 0 {
			t.Errorf("detection %d: withdrawn in the log but no withdrawal for %s in the MRT archive", d.ID, p)
		}
	}

	// Detector metrics agree with the log.
	snap := reg.Snapshot()
	if got := snap.Counter("detect.detections"); got != int64(len(st.Detections)) {
		t.Errorf("detect.detections = %d, want %d", got, len(st.Detections))
	}
	var nAnnounced int64
	for i := range announced {
		nAnnounced += int64(announced[i])
	}
	if got := snap.Counter("detect.announcements"); got != nAnnounced {
		t.Errorf("detect.announcements = %d, %d announcements archived", got, nAnnounced)
	}
	var nWithdrawn int64
	for i := range withdrawn {
		nWithdrawn += int64(withdrawn[i])
	}
	if got := snap.Counter("detect.withdrawals"); got != nWithdrawn {
		t.Errorf("detect.withdrawals = %d, %d withdrawals archived", got, nWithdrawn)
	}
	// The detector saw every collected record, and the collector every
	// archived one; the blackholed ones are those the fabric dropped.
	var archived, blackholed int64
	if err := ds.EachFlowBatch(func(fb *ipfix.RecordBatch) error {
		for i := range fb.Recs {
			archived++
			if fb.Recs[i].DstMAC == ds.Meta.BlackholeMAC {
				blackholed++
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got, col := snap.Counter("detect.records"), snap.Counter("live.ipfix.collected_records"); got != col || got != archived {
		t.Errorf("detect.records = %d, live.ipfix.collected_records = %d, %d flow records archived", got, col, archived)
	}
	if got := snap.Counter("detect.blackholed_records"); got != blackholed {
		t.Errorf("detect.blackholed_records = %d, %d archived records carry the blackhole MAC", got, blackholed)
	}
	if got := snap.Gauge("detect.tracked_victims"); got != int64(st.Tracked) {
		t.Errorf("detect.tracked_victims = %d, Status().Tracked = %d", got, st.Tracked)
	}
	t.Logf("detect: %d records, %d blackholed, %d withdrawals, %d tracked victims", archived, blackholed, nWithdrawn, st.Tracked)

	// Online == offline over the run's own archived stream, with the
	// detector's updates part of both.
	onRep, err := lr.Analyzer().Final(opts)
	if err != nil {
		t.Fatal(err)
	}
	offRep, err := ds.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderReport(onRep), renderReport(offRep)) {
		t.Error("online report differs from batch analysis of the run's own dataset")
	}
}

// TestDetectChaosSoak runs the detector under the lossy-udp fault
// profile with a fixed seed: the loop must still close (detections fire,
// announcements archive) while the transport reconciliation stays exact
// — every dropped record accounted, online equal to the batch analysis
// of the written dataset.
func TestDetectChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("streams a chaos world through live transports")
	}
	cfg := chaosConfig()
	opts := rtbh.DefaultOptions()
	opts.OffsetStep = 20 * time.Millisecond

	reg := rtbh.NewMetricsRegistry()
	lr, dir := runDetectLive(t, cfg, reg, "lossy-udp", 1)
	snap := reg.Snapshot()

	if v := snap.Counter("faultnet.udp.dropped_datagrams"); v == 0 {
		t.Error("lossy-udp injected no drops — the soak tested nothing")
	}
	wantDropped := snap.Counter("faultnet.udp.dropped_records") + snap.Counter("faultnet.udp.reorder_late_records")
	exported := snap.Counter("live.ipfix.exported_records")
	if col := snap.Counter("live.ipfix.collected_records"); col+wantDropped != exported {
		t.Errorf("collected %d + dropped %d != exported %d", col, wantDropped, exported)
	}

	st := lr.Detector().Status()
	if len(st.Detections) == 0 {
		t.Fatal("no detections fired under lossy-udp")
	}
	// The detector scores only the collected stream, so its record count
	// must reconcile exactly with the collector's.
	if col := snap.Counter("live.ipfix.collected_records"); st.Records != col {
		t.Errorf("detector scored %d records, collector delivered %d", st.Records, col)
	}
	ev := lr.EvaluateDetections(detectEvalSlack)
	t.Logf("chaos-soak evaluation:\n%s", ev.Render())
	if ev.Precision < 0.9 {
		t.Errorf("precision %.3f < 0.9 under lossy-udp", ev.Precision)
	}
	if ev.Recall < 0.8 {
		t.Errorf("recall %.3f < 0.8 under lossy-udp", ev.Recall)
	}

	ds, err := rtbh.OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	onRep, err := lr.Analyzer().Final(opts)
	if err != nil {
		t.Fatal(err)
	}
	offRep, err := ds.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderReport(onRep), renderReport(offRep)) {
		t.Error("online report differs from batch analysis of the chaos run's own dataset")
	}
}

// BenchmarkDetectIngest measures the flow-ingest path with the detector
// off and on over the same pre-simulated record stream. detector-off is
// the online analyzer alone; detector-on feeds every batch to a fresh
// detector as well (per record one victim-record probe, the packet and
// gate tallies, and a window scan where the gate opens) and drains its
// actions once. The difference between the two is the detector's
// per-record cost, several times the analyzer's own.
func BenchmarkDetectIngest(b *testing.B) {
	dir := b.TempDir()
	cfg := goldenConfig()
	if _, err := rtbh.Simulate(cfg, dir); err != nil {
		b.Fatal(err)
	}
	ds, err := rtbh.OpenDataset(dir)
	if err != nil {
		b.Fatal(err)
	}
	var batches []*ipfix.RecordBatch
	records := 0
	if err := ds.EachFlowBatch(func(fb *ipfix.RecordBatch) error {
		fb.Retain() // kept for every iteration: never back to the pool
		batches = append(batches, fb)
		records += fb.Len()
		return nil
	}); err != nil {
		b.Fatal(err)
	}

	run := func(b *testing.B, withDetector bool) {
		for i := 0; i < b.N; i++ {
			a := rtbh.NewOnlineAnalyzer(ds.Meta)
			var det *detect.Detector
			if withDetector {
				det, err = detect.New(detect.Config{
					SamplingRate: ds.Meta.SamplingRate,
					BlackholeMAC: ds.Meta.BlackholeMAC,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, fb := range batches {
				a.ObserveFlowBatch(fb)
				if det != nil {
					det.ObserveFlowBatch(fb)
				}
			}
			if det != nil && len(det.Tick(ds.Meta.End)) == 0 {
				b.Fatal("detector ingest produced no actions")
			}
		}
		b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	}
	b.Run("detector-off", func(b *testing.B) { run(b, false) })
	b.Run("detector-on", func(b *testing.B) { run(b, true) })
}

// TestDetectRefusesSeveralExchanges: where a victim seen at several
// exchanges would be announced is undecided, so arming the detector on
// a multi-exchange run is an error, not a detector on exchange 0.
func TestDetectRefusesSeveralExchanges(t *testing.T) {
	cfg := smokeConfig()
	cfg.IXPs = 2
	lr, err := rtbh.NewLiveRun(cfg, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := lr.EnableDetector(detect.Config{}); err == nil {
		t.Fatal("EnableDetector accepted a two-exchange run")
	}
	if lr.Detector() != nil {
		t.Fatal("a refused detector is armed")
	}
}
