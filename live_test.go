package rtbh_test

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
	"time"

	rtbh "repro"
	"repro/internal/live"
)

// TestLiveBatchParity is the live subsystem's end-to-end determinism
// guarantee: the same configuration run through real BGP-over-TCP
// sessions and IPFIX-over-UDP export produces byte-identical archive
// files, and the online analyzer's final report renders byte-identical
// to the batch analysis of the archived dataset. It doubles as the live
// soak smoke: it streams a full test-scale world through the transports
// and asserts clean shutdown with zero queue drops.
func TestLiveBatchParity(t *testing.T) {
	if testing.Short() {
		t.Skip("streams a full test-scale world through live transports")
	}
	cfg := rtbh.TestConfig()
	cfg.Seed = 0x11FE
	// Escalating mitigation puts FlowSpec signaling on the wire too, so
	// the parity guarantee covers the fine-grained path end to end: the
	// rules ride the same BGP sessions and the rendered report includes
	// the measured Table 5.
	cfg.MitigationPolicy = "escalate"

	batchDir, liveDir := t.TempDir(), t.TempDir()
	if _, err := rtbh.Simulate(cfg, batchDir); err != nil {
		t.Fatal(err)
	}

	reg := rtbh.NewMetricsRegistry()
	lr, err := rtbh.NewLiveRun(cfg, liveDir, reg)
	if err != nil {
		t.Fatal(err)
	}
	liveSum, err := lr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if lr.Interrupted() {
		t.Fatal("uninterrupted run reports Interrupted")
	}

	// The archives must be byte-identical to the batch path's.
	for _, name := range []string{rtbh.FileUpdates, rtbh.FileFlows} {
		requireSameFile(t, filepath.Join(batchDir, name), filepath.Join(liveDir, name))
	}

	// The live metrics must reconcile: everything sent was delivered,
	// everything exported was collected, and nothing was dropped anywhere.
	snap := reg.Snapshot()
	counter := func(name string) int64 {
		t.Helper()
		if !snap.Has(name) {
			t.Fatalf("metric %s not registered", name)
		}
		return snap.Counter(name)
	}
	for _, name := range []string{
		"live.ipfix.dropped_datagrams", "live.ipfix.dropped_records",
		"live.ipfix.late_msgs", "live.ipfix.decode_errors",
		"live.bgp.hold_expiries", "live.bgp.reconnects",
	} {
		if v := counter(name); v != 0 {
			t.Errorf("%s = %d, want 0", name, v)
		}
	}
	// The ingest queue took the stream without shedding (dropped_datagrams
	// is 0 above): it held a datagram, and never more than it can.
	if hw := snap.Gauge("live.ipfix.queue_high_water"); !snap.Has("live.ipfix.queue_high_water") || hw < 1 || hw > live.DefaultQueueLen {
		t.Errorf("live.ipfix.queue_high_water = %d, want 1..%d", hw, live.DefaultQueueLen)
	}
	// Every session ended in the orderly Cease at shutdown: the listener
	// saw exactly one (graceful) peer-down per session it established
	// (sessions_established counts both endpoints of each session).
	if downs, est := counter("live.bgp.peer_downs"), counter("live.bgp.sessions_established"); est == 0 || 2*downs != est {
		t.Errorf("peer_downs = %d, sessions_established = %d, want exactly one graceful down per session", downs, est)
	}
	if sent, delivered := counter("live.bgp.updates_sent"), counter("live.bgp.updates_delivered"); sent != delivered || int(sent) != liveSum.ControlMsgs {
		t.Errorf("updates sent %d / delivered %d / processed %d", sent, delivered, liveSum.ControlMsgs)
	}
	if exp, col := counter("live.ipfix.exported_records"), counter("live.ipfix.collected_records"); exp != col || exp != liveSum.FlowRecords {
		t.Errorf("records exported %d / collected %d / summary %d", exp, col, liveSum.FlowRecords)
	}

	// The online analyzer's final report must render byte-identical to
	// the batch analysis of the archived dataset.
	opts := rtbh.DefaultOptions()
	opts.OffsetStep = 20 * time.Millisecond
	ds, err := rtbh.OpenDataset(batchDir)
	if err != nil {
		t.Fatal(err)
	}
	batchRep, err := ds.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	liveRep, err := lr.Analyzer().Final(opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameReport(t, batchRep, liveRep)

	// The live stream is time-ordered, so the analyzer's event view folded
	// in every control update once and never had to rebuild.
	snap = reg.Snapshot()
	if merged, retained := counter("online.control.merged_updates"), snap.Gauge("online.retained_updates"); merged == 0 || merged != retained {
		t.Errorf("online.control.merged_updates = %d for %d retained updates", merged, retained)
	}
}

// requireSameReport fails unless the online report renders byte-identical
// to the batch one, naming the first diverging line.
func requireSameReport(t *testing.T, batch, online *rtbh.Report) {
	t.Helper()
	if ref, got := renderReport(batch), renderReport(online); !bytes.Equal(got, ref) {
		diffLines(t, ref, got)
		t.Fatal("online report does not render like the batch one")
	}
}

// TestLiveTrafficScaleParity runs a small world at 4x traffic through the
// live transports and requires the online analyzer's final report to equal
// the batch analysis of the dataset the same run wrote. At the calibrated
// 1:10000 sampling the magnitude scale is 4 too, so the anomaly support
// floor is 4x the scale-1 constant; an analyzer that is not told the
// traffic scale keeps the scale-1 floor and reports different anomalies.
// (4x keeps the record volume loss-free on loopback; 50x does not.)
func TestLiveTrafficScaleParity(t *testing.T) {
	if testing.Short() {
		t.Skip("streams a world through live transports")
	}
	cfg := smokeConfig()
	cfg.TrafficScale = 4
	dir := t.TempDir()
	lr, err := rtbh.NewLiveRun(cfg, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lr.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ds, err := rtbh.OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ms := ds.Meta.MagnitudeScale(); ms == 1 {
		t.Fatalf("magnitude scale = %v: the world does not exercise scaled floors", ms)
	}
	opts := rtbh.DefaultOptions()
	opts.OffsetStep = 20 * time.Millisecond
	batchRep, err := ds.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	liveRep, err := lr.Analyzer().Final(opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameReport(t, batchRep, liveRep)
}

// TestLiveGracefulInterrupt cancels the run's context and expects a
// drained, reconciled, loadable (if early-truncated) dataset rather
// than an error — the SIGINT path of cmd/rtbh-live.
func TestLiveGracefulInterrupt(t *testing.T) {
	cfg := rtbh.TestConfig()
	dir := t.TempDir()
	lr, err := rtbh.NewLiveRun(cfg, dir, nil)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // interrupt before the first dispatch
	sum, err := lr.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !lr.Interrupted() {
		t.Fatal("cancelled run not reported as interrupted")
	}
	if sum.FlowRecords != 0 {
		t.Fatalf("interrupted-at-start run exported %d flow records", sum.FlowRecords)
	}

	// The dataset directory is complete and loadable.
	if _, err := rtbh.OpenDataset(dir); err != nil {
		t.Fatalf("interrupted dataset unloadable: %v", err)
	}
	// The analyzer snapshots cleanly over the empty delivered prefix.
	opts := rtbh.DefaultOptions()
	rep, err := lr.Analyzer().Snapshot(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalRecords != 0 || len(rep.Events) != 0 {
		t.Fatalf("empty run reported %d records, %d events", rep.TotalRecords, len(rep.Events))
	}

	// Run is once-only.
	if _, err := lr.Run(context.Background()); err == nil {
		t.Fatal("second Run accepted")
	}
}

// TestLiveInterruptMidDay cancels a run once a fixed number of flow
// records has been collected, in the middle of a day whose UPDATEs were
// sent ahead of their turns: what was sent and never released is
// dropped, not delivered, and counted. The dataset and the analyzer then
// hold exactly the delivered prefix: the route server processed every
// delivered update and nothing else, the archive loads, and the
// analyzer's report equals the batch analysis of the archive. Where the
// cancel lands varies from run to run, so no count is fixed.
func TestLiveInterruptMidDay(t *testing.T) {
	const cancelAt = 100_000 // records: well inside the test world
	cfg := rtbh.TestConfig()
	dir := t.TempDir()
	reg := rtbh.NewMetricsRegistry()
	lr, err := rtbh.NewLiveRun(cfg, dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	watching := make(chan struct{})
	go func() {
		defer close(watching)
		for ctx.Err() == nil {
			if _, flows := lr.Analyzer().Counts(); flows >= cancelAt {
				cancel()
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	sum, err := lr.Run(ctx)
	cancel()
	<-watching
	if err != nil {
		t.Fatal(err)
	}
	if !lr.Interrupted() {
		t.Fatal("run cancelled mid-way not reported as interrupted")
	}

	snap := reg.Snapshot()
	sent, delivered, unreleased := snap.Counter("live.bgp.updates_sent"),
		snap.Counter("live.bgp.updates_delivered"), snap.Counter("live.bgp.updates_unreleased")
	t.Logf("interrupted after %d collected records: %d updates sent, %d delivered, %d dropped unreleased",
		snap.Counter("live.ipfix.collected_records"), sent, delivered, unreleased)
	if sent != delivered+unreleased {
		t.Errorf("updates sent %d != delivered %d + unreleased %d", sent, delivered, unreleased)
	}
	if int64(sum.ControlMsgs) != delivered || int64(sum.Announcements+sum.Withdrawals) != delivered {
		t.Errorf("route server processed %d updates (%d announcements + %d withdrawals dispatched), %d delivered",
			sum.ControlMsgs, sum.Announcements, sum.Withdrawals, delivered)
	}
	if col := snap.Counter("live.ipfix.collected_records"); col != sum.FlowRecords || col == 0 {
		t.Errorf("collected %d records of %d exported", col, sum.FlowRecords)
	}

	ds, err := rtbh.OpenDataset(dir)
	if err != nil {
		t.Fatalf("interrupted dataset unloadable: %v", err)
	}
	if int64(len(ds.Updates)) != delivered {
		t.Errorf("archive holds %d updates, %d delivered", len(ds.Updates), delivered)
	}
	opts := rtbh.DefaultOptions()
	if _, err := lr.Analyzer().Snapshot(opts); err != nil {
		t.Fatal(err)
	}
	batchRep, err := ds.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	liveRep, err := lr.Analyzer().Final(opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameReport(t, batchRep, liveRep)
}

// TestLiveBarrierWaitReconciles runs the test world loss-free and holds
// live.bgp.barrier_wait to what it can be: a barrier waits at most once
// per released update, and all waits together fit in the run.
func TestLiveBarrierWaitReconciles(t *testing.T) {
	reg := rtbh.NewMetricsRegistry()
	lr, err := rtbh.NewLiveRun(rtbh.TestConfig(), t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := lr.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	snap := reg.Snapshot()
	if !snap.Has("live.bgp.barrier_wait") {
		t.Fatal("live.bgp.barrier_wait not registered")
	}
	waits := snap.Timers["live.bgp.barrier_wait"]
	released := snap.Counter("live.bgp.updates_delivered") + snap.Counter("live.bgp.updates_unreleased")
	t.Logf("%d barrier waits, %v in total, over %d released updates in a %v run",
		waits.Count, time.Duration(waits.TotalNS), released, wall)
	if waits.Count > released || time.Duration(waits.TotalNS) > wall {
		t.Errorf("%d barrier waits totalling %v, for %d released updates in a %v run",
			waits.Count, time.Duration(waits.TotalNS), released, wall)
	}
	if n := snap.Counter("live.bgp.updates_unreleased"); n != 0 {
		t.Errorf("a complete run dropped %d updates unreleased", n)
	}
}
