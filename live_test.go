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
