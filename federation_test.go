package rtbh_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	rtbh "repro"
	"repro/internal/textreport"
)

// federationOptions mirrors the golden test's parameterization so the
// N=1 federated rendering is comparable against the same fixture.
func federationOptions() rtbh.Options {
	opts := rtbh.DefaultOptions()
	opts.OffsetStep = 20 * time.Millisecond
	return opts
}

// renderGolden renders a report exactly as the golden fixture is built.
func renderGolden(r *rtbh.Report) []byte {
	var buf bytes.Buffer
	textreport.RenderAll(&buf, r)
	return buf.Bytes()
}

// TestFederatedParityGolden runs the golden world through the
// federation machinery with a single exchange: the snapshot wire round
// trip, the coordinator merge, and the rendered global report must all
// collapse to exactly the single-IXP pipeline — byte-identical to the
// checked-in golden fixture.
func TestFederatedParityGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates and analyzes a full test-scale world")
	}
	cfg := goldenConfig()
	cfg.IXPs = 1
	dir := t.TempDir()
	sum, err := rtbh.Simulate(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.PerIXP) != 1 {
		t.Fatalf("summary reports %d IXPs, want 1", len(sum.PerIXP))
	}
	fr, err := rtbh.AnalyzeFederated(datasetDirs(t, dir, 1), federationOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenReport)
	if err != nil {
		t.Fatalf("%v (run TestGoldenEndToEnd with -update to create the fixture)", err)
	}
	if got := renderGolden(fr.Global); !bytes.Equal(got, want) {
		diffLines(t, want, got)
		t.Fatal("N=1 federated global report does not match the golden fixture")
	}
	if len(fr.PerIXP) != 1 {
		t.Fatalf("got %d per-IXP reports, want 1", len(fr.PerIXP))
	}
	if got := renderGolden(fr.PerIXP[0].Report); !bytes.Equal(got, want) {
		diffLines(t, want, got)
		t.Fatal("N=1 per-IXP report does not match the golden fixture")
	}
	if fr.Cross != nil {
		t.Fatal("single-exchange federation should produce no cross view")
	}
}

// TestFederatedParityUnion partitions the golden world across three
// exchanges with disjoint member subsets and merges the three datasets
// back through the coordinator: the global report must be byte-identical
// to analyzing the union (single-IXP) dataset of the same world.
func TestFederatedParityUnion(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates and analyzes two full test-scale worlds")
	}
	opts := federationOptions()

	unionDir := t.TempDir()
	if _, err := rtbh.Simulate(goldenConfig(), unionDir); err != nil {
		t.Fatal(err)
	}
	ds, err := rtbh.OpenDataset(unionDir)
	if err != nil {
		t.Fatal(err)
	}
	unionOpts := opts
	unionOpts.Workers = 1
	unionReport, err := ds.Analyze(unionOpts)
	if err != nil {
		t.Fatal(err)
	}
	want := renderGolden(unionReport)

	cfg := goldenConfig()
	cfg.IXPs = 3
	fedDir := t.TempDir()
	sum, err := rtbh.Simulate(cfg, fedDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.PerIXP) != 3 {
		t.Fatalf("summary reports %d IXPs, want 3", len(sum.PerIXP))
	}
	for i, x := range sum.PerIXP {
		if x.FlowRecords == 0 {
			t.Errorf("IXP %d observed no flow records", i)
		}
	}
	total := sum.FlowRecords

	fr, err := rtbh.AnalyzeFederated(datasetDirs(t, fedDir, 3), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderGolden(fr.Global); !bytes.Equal(got, want) {
		diffLines(t, want, got)
		t.Fatal("N=3 federated global report does not match the union analysis")
	}
	if fr.Global.TotalRecords != total {
		t.Errorf("global report counts %d records, datasets hold %d", fr.Global.TotalRecords, total)
	}
	if len(fr.PerIXP) != 3 {
		t.Fatalf("got %d per-IXP reports, want 3", len(fr.PerIXP))
	}
	if fr.Cross == nil {
		t.Fatal("multi-exchange federation should produce a cross view")
	}
	// Disjoint member subsets: every event's traffic is observed only at
	// its own exchange, so nothing leaks across.
	if fr.Cross.ForeignPkts != 0 {
		t.Errorf("disjoint federation delivered %d foreign packets, want 0", fr.Cross.ForeignPkts)
	}
	if fr.Cross.DroppedPkts == 0 {
		t.Error("cross view saw no during-event drops")
	}
}

// TestFederatedMultiHomed turns on multi-homing: selected members
// connect at two exchanges while signaling RTBH only at their home, so
// the secondary exchange keeps delivering attack traffic the home
// exchange drops. The cross view must surface that leakage.
func TestFederatedMultiHomed(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates and analyzes a full test-scale world")
	}
	cfg := goldenConfig()
	cfg.IXPs = 3
	cfg.MultiHomedShare = 0.6
	cfg.IXPClockSkewStep = 2 * time.Millisecond
	dir := t.TempDir()
	sum, err := rtbh.Simulate(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.MultiHomedMembers) == 0 {
		t.Fatal("no members were multi-homed at share 0.6")
	}

	fr, err := rtbh.AnalyzeFederated(datasetDirs(t, dir, 3), federationOptions())
	if err != nil {
		t.Fatal(err)
	}
	if fr.Cross == nil {
		t.Fatal("no cross view")
	}
	if fr.Cross.ForeignPkts == 0 {
		t.Error("multi-homed federation shows no foreign-delivered packets")
	}
	if fr.Cross.LeakedEvents == 0 {
		t.Error("multi-homed federation shows no leaked events")
	}
	if fr.Cross.ForeignShare <= 0 || fr.Cross.ForeignShare >= 1 {
		t.Errorf("foreign share = %v, want in (0, 1)", fr.Cross.ForeignShare)
	}
	// Every exchange still composes a full standalone report.
	for i, r := range fr.PerIXP {
		if r.Report.Fig2 == nil || r.Report.TotalRecords == 0 {
			t.Errorf("IXP %d report is incomplete", i)
		}
	}
}

// datasetDirs reads a run's layout back and requires n datasets in it.
func datasetDirs(t *testing.T, dir string, n int) []string {
	t.Helper()
	dirs, err := rtbh.DatasetDirs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != n {
		t.Fatalf("%s holds %d datasets, want %d", dir, len(dirs), n)
	}
	return dirs
}

// requireSameFile fails unless the two files hold the same bytes.
func requireSameFile(t *testing.T, wantPath, gotPath string) {
	t.Helper()
	want, err := os.ReadFile(wantPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(gotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s (%d bytes) differs from %s (%d bytes)", gotPath, len(got), wantPath, len(want))
	}
}

// requireSameFederatedReport fails unless the live run's merged report
// renders like AnalyzeFederated's over its archives, globally and per
// exchange.
func requireSameFederatedReport(t *testing.T, batch, live *rtbh.FederatedReport) {
	t.Helper()
	if len(live.PerIXP) != len(batch.PerIXP) {
		t.Fatalf("live has %d per-IXP reports, batch %d", len(live.PerIXP), len(batch.PerIXP))
	}
	requireSameReport(t, batch.Global, live.Global)
	for i := range live.PerIXP {
		requireSameReport(t, batch.PerIXP[i].Report, live.PerIXP[i].Report)
	}
}

// runFederatedLive drives one federated live run to completion and
// returns its report alongside the batch AnalyzeFederated result over
// the archives the run wrote — the two views every live-parity test
// compares.
func runFederatedLive(t *testing.T, cfg rtbh.Config, dir, snapChaosProfile string) (*rtbh.FederatedReport, *rtbh.FederatedReport) {
	t.Helper()
	lr, err := rtbh.NewLiveRun(cfg, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if snapChaosProfile != "" {
		if err := lr.EnableSnapshotChaos(cfg.Seed+7, snapChaosProfile); err != nil {
			t.Fatal(err)
		}
	}
	sum, err := lr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if lr.Interrupted() {
		t.Fatal("uninterrupted federated run reports Interrupted")
	}
	if len(sum.PerIXP) != cfg.IXPs {
		t.Fatalf("summary reports %d IXPs, want %d", len(sum.PerIXP), cfg.IXPs)
	}

	opts := federationOptions()
	live, err := lr.Report(opts)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := rtbh.AnalyzeFederated(datasetDirs(t, dir, cfg.IXPs), opts)
	if err != nil {
		t.Fatal(err)
	}
	return live, batch
}

// TestLiveFederatedParity is the federated live guarantee: a run whose
// exchanges each stream over their own BGP/TCP sessions and IPFIX/UDP
// export writes archives byte-identical to Simulate's, and the
// report merged from the online analyzers' snapshots — shipped over the
// federation TCP transport — renders byte-identical to the batch
// AnalyzeFederated over those archives.
func TestLiveFederatedParity(t *testing.T) {
	if testing.Short() {
		t.Skip("streams a federated test-scale world through live transports")
	}
	cfg := goldenConfig()
	cfg.IXPs = 3

	batchDir, liveDir := t.TempDir(), t.TempDir()
	if _, err := rtbh.Simulate(cfg, batchDir); err != nil {
		t.Fatal(err)
	}
	live, batch := runFederatedLive(t, cfg, liveDir, "")

	// Each exchange's archives must match the batch simulation's bytes.
	liveDirs := datasetDirs(t, liveDir, cfg.IXPs)
	for i, d := range datasetDirs(t, batchDir, cfg.IXPs) {
		for _, name := range []string{rtbh.FileUpdates, rtbh.FileFlows} {
			requireSameFile(t, filepath.Join(d, name), filepath.Join(liveDirs[i], name))
		}
	}

	requireSameFederatedReport(t, batch, live)
}

// TestChaosFederatedSnapshotTransport impairs the snapshot transport
// with the flapping-tcp profile: frames are truncated mid-write and
// connections cut, yet retransmission plus the coordinator's Seq dedup
// still converge on the same merged report a clean transport produces.
func TestChaosFederatedSnapshotTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("streams a federated test-scale world through live transports")
	}
	cfg := goldenConfig()
	cfg.IXPs = 3
	cfg.MultiHomedShare = 0.5

	live, batch := runFederatedLive(t, cfg, t.TempDir(), "flapping-tcp")
	if got, want := renderGolden(live.Global), renderGolden(batch.Global); !bytes.Equal(got, want) {
		diffLines(t, want, got)
		t.Fatal("global report merged over a chaotic snapshot transport diverges")
	}
	if live.Cross == nil || batch.Cross == nil {
		t.Fatal("missing cross view")
	}
	if live.Cross.ForeignPkts != batch.Cross.ForeignPkts ||
		live.Cross.LeakedEvents != batch.Cross.LeakedEvents {
		t.Errorf("cross view diverges: live foreign=%d leaked=%d, batch foreign=%d leaked=%d",
			live.Cross.ForeignPkts, live.Cross.LeakedEvents,
			batch.Cross.ForeignPkts, batch.Cross.LeakedEvents)
	}
}

// TestChaosFederatedLiveTransport impairs the live transports of a
// two-exchange run with the flapping-tcp profile: exchange i draws its
// kill schedule from seed+i, every exchange's sessions re-establish,
// and each control-plane archive stays byte-identical to the batch
// federated simulation. The report merged from the online analyzers
// still equals the batch AnalyzeFederated over the run's own archives.
func TestChaosFederatedLiveTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("streams a federated world through impaired live transports")
	}
	cfg := chaosConfig()
	cfg.IXPs = 2

	batchDir, liveDir := t.TempDir(), t.TempDir()
	if _, err := rtbh.Simulate(cfg, batchDir); err != nil {
		t.Fatal(err)
	}
	reg := rtbh.NewMetricsRegistry()
	lr, err := rtbh.NewLiveRun(cfg, liveDir, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := lr.EnableChaos(1, "flapping-tcp"); err != nil {
		t.Fatal(err)
	}
	if _, err := lr.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if kills, rec := snap.Counter("faultnet.tcp.kills"), snap.Counter("live.bgp.reconnects"); kills == 0 || rec != kills {
		t.Errorf("exchange 0: %d injected kills, %d reconnects", kills, rec)
	}
	// Every exchange injected its own schedule.
	want := "=== ixp0 ===\n" + lr.PlanJournal(0) + "=== ixp1 ===\n" + lr.PlanJournal(1)
	if lr.PlanJournal(0) == "" || lr.PlanJournal(1) == "" || lr.PlanJournal(0) == lr.PlanJournal(1) {
		t.Error("the exchanges' fault journals are empty or equal: seed+i plans did not fire independently")
	}
	if got := lr.ChaosJournal(); got != want {
		t.Errorf("ChaosJournal is not the per-exchange journals under ixp<i> headers:\n%s", got)
	}

	dirs := datasetDirs(t, liveDir, cfg.IXPs)
	for i, d := range datasetDirs(t, batchDir, cfg.IXPs) {
		requireSameFile(t, filepath.Join(d, rtbh.FileUpdates), filepath.Join(dirs[i], rtbh.FileUpdates))
	}
	opts := federationOptions()
	live, err := lr.Report(opts)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := rtbh.AnalyzeFederated(dirs, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameFederatedReport(t, batch, live)
}
