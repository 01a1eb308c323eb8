package rtbh_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	rtbh "repro"
	"repro/internal/textreport"
)

// chaosConfig is a shrunk world: big enough that every profile's faults
// actually fire (hundreds of control updates, hundreds of export
// datagrams), small enough that the full seeds × profiles matrix stays
// race-test friendly.
func chaosConfig() rtbh.Config {
	cfg := rtbh.TestConfig()
	cfg.Seed = 0xC4A05
	cfg.Days = 12
	cfg.Members = 60
	cfg.RTBHUsers = 12
	cfg.VictimOriginASes = 20
	cfg.RemoteOriginASes = 400
	cfg.EventsTotal = 250
	cfg.UniqueVictims = 120
	cfg.MeanAmplifiersPerAttack = 40
	// FlowSpec signaling rides the same impaired sessions: the chaos
	// matrix must also preserve the fine-grained mitigation measurement.
	cfg.MitigationPolicy = "escalate"
	return cfg
}

// renderReport flattens a report to comparable bytes (same shape as the
// clean parity test uses).
func renderReport(rep *rtbh.Report) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "records %d/%d/%d/%d events %d\n",
		rep.TotalRecords, rep.InternalRecords,
		rep.AttributedRecords, rep.DroppedRecords, len(rep.Events))
	textreport.RenderAll(&buf, rep)
	return buf.Bytes()
}

// chaosOutcome is everything one chaos live run leaves behind.
type chaosOutcome struct {
	snap    *rtbh.MetricsSnapshot
	total   int64  // online Final's TotalRecords
	report  []byte // rendered online Final
	offline []byte // rendered batch analysis of the live dataset dir
	updates []byte // updates.mrt
	flows   []byte // flows.ipfix
	journal string
}

// runChaosLive executes one live run under (seed, profile) and gathers
// the outcome. On test failure the metrics snapshot is written to
// $CHAOS_METRICS_DIR for CI artifact upload.
func runChaosLive(t *testing.T, cfg rtbh.Config, seed uint64, profile string, opts rtbh.Options) *chaosOutcome {
	t.Helper()
	dir := t.TempDir()
	reg := rtbh.NewMetricsRegistry()
	lr, err := rtbh.NewLiveRun(cfg, dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := lr.EnableChaos(seed, profile); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dumpChaosMetrics(t, reg, profile, seed) })
	if _, err := lr.Run(context.Background()); err != nil {
		t.Fatalf("live run under %s/seed %d: %v", profile, seed, err)
	}
	if lr.Interrupted() {
		t.Fatal("uninterrupted chaos run reports Interrupted")
	}

	out := &chaosOutcome{journal: lr.ChaosJournal()}
	snap := reg.Snapshot()
	out.snap = &snap

	rep, err := lr.Analyzer().Final(opts)
	if err != nil {
		t.Fatal(err)
	}
	out.total = rep.TotalRecords
	out.report = renderReport(rep)

	ds, err := rtbh.OpenDataset(dir)
	if err != nil {
		t.Fatalf("chaos dataset unloadable: %v", err)
	}
	offRep, err := ds.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	out.offline = renderReport(offRep)

	if out.updates, err = os.ReadFile(filepath.Join(dir, rtbh.FileUpdates)); err != nil {
		t.Fatal(err)
	}
	if out.flows, err = os.ReadFile(filepath.Join(dir, rtbh.FileFlows)); err != nil {
		t.Fatal(err)
	}
	return out
}

// dumpChaosMetrics writes the snapshot to $CHAOS_METRICS_DIR when the
// test failed — the CI chaos-soak step uploads that directory as an
// artifact so a red run ships its own reconciliation evidence.
func dumpChaosMetrics(t *testing.T, reg *rtbh.MetricsRegistry, profile string, seed uint64) {
	t.Helper()
	dir := os.Getenv("CHAOS_METRICS_DIR")
	if dir == "" || !t.Failed() {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("chaos metrics dump: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("metrics-%s-seed%d.json", profile, seed))
	f, err := os.Create(path)
	if err != nil {
		t.Logf("chaos metrics dump: %v", err)
		return
	}
	defer f.Close()
	snap := reg.Snapshot()
	if err := snap.WriteJSON(f); err != nil {
		t.Logf("chaos metrics dump: %v", err)
		return
	}
	t.Logf("metrics snapshot written to %s", path)
}

// TestChaosLiveParity is the chaos-soak matrix: for each impairment
// profile and chaos seed, the PR 3 invariants must survive injected
// faults — the control plane stays byte-identical to the batch run
// (sessions re-establish, the sequencer restores total order), the
// online report equals the batch report modulo exactly the drops the
// collector accounted for, and every injected fault reconciles against
// an observed recovery counter.
func TestChaosLiveParity(t *testing.T) {
	if testing.Short() {
		t.Skip("streams a chaos matrix through live transports")
	}
	cfg := chaosConfig()
	opts := rtbh.DefaultOptions()
	opts.OffsetStep = 20 * time.Millisecond

	// Batch reference, once for the whole matrix.
	batchDir := t.TempDir()
	if _, err := rtbh.Simulate(cfg, batchDir); err != nil {
		t.Fatal(err)
	}
	batchUpdates, err := os.ReadFile(filepath.Join(batchDir, rtbh.FileUpdates))
	if err != nil {
		t.Fatal(err)
	}
	batchFlows, err := os.ReadFile(filepath.Join(batchDir, rtbh.FileFlows))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := rtbh.OpenDataset(batchDir)
	if err != nil {
		t.Fatal(err)
	}
	batchRep, err := ds.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	batchRendered := renderReport(batchRep)

	// headline: the fault class that must demonstrably fire per profile.
	matrix := []struct {
		profile  string
		headline string
	}{
		{"lossy-udp", "faultnet.udp.dropped_datagrams"},
		{"flapping-tcp", "faultnet.tcp.kills"},
		{"partition-heal", "faultnet.udp.partitions"},
	}
	for _, mcase := range matrix {
		for _, seed := range []uint64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed%d", mcase.profile, seed), func(t *testing.T) {
				out := runChaosLive(t, cfg, seed, mcase.profile, opts)
				snap := out.snap
				counter := func(name string) int64 {
					t.Helper()
					if !snap.Has(name) {
						t.Fatalf("metric %s not registered", name)
					}
					return snap.Counter(name)
				}

				if v := counter(mcase.headline); v == 0 {
					t.Errorf("profile %s injected no %s faults — the soak tested nothing", mcase.profile, mcase.headline)
				}

				// Control-plane parity survives every profile: the MRT
				// archive is byte-identical to the batch run even across
				// session kills and reconnects.
				if !bytes.Equal(out.updates, batchUpdates) {
					t.Errorf("updates.mrt differs from batch under %s (batch %d bytes, live %d)",
						mcase.profile, len(batchUpdates), len(out.updates))
				}

				// Transport reconciliation: injected == observed, exactly.
				if kills, rec := counter("faultnet.tcp.kills"), counter("live.bgp.reconnects"); rec != kills {
					t.Errorf("reconnects %d != injected kills %d", rec, kills)
				}
				wantDropped := counter("faultnet.udp.dropped_records") + counter("faultnet.udp.reorder_late_records")
				if got := counter("live.ipfix.dropped_records"); got != wantDropped {
					t.Errorf("collector accounted %d dropped records, injected %d", got, wantDropped)
				}
				wantLate := counter("faultnet.udp.duplicated") + counter("faultnet.udp.reorder_late_datagrams")
				if got := counter("live.ipfix.late_msgs"); got != wantLate {
					t.Errorf("late msgs %d, want %d (dups + late reorders)", got, wantLate)
				}
				for _, name := range []string{
					"live.ipfix.dropped_datagrams", // queue shedding would double-count drops
					"live.ipfix.decode_errors",
					"live.bgp.hold_expiries",
					"live.bgp.restart_flushes", // every kill must heal within tolerance
				} {
					if v := counter(name); v != 0 {
						t.Errorf("%s = %d, want 0", name, v)
					}
				}
				if def, rec := counter("live.bgp.restarts_deferred"), counter("live.bgp.restarts_recovered"); def != rec {
					t.Errorf("restarts deferred %d != recovered %d", def, rec)
				}
				if sent, del := counter("live.bgp.updates_sent"), counter("live.bgp.updates_delivered"); sent != del {
					t.Errorf("updates sent %d != delivered %d", sent, del)
				}
				exported := counter("live.ipfix.exported_records")
				if col := counter("live.ipfix.collected_records"); col+wantDropped != exported {
					t.Errorf("collected %d + dropped %d != exported %d", col, wantDropped, exported)
				}

				// The online report must equal the batch analysis of the
				// live run's own dataset (online == offline over the same
				// collected stream)...
				if !bytes.Equal(out.report, out.offline) {
					t.Errorf("online report differs from offline analysis of the live dataset")
				}
				// ...and differ from the full batch report by exactly the
				// accounted drops.
				if out.total+wantDropped != batchRep.TotalRecords {
					t.Errorf("live TotalRecords %d + dropped %d != batch TotalRecords %d",
						out.total, wantDropped, batchRep.TotalRecords)
				}
				if wantDropped == 0 {
					// No data-plane loss (e.g. flapping-tcp): the whole
					// dataset and report must match the batch run outright.
					if !bytes.Equal(out.flows, batchFlows) {
						t.Errorf("flows.ipfix differs from batch despite zero drops")
					}
					if !bytes.Equal(out.report, batchRendered) {
						t.Errorf("report differs from batch despite zero drops")
					}
				}
			})
		}
	}
}

// TestChaosDeterminism runs each profile twice with the same chaos seed:
// the fault journals, archives and final reports must be byte-identical
// — the "-chaos-seed reproduces the failure" guarantee.
func TestChaosDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each chaos profile twice")
	}
	cfg := chaosConfig()
	opts := rtbh.DefaultOptions()
	opts.OffsetStep = 20 * time.Millisecond
	for _, profile := range []string{"lossy-udp", "flapping-tcp", "partition-heal"} {
		t.Run(profile, func(t *testing.T) {
			a := runChaosLive(t, cfg, 1, profile, opts)
			b := runChaosLive(t, cfg, 1, profile, opts)
			if a.journal != b.journal {
				t.Errorf("same seed, different fault journals:\n-- run 1 --\n%s\n-- run 2 --\n%s", a.journal, b.journal)
			}
			if a.journal == "" {
				t.Error("empty fault journal: nothing was injected")
			}
			if !bytes.Equal(a.updates, b.updates) {
				t.Error("same seed, different updates.mrt")
			}
			if !bytes.Equal(a.flows, b.flows) {
				t.Error("same seed, different flows.ipfix")
			}
			if !bytes.Equal(a.report, b.report) {
				t.Error("same seed, different final reports")
			}
		})
	}
}

// TestChaosJournalSingleExchange pins the journal of a one-exchange run
// to its plan's own rendering: no exchange header, nothing re-ordered.
func TestChaosJournalSingleExchange(t *testing.T) {
	if testing.Short() {
		t.Skip("streams a world through impaired live transports")
	}
	lr, err := rtbh.NewLiveRun(chaosConfig(), t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if lr.ChaosJournal() != "" {
		t.Error("journal is not empty before chaos is enabled")
	}
	if err := lr.EnableChaos(1, "flapping-tcp"); err != nil {
		t.Fatal(err)
	}
	if _, err := lr.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, want := lr.ChaosJournal(), lr.PlanJournal(0); got != want || got == "" {
		t.Errorf("journal:\n%s\nwant the plan's own:\n%s", got, want)
	}
}
