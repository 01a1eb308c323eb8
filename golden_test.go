package rtbh_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	rtbh "repro"
	"repro/internal/textreport"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/golden fixtures from the current output")

const goldenReport = "testdata/golden/report.txt"

// goldenConfig is the fixed world behind the golden fixture. The seed is
// pinned independently of TestConfig so fixture churn is always a
// deliberate -update, never a side effect of tweaking the test defaults.
func goldenConfig() rtbh.Config {
	cfg := rtbh.TestConfig()
	cfg.Seed = 0x601D5EED
	return cfg
}

// TestGoldenEndToEnd drives the full chain — route server and fabric
// simulation, dataset round trip, single-pass analysis, text rendering —
// and byte-compares the rendered report against the checked-in fixture,
// for the inline pass and the one-goroutine-per-operator lanes alike. On
// the way it reconciles every layer's metrics snapshot with the ground
// truth next to it: the fabric gauges against the simulation summary,
// and the pipeline counters against the report the analyst sees.
func TestGoldenEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates and analyzes a full test-scale world")
	}
	dir := t.TempDir()
	simReg := rtbh.NewMetricsRegistry()
	sum, err := rtbh.SimulateObserved(goldenConfig(), dir, simReg)
	if err != nil {
		t.Fatal(err)
	}
	simSnap := simReg.Snapshot()

	// Layer 1: the fabric's and route server's metrics must agree exactly
	// with the summary the simulator reports.
	simChecks := []struct {
		name string
		want int64
	}{
		{"fabric.packets_in", sum.PacketsIn},
		{"fabric.packets_dropped", sum.PacketsDropped},
		{"fabric.records_sampled", sum.FlowRecords},
		// Every batch the generator dispatched reached the fabric and
		// none other did.
		{"fabric.batches", sum.Batches},
		{"scenario.batches", sum.Batches},
		{"scenario.split_segments", sum.SplitSegments},
		{"scenario.day_batches_max", int64(sum.MaxDayBatches)},
	}
	if sum.Batches == 0 || sum.SplitSegments == 0 || sum.SplitSegments > sum.Batches ||
		sum.MaxDayBatches == 0 || int64(sum.MaxDayBatches) > sum.Batches {
		t.Errorf("generator counts do not nest: %d batches, %d split segments, at most %d a day",
			sum.Batches, sum.SplitSegments, sum.MaxDayBatches)
	}
	for _, c := range simChecks {
		if got := simSnap.Gauge(c.name); got != c.want {
			t.Errorf("%s = %d, summary says %d", c.name, got, c.want)
		}
	}
	// The IPFIX writer's encoder wrote every record the fabric sampled.
	if got := simSnap.Counter("ipfix.writer.records"); got != sum.FlowRecords {
		t.Errorf("ipfix.writer.records = %d, fabric.records_sampled says %d", got, sum.FlowRecords)
	}
	if got := simSnap.Counter("routeserver.updates"); got != int64(sum.ControlMsgs) {
		t.Errorf("routeserver.updates = %d, summary says %d", got, sum.ControlMsgs)
	}
	if got := simSnap.Counter("routeserver.rtbh.announced_prefixes"); got != int64(sum.Announcements) {
		t.Errorf("routeserver.rtbh.announced_prefixes = %d, summary says %d", got, sum.Announcements)
	}
	withdrawn := simSnap.Counter("routeserver.rtbh.withdrawn_prefixes") +
		simSnap.Counter("routeserver.rtbh.withdrawn_noop")
	if withdrawn != int64(sum.Withdrawals) {
		t.Errorf("withdrawn_prefixes+noop = %d, summary says %d", withdrawn, sum.Withdrawals)
	}

	ds, err := rtbh.OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}

	// 0 is the default (one goroutine per operator when there is a second
	// processor), 1 the inline pass, 2 stands for every N > 1, which means 0.
	for _, workers := range []int{0, 1, 2} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			reg := rtbh.NewMetricsRegistry()
			opts := rtbh.DefaultOptions()
			opts.OffsetStep = 20 * time.Millisecond
			opts.Workers = workers
			opts.Metrics = reg
			report, err := ds.Analyze(opts)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			textreport.RenderAll(&buf, report)
			got := buf.Bytes()

			if *updateGolden && workers == 1 {
				if err := os.MkdirAll(filepath.Dir(goldenReport), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenReport, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s (%d bytes)", goldenReport, len(got))
			}
			want, err := os.ReadFile(goldenReport)
			if err != nil {
				t.Fatalf("%v (run with -update to create the fixture)", err)
			}
			if !bytes.Equal(got, want) {
				diffLines(t, want, got)
				t.Fatalf("rendered report does not match %s (run with -update after intended changes)", goldenReport)
			}

			reconcile(t, reg.Snapshot(), simSnap, report, len(ds.Updates), workers)
		})
	}
}

const goldenArchives = "testdata/golden/archives.sha256"

// TestGoldenArchives pins the bytes the simulator archives: the SHA-256 of
// updates.mrt and flows.ipfix for goldenConfig under every mitigation
// policy, so a refactor of the route server or the fabric that changes one
// control message or one sampled record fails here rather than in a later
// figure.
func TestGoldenArchives(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a test-scale world per mitigation policy")
	}
	var got bytes.Buffer
	for _, policy := range []string{"", "flowspec", "escalate", "mixed"} {
		cfg := goldenConfig()
		cfg.MitigationPolicy = policy
		dir := t.TempDir()
		if _, err := rtbh.Simulate(cfg, dir); err != nil {
			t.Fatalf("policy %q: %v", policy, err)
		}
		for _, name := range []string{rtbh.FileUpdates, rtbh.FileFlows} {
			b, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%x  policy=%q %s\n", sha256.Sum256(b), policy, name)
		}
	}
	if *updateGolden {
		if err := os.WriteFile(goldenArchives, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenArchives)
	}
	want, err := os.ReadFile(goldenArchives)
	if err != nil {
		t.Fatalf("%v (run with -update to create the fixture)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		diffLines(t, want, got.Bytes())
		t.Fatalf("archive digests do not match %s (run with -update after intended changes)", goldenArchives)
	}
}

// reconcile cross-checks one analysis metrics snapshot against the report
// composed in the same run and against the simulation-side snapshot. This
// is the acceptance bar for the observability layer: metrics are not
// decoration, they must equal the report's numbers.
func reconcile(t *testing.T, snap, simSnap rtbh.MetricsSnapshot, report *rtbh.Report, updates, workers int) {
	t.Helper()
	checks := []struct {
		name string
		want int64
	}{
		{"pipeline.records.total", report.TotalRecords},
		{"pipeline.records.internal", report.InternalRecords},
		{"pipeline.records.attributed", report.AttributedRecords},
		{"pipeline.records.dropped", report.DroppedRecords},
		{"pipeline.events", int64(len(report.Events))},
		{"analysis.control_updates", int64(updates)},
	}
	for _, c := range checks {
		if got := snap.Gauge(c.name); got != c.want {
			t.Errorf("workers=%d: %s = %d, report says %d", workers, c.name, got, c.want)
		}
	}

	// Records the fabric emitted with the blackhole MAC are exactly the
	// records the pipeline counts as dropped: the two snapshots were taken
	// on opposite sides of the serialized dataset.
	if sim, ana := simSnap.Gauge("fabric.records_dropped_sampled"), snap.Gauge("pipeline.records.dropped"); sim != ana {
		t.Errorf("workers=%d: fabric dropped-sampled %d != pipeline dropped %d", workers, sim, ana)
	}

	// The dropstats gauges must equal the Fig 5 rows summed.
	var fig5 rtbh.LengthStat
	for i := range report.Fig5 {
		fig5.DroppedPkts += report.Fig5[i].DroppedPkts
		fig5.ForwardedPkts += report.Fig5[i].ForwardedPkts
		fig5.DroppedBytes += report.Fig5[i].DroppedBytes
		fig5.ForwardedBytes += report.Fig5[i].ForwardedBytes
	}
	dropChecks := []struct {
		name string
		want int64
	}{
		{"dropstats.dropped_pkts", fig5.DroppedPkts},
		{"dropstats.forwarded_pkts", fig5.ForwardedPkts},
		{"dropstats.dropped_bytes", fig5.DroppedBytes},
		{"dropstats.forwarded_bytes", fig5.ForwardedBytes},
	}
	for _, c := range dropChecks {
		if got := snap.Gauge(c.name); got != c.want {
			t.Errorf("workers=%d: %s = %d, Fig5 sums to %d", workers, c.name, got, c.want)
		}
	}

	// Stage timers fired once each.
	for _, name := range []string{"pipeline.observe", "analysis.compose"} {
		tv, ok := snap.Timers[name]
		if !ok || tv.Count != 1 {
			t.Errorf("workers=%d: timer %s = %+v, want exactly one span", workers, name, tv)
		}
	}

	// The pass accounts itself the same way however it is scheduled: every
	// operator feed took some of the external records and was busy for
	// some of the observe span, never for more of it than there is; the
	// time-alignment feed takes exactly the dropped records, and protocol
	// mix and pending collateral share one gate.
	external := report.TotalRecords - report.InternalRecords
	wall := snap.Timers["pipeline.observe"].TotalNS
	fed := func(op string) int64 { return snap.Counter("pipeline.lane." + op + ".records") }
	for _, op := range []string{"align", "drop", "proto", "pending", "anomaly", "hosts"} {
		if n := fed(op); n <= 0 || n > external {
			t.Errorf("workers=%d: pipeline.lane.%s.records = %d of %d external records", workers, op, n, external)
		}
		if busy := snap.Gauge("pipeline.lane." + op + ".busy_ns"); busy <= 0 || busy > wall {
			t.Errorf("workers=%d: feed %s busy %dns outside (0, %dns]", workers, op, busy, wall)
		}
	}
	if got := fed("align"); got != report.DroppedRecords {
		t.Errorf("workers=%d: pipeline.lane.align.records = %d, report drops %d", workers, got, report.DroppedRecords)
	}
	if fed("proto") != fed("pending") {
		t.Errorf("workers=%d: pipeline.lane.proto.records = %d, pipeline.lane.pending.records = %d", workers, fed("proto"), fed("pending"))
	}
	if busy := snap.Gauge("pipeline.attribute.busy_ns"); busy <= 0 || busy > wall {
		t.Errorf("workers=%d: attribution busy %dns outside (0, %dns]", workers, busy, wall)
	}
	if blocked := snap.Gauge("pipeline.lanes.blocked_ns"); blocked < 0 || blocked > wall {
		t.Errorf("workers=%d: source blocked %dns of a %dns pass", workers, blocked, wall)
	}
}

// diffLines reports the first diverging line between two renderings.
func diffLines(t *testing.T, want, got []byte) {
	t.Helper()
	wantLines, gotLines := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := range wantLines {
		if i >= len(gotLines) || !bytes.Equal(wantLines[i], gotLines[i]) {
			var g []byte
			if i < len(gotLines) {
				g = gotLines[i]
			}
			t.Errorf("first divergence at line %d:\nfixture: %s\ngot:     %s", i+1, wantLines[i], g)
			return
		}
	}
	t.Errorf("output has %d extra lines beyond the fixture", len(gotLines)-len(wantLines))
}
