package rtbh_test

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rtbh "repro"
	"repro/internal/analysis"
	"repro/internal/analysis/events"
	"repro/internal/bgp"
	"repro/internal/ipfix"
	"repro/internal/obs"
	"repro/internal/textreport"
)

// onlineTestOpts are the analysis options shared by the snapshot tests:
// the paper's parameters with the Fig 10 sweep disabled and a coarser
// Fig 2 grid, so each of the many batch references stays cheap. Both
// sides of every comparison use the same options, so parity is
// unaffected.
func onlineTestOpts() rtbh.Options {
	opts := rtbh.DefaultOptions()
	opts.OffsetStep = 20 * time.Millisecond
	opts.SweepDeltas = nil
	opts.Workers = 1
	return opts
}

// renderSnapshot renders a report plus its cleaning counters, the same
// shape the parallel parity test byte-compares.
func renderSnapshot(t *testing.T, report *rtbh.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "records %d/%d/%d/%d events %d\n",
		report.TotalRecords, report.InternalRecords,
		report.AttributedRecords, report.DroppedRecords, len(report.Events))
	textreport.RenderAll(&buf, report)
	return buf.Bytes()
}

// onlineTestDataset simulates the shared snapshot-test world and loads
// its flow archive into memory so prefixes of the stream can be replayed.
func onlineTestDataset(t *testing.T) (*rtbh.Dataset, []rtbh.FlowRecord) {
	t.Helper()
	dir, err := os.MkdirTemp("", "rtbh-online-*")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	cfg := rtbh.TestConfig()
	cfg.Seed = 0x0B5E55ED
	if _, err := rtbh.Simulate(cfg, dir); err != nil {
		t.Fatal(err)
	}
	ds, err := rtbh.OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	var flows []rtbh.FlowRecord
	if err := ds.EachFlowBatch(func(b *ipfix.RecordBatch) error {
		flows = append(flows, b.Recs...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(flows) == 0 || len(ds.Updates) == 0 {
		t.Fatalf("empty test world: %d updates, %d flows", len(ds.Updates), len(flows))
	}
	return ds, flows
}

// flowChunk is about what one collected datagram carries.
const flowChunk = 32

// feedFlows hands flows to a in flowChunk-sized batches.
func feedFlows(a *rtbh.OnlineAnalyzer, flows []rtbh.FlowRecord) {
	for len(flows) > 0 {
		n := min(flowChunk, len(flows))
		a.ObserveFlowBatch(&ipfix.RecordBatch{Recs: flows[:n]})
		flows = flows[n:]
	}
}

// TestOnlineSnapshotCutPoints feeds one OnlineAnalyzer incrementally and
// snapshots it at several cut points of the streams. Each mid-stream
// snapshot must render byte-identical to a cold batch analysis of
// exactly the prefix fed so far — the incremental-operator engine and
// the event-scoped retention scheme may never show through in the
// output (DESIGN.md, "Incremental analysis") — and the snapshot
// counters must grow monotonically from cut to cut.
func TestOnlineSnapshotCutPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a test-scale world and analyzes several prefixes of it")
	}
	ds, flows := onlineTestDataset(t)
	opts := onlineTestOpts()

	a := rtbh.NewOnlineAnalyzer(ds.Meta)
	cuts := []int{8, 4, 2, 1} // denominators: 1/8, 1/4, 1/2, all
	fedUpd, fedFlow := 0, 0
	var prevRecords, prevAttributed, prevDropped int64
	prevEvents := 0
	for _, div := range cuts {
		u, f := len(ds.Updates)/div, len(flows)/div
		for ; fedUpd < u; fedUpd++ {
			a.ObserveControl(ds.Updates[fedUpd])
		}
		feedFlows(a, flows[fedFlow:f])
		fedFlow = f

		snap, err := a.Snapshot(opts)
		if err != nil {
			t.Fatalf("cut 1/%d: snapshot: %v", div, err)
		}
		batch, err := rtbh.NewDataset(ds.Meta, ds.Updates[:u], flows[:f]).Analyze(opts)
		if err != nil {
			t.Fatalf("cut 1/%d: batch reference: %v", div, err)
		}
		got, want := renderSnapshot(t, snap), renderSnapshot(t, batch)
		if !bytes.Equal(got, want) {
			gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
			for i := range wantLines {
				if i >= len(gotLines) || !bytes.Equal(gotLines[i], wantLines[i]) {
					t.Fatalf("cut 1/%d (%d updates, %d flows): snapshot diverges from batch at line %d:\nbatch:  %s\nonline: %s",
						div, u, f, i+1, wantLines[i], gotLines[i])
				}
			}
			t.Fatalf("cut 1/%d: snapshot has %d extra lines", div, len(gotLines)-len(wantLines))
		}

		if snap.TotalRecords < prevRecords || snap.AttributedRecords < prevAttributed ||
			snap.DroppedRecords < prevDropped || len(snap.Events) < prevEvents {
			t.Fatalf("cut 1/%d: snapshot counts regressed: records %d->%d attributed %d->%d dropped %d->%d events %d->%d",
				div, prevRecords, snap.TotalRecords, prevAttributed, snap.AttributedRecords,
				prevDropped, snap.DroppedRecords, prevEvents, len(snap.Events))
		}
		prevRecords, prevAttributed = snap.TotalRecords, snap.AttributedRecords
		prevDropped, prevEvents = snap.DroppedRecords, len(snap.Events)
	}
	if prevRecords == 0 || prevEvents == 0 {
		t.Fatalf("final snapshot empty: %d records, %d events", prevRecords, prevEvents)
	}
}

// TestOnlineSnapshotConcurrent exercises the live-mode contract under
// the race detector: updates and flows arrive on separate goroutines
// (as they do from the route server and the collector) while a third
// goroutine snapshots continuously. Ingest must never block on a
// snapshot, successive snapshot counts must be monotonically
// non-decreasing, and the snapshot after both streams drain must be
// byte-identical to the batch analysis of the full archive.
//
// A fourth goroutine is a reader that was handed an earlier report — the
// snapshot taken with seven eighths of the flows in, where host profiles,
// top ports and Fig 18 are populated — and keeps rendering it, unlocked,
// while ingest seals past it and later snapshots are taken. The report
// must never change (the serving layer caches reports across readers on
// exactly that): sealing copies a sub-aggregate it shares with a snapshot
// before writing it, and the race detector reports any write that does not.
func TestOnlineSnapshotConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a test-scale world and snapshots it under concurrent ingest")
	}
	ds, flows := onlineTestDataset(t)
	opts := onlineTestOpts()

	a := rtbh.NewOnlineAnalyzer(ds.Meta)
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := range ds.Updates {
			a.ObserveControl(ds.Updates[i])
		}
	}()
	// The flow goroutine waits at seven eighths of its stream until the
	// reader has its report, so that sealing provably continues past it.
	reached, resume := make(chan struct{}), make(chan struct{})
	go func() {
		defer wg.Done()
		cut := len(flows) / 8 * 7
		feedFlows(a, flows[:cut])
		close(reached)
		<-resume
		feedFlows(a, flows[cut:])
	}()
	go func() { wg.Wait(); close(done) }()

	var walks atomic.Int64
	stopReader, readerDone := make(chan struct{}), make(chan struct{})
	read := func(early *rtbh.Report) {
		defer close(readerDone)
		want := renderSnapshot(t, early)
		for {
			select {
			case <-stopReader:
				return
			default:
			}
			if got := renderSnapshot(t, early); !bytes.Equal(got, want) {
				t.Errorf("a report handed out earlier changed under its reader (%d -> %d bytes)", len(want), len(got))
				return
			}
			walks.Add(1)
		}
	}

	var prevRecords int64
	prevEvents := 0
	for stop := false; !stop; {
		handOut := false
		select {
		case <-done:
			stop = true
		case <-reached:
			reached, handOut = nil, true
		default:
		}
		snap, err := a.Snapshot(opts)
		if err != nil {
			t.Fatalf("concurrent snapshot: %v", err)
		}
		if snap.TotalRecords < prevRecords || len(snap.Events) < prevEvents {
			t.Fatalf("snapshot counts regressed under concurrent ingest: records %d->%d events %d->%d",
				prevRecords, snap.TotalRecords, prevEvents, len(snap.Events))
		}
		prevRecords, prevEvents = snap.TotalRecords, len(snap.Events)
		if handOut {
			t.Logf("reader holds the report over %d records: %d host profiles, %d events with collateral damage",
				snap.TotalRecords, len(snap.Fig17), snap.Fig18.Events)
			go read(snap)
			close(resume)
		}
	}

	final, err := a.Final(opts)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := ds.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	got, want := renderSnapshot(t, final), renderSnapshot(t, batch)
	if !bytes.Equal(got, want) {
		t.Fatalf("final online report diverges from batch (%d vs %d bytes)", len(got), len(want))
	}
	if final.TotalRecords != int64(len(flows)) {
		t.Fatalf("final report covers %d records, stream had %d", final.TotalRecords, len(flows))
	}
	close(stopReader)
	<-readerDone
	if walks.Load() == 0 {
		t.Error("the reader never finished a walk of its report")
	}
}

// TestFrozenReplayMatchesSpeculative pins the snapshot's tail replay to
// the one it replaced. At eight cut points of the cut-point test's stream
// the unsealed tail is replayed twice over clones of the sealed state:
// with the sealed side's wide gates (every external endpoint profiled,
// every unattributed pair tallied, all of it filtered again at compose
// time) and through a frozen clone with batch gates. The index does not
// change between a clone's replay and its Finalize, so both must finalize
// to the same bytes.
func TestFrozenReplayMatchesSpeculative(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a test-scale world")
	}
	ds, flows := onlineTestDataset(t)
	reg := obs.NewRegistry()
	a := rtbh.NewOnlineAnalyzer(ds.Meta)
	a.RegisterMetrics(reg)

	const cuts = 8
	fedUpd, fedFlow := 0, 0
	sealedAndTail := 0
	for k := 1; k <= cuts; k++ {
		for u := len(ds.Updates) * k / cuts; fedUpd < u; fedUpd++ {
			a.ObserveControl(ds.Updates[fedUpd])
		}
		f := len(flows) * k / cuts
		feedFlows(a, flows[fedFlow:f])
		fedFlow = f
		wide, frozen, err := a.TailReplayStates()
		if err != nil {
			t.Fatalf("cut %d/%d: %v", k, cuts, err)
		}
		if !bytes.Equal(wide, frozen) {
			t.Fatalf("cut %d/%d: frozen tail replay finalizes to %d bytes that differ from the speculative replay's %d",
				k, cuts, len(frozen), len(wide))
		}
		snap := reg.Snapshot()
		if snap.Counter("online.records_compacted") > 0 && snap.Gauge("online.retained_flows") > 0 {
			sealedAndTail++
		}
	}
	if sealedAndTail == 0 {
		t.Fatal("no cut point had both sealed state and an unsealed tail; the comparison was vacuous")
	}
}

// writtenKeys bounds from above how many operator sub-aggregates a pass
// over recs can write: each record's two hosts, the collateral table of
// the event covering it and the anomaly slot of its destination prefix,
// under the given control-plane view and with no observation gate applied.
func writtenKeys(ix *events.Index, recs []rtbh.FlowRecord) int64 {
	type slot struct {
		prefix bgp.Prefix
		slot   int64
	}
	hosts, tables, slots := map[uint32]bool{}, map[int]bool{}, map[slot]bool{}
	for i := range recs {
		rec := &recs[i]
		hosts[rec.DstIP], hosts[rec.SrcIP] = true, true
		if m := ix.Lookup(rec.DstIP, rec.Start); m.Event != nil {
			tables[m.Event.ID] = true
		}
		if prefix, ok := ix.Interesting(rec.DstIP, rec.Start); ok {
			slots[slot{prefix, analysis.Slot(rec.Start)}] = true
		}
	}
	return int64(len(hosts) + len(tables) + len(slots))
}

// TestOnlineSnapshotMetricsReconcile cross-checks the snapshot phase
// timers and the copy-on-write counter against what they are parts of, in
// the style of TestGoldenEndToEnd. Clone, replay and compose are timed
// once per snapshot (federation ticks included) and sum to no more than
// the latency histogram's total. And sharing is paid per key, not per
// snapshot: between two snapshots the sealed side and the new snapshot's
// clone together copy no more sub-aggregates than the distinct keys the
// records they observed in between can write — the sealed side observed
// what was compacted since the previous snapshot, the clone the tail.
func TestOnlineSnapshotMetricsReconcile(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a test-scale world")
	}
	ds, flows := onlineTestDataset(t)
	opts := onlineTestOpts()
	reg := obs.NewRegistry()
	a := rtbh.NewOnlineAnalyzer(ds.Meta)
	a.RegisterMetrics(reg)

	const cuts = 8
	fedUpd, fedFlow := 0, 0
	var prevCopies, prevCompacted int64
	for k := 1; k <= cuts; k++ {
		for u := len(ds.Updates) * k / cuts; fedUpd < u; fedUpd++ {
			a.ObserveControl(ds.Updates[fedUpd])
		}
		f := len(flows) * k / cuts
		feedFlows(a, flows[fedFlow:f])
		fedFlow = f
		if k == cuts/2 {
			// A federation tick is a snapshot too; its clone's copies join
			// this interval's.
			if _, err := a.FederationState(0, 1, 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := a.Snapshot(opts); err != nil {
			t.Fatalf("cut %d/%d: %v", k, cuts, err)
		}
		snap := reg.Snapshot()
		copies, compacted := snap.Counter("online.cow_copies"), snap.Counter("online.records_compacted")

		evs := events.Merge(ds.Updates[:fedUpd], events.DefaultDelta, ds.Meta.End)
		ix := events.NewIndex(evs, ds.Meta.End)
		tail := writtenKeys(ix, flows[compacted:fedFlow])
		bound := writtenKeys(ix, flows[prevCompacted:compacted]) + tail
		if k == cuts/2 {
			bound += tail
		}
		t.Logf("cut %d/%d: %d copies for at most %d written keys", k, cuts, copies-prevCopies, bound)
		if got := copies - prevCopies; got > bound {
			t.Errorf("cut %d/%d: %d sub-aggregates copied since the previous snapshot, but the %d sealed and %d replayed records can write only %d keys",
				k, cuts, got, compacted-prevCompacted, int64(fedFlow)-compacted, bound)
		}
		prevCopies, prevCompacted = copies, compacted
	}
	if prevCopies == 0 {
		t.Error("online.cow_copies stayed 0: no snapshot ever shared state that was written afterwards")
	}

	snap := reg.Snapshot()
	hist := snap.Histograms["online.snapshot_latency_ms"]
	if hist.Count != cuts+1 {
		t.Fatalf("latency histogram holds %d snapshots, want %d", hist.Count, cuts+1)
	}
	var phasesNS int64
	for _, name := range []string{"online.snapshot.clone", "online.snapshot.replay", "online.snapshot.compose"} {
		tv, ok := snap.Timers[name]
		if !ok || tv.Count != hist.Count {
			t.Fatalf("%s: %d spans (registered: %v), want one per snapshot (%d)", name, tv.Count, ok, hist.Count)
		}
		phasesNS += tv.TotalNS
	}
	// The histogram truncates each snapshot to whole milliseconds.
	if totalNS := (hist.Sum + hist.Count) * int64(time.Millisecond); phasesNS > totalNS {
		t.Errorf("snapshot phases sum to %v, more than the %v the latency histogram accounts for",
			time.Duration(phasesNS), time.Duration(totalNS))
	}
}
