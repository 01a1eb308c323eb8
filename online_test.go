package rtbh_test

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rtbh "repro"
	"repro/internal/analysis"
	"repro/internal/analysis/events"
	"repro/internal/analysis/mitigation"
	"repro/internal/analysis/pipeline"
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
	return onlineTestWorld(t, "")
}

// onlineTestWorld is onlineTestDataset under a mitigation policy.
func onlineTestWorld(t *testing.T, policy string) (*rtbh.Dataset, []rtbh.FlowRecord) {
	t.Helper()
	dir, err := os.MkdirTemp("", "rtbh-online-*")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	cfg := rtbh.TestConfig()
	cfg.Seed = 0x0B5E55ED
	cfg.MitigationPolicy = policy
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
	for _, b := range flowBatches(flows, flowChunk) {
		a.ObserveFlowBatch(b)
	}
}

// flowBatches cuts flows into batches of size records (the last one
// shorter), sharing its storage.
func flowBatches(flows []rtbh.FlowRecord, size int) []*ipfix.RecordBatch {
	var out []*ipfix.RecordBatch
	for len(flows) > 0 {
		n := min(size, len(flows))
		out = append(out, &ipfix.RecordBatch{Recs: flows[:n]})
		flows = flows[n:]
	}
	return out
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
	// The snapshots replay their tail through the lanes (the default); the
	// batch references run the inline pass.
	snapOpts := opts
	snapOpts.Workers = 0

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

		snap, err := a.Snapshot(snapOpts)
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

// TestOnlineSnapshotCutPointsEscalate replays the escalate world the way
// the live path delivers it: RTBH and FlowSpec updates interleaved with
// the flow records in time order, 32 records a batch, so seal checks run
// between FlowSpec updates and the view they attribute against is
// extended in place under the pipeline's FlowSpec cursor. At six cut
// points the snapshot must render byte-identical to a cold batch analysis
// of the updates, FlowSpec updates and records fed so far.
func TestOnlineSnapshotCutPointsEscalate(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a test-scale world and analyzes several prefixes of it")
	}
	ds, flows := onlineTestWorld(t, "escalate")
	if len(ds.FlowUpdates) == 0 {
		t.Fatal("the escalate world archived no FlowSpec update")
	}
	opts := onlineTestOpts()
	snapOpts := opts
	snapOpts.Workers = 0

	reg := obs.NewRegistry()
	a := rtbh.NewOnlineAnalyzer(ds.Meta)
	a.RegisterMetrics(reg)
	fedUpd, fedFS, sealedFS := 0, 0, 0
	// feedUntil hands a every update not after at, the two streams merged
	// in time order.
	feedUntil := func(at time.Time) {
		for {
			upd := fedUpd < len(ds.Updates) && !ds.Updates[fedUpd].Time.After(at)
			fs := fedFS < len(ds.FlowUpdates) && !ds.FlowUpdates[fedFS].Time.After(at)
			switch {
			case upd && (!fs || !ds.FlowUpdates[fedFS].Time.Before(ds.Updates[fedUpd].Time)):
				a.ObserveControl(ds.Updates[fedUpd])
				fedUpd++
			case fs:
				a.ObserveFlowSpec(ds.FlowUpdates[fedFS])
				fedFS++
			default:
				return
			}
		}
	}
	const cuts = 6
	batches := flowBatches(flows, flowChunk)
	fedFlow := 0
	for k := 1; k <= cuts; k++ {
		for _, b := range batches[len(batches)*(k-1)/cuts : len(batches)*k/cuts] {
			last := b.Recs[0].Start
			for _, r := range b.Recs {
				if r.Start.After(last) {
					last = r.Start
				}
			}
			feedUntil(last)
			a.ObserveFlowBatch(b)
			fedFlow += b.Len()
			if reg.Snapshot().Counter("online.records_compacted") > 0 && sealedFS == 0 {
				sealedFS = fedFS // FlowSpec updates the view held at the first seal
			}
		}
		if k == cuts {
			feedUntil(ds.Meta.End.Add(time.Hour))
		}

		snap, err := a.Snapshot(snapOpts)
		if err != nil {
			t.Fatalf("cut %d/%d: snapshot: %v", k, cuts, err)
		}
		ref := rtbh.NewDataset(ds.Meta, ds.Updates[:fedUpd], flows[:fedFlow])
		ref.FlowUpdates = ds.FlowUpdates[:fedFS]
		batch, err := ref.Analyze(opts)
		if err != nil {
			t.Fatalf("cut %d/%d: batch reference: %v", k, cuts, err)
		}
		got, want := renderSnapshot(t, snap), renderSnapshot(t, batch)
		if !bytes.Equal(got, want) {
			gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
			for i := range wantLines {
				if i >= len(gotLines) || !bytes.Equal(gotLines[i], wantLines[i]) {
					t.Fatalf("cut %d/%d (%d updates, %d FlowSpec updates, %d flows): snapshot diverges from batch at line %d:\nbatch:  %s\nonline: %s",
						k, cuts, fedUpd, fedFS, fedFlow, i+1, wantLines[i], gotLines[i])
				}
			}
			t.Fatalf("cut %d/%d: snapshot has %d extra lines", k, cuts, len(gotLines)-len(wantLines))
		}
		if k == cuts && snap.Table5.Rows[mitigation.PhaseFlowSpec].Prefixes == 0 {
			t.Fatal("the final snapshot measured no FlowSpec prefix; the comparison is vacuous")
		}
	}
	// The view must have grown after sealing began, or no cursor memo was
	// ever put to the test.
	if sealedFS == 0 || sealedFS == len(ds.FlowUpdates) {
		t.Fatalf("the FlowSpec view held %d of %d updates at the first seal; want a view that grows while records seal",
			sealedFS, len(ds.FlowUpdates))
	}
}

// TestOnlineIngestChunkBoundaries feeds the cut-point test's stream in
// batches of one record, one short of a pending chunk, exactly one, one
// more and several chunks and a bit, so that batch ends, seals and
// snapshots land inside a chunk, on its boundary and across several. The
// first snapshot is taken with a whole number of chunks fed, the second
// after the last record; each must render byte-identical to the batch
// analysis of the prefix, and whatever the batch length the pending FIFO
// may hold no more chunks than its unsealed records need, plus the partly
// sealed one at its head: a sealed chunk goes back to the pool at the seal
// that empties it.
func TestOnlineIngestChunkBoundaries(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a test-scale world and replays it five times")
	}
	ds, flows := onlineTestDataset(t)
	opts := onlineTestOpts()

	probe := rtbh.NewOnlineAnalyzer(ds.Meta)
	probe.ObserveFlowBatch(&ipfix.RecordBatch{Recs: flows[:1]})
	_, chunkCap, _ := probe.PendingState()
	if chunkCap < 2 || len(flows) < 8*chunkCap {
		t.Fatalf("chunks of %d records against a stream of %d: nothing to cut", chunkCap, len(flows))
	}

	type cut struct {
		updates, flows int
		want           []byte
	}
	half := len(flows) / 2 / chunkCap * chunkCap // a chunk boundary
	cuts := []*cut{{updates: len(ds.Updates) / 2, flows: half}, {updates: len(ds.Updates), flows: len(flows)}}
	for _, c := range cuts {
		batch, err := rtbh.NewDataset(ds.Meta, ds.Updates[:c.updates], flows[:c.flows]).Analyze(opts)
		if err != nil {
			t.Fatalf("batch reference over %d flows: %v", c.flows, err)
		}
		c.want = renderSnapshot(t, batch)
	}

	for _, size := range []int{1, chunkCap - 1, chunkCap, chunkCap + 1, 3*chunkCap + 7} {
		reg := obs.NewRegistry()
		a := rtbh.NewOnlineAnalyzer(ds.Meta)
		a.RegisterMetrics(reg)
		fedUpd, fedFlow, released := 0, 0, false
		for _, c := range cuts {
			for ; fedUpd < c.updates; fedUpd++ {
				a.ObserveControl(ds.Updates[fedUpd])
			}
			for i, b := range flowBatches(flows[fedFlow:c.flows], size) {
				a.ObserveFlowBatch(b)
				if size == 1 && i%61 != 0 {
					continue // the state moves once per 4,096 records; sample the calls
				}
				chunks, _, retained := a.PendingState()
				if limit := (int(retained)+chunkCap-1)/chunkCap + 1; chunks > limit {
					t.Fatalf("batches of %d: %d chunks pending for %d unsealed records, want at most %d", size, chunks, retained, limit)
				}
				released = released || int(retained) < fedFlow+(i+1)*size-chunkCap
			}
			fedFlow = c.flows

			snap, err := a.Snapshot(opts)
			if err != nil {
				t.Fatalf("batches of %d, %d flows: snapshot: %v", size, c.flows, err)
			}
			if got := renderSnapshot(t, snap); !bytes.Equal(got, c.want) {
				t.Fatalf("batches of %d: snapshot over %d flows diverges from the batch analysis (%d vs %d bytes)", size, c.flows, len(got), len(c.want))
			}
			chunks, _, retained := a.PendingState()
			if gauge := reg.Snapshot().Gauge("online.retained_flows"); gauge != retained {
				t.Fatalf("batches of %d: online.retained_flows = %d with %d records unsealed", size, gauge, retained)
			}
			if limit := (int(retained)+chunkCap-1)/chunkCap + 1; chunks > limit {
				t.Fatalf("batches of %d: %d chunks pending after the snapshot for %d unsealed records, want at most %d", size, chunks, retained, limit)
			}
		}
		if !released {
			t.Fatalf("batches of %d: no seal ever released a chunk; the bound was never tested", size)
		}
	}
}

// TestOnlineIngestAllocs bounds what ingest itself allocates — the pending
// FIFO, the control-plane view, the seal machinery — on top of the operator
// state its records grow. The whole ingest of the cut-point test's stream,
// control updates interleaved in timestamp order, is measured against a
// bare speculative pipeline observing the same sealed records under the
// final view, which allocates what the operators need for them (on this
// small world most of one allocation per record: wide gates profile every
// external host). The difference must stay below 0.1 allocations and 80
// bytes per record. Rebuilding the view at every seal check read 0.95
// allocations, and a pending buffer that grows by append about six
// record-sizes of memory per record.
//
// The operators' own allocations are bounded too, at 0.62 per record: 0.515
// measured plus a fifth. Before small host candidates became records in
// the hosts table they took 0.876.
func TestOnlineIngestAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a test-scale world")
	}
	ds, flows := onlineTestDataset(t)
	batches := flowBatches(flows, 1000)
	measure := func(fn func()) (mallocs, bytes float64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
	}

	// Sealing goes through the lanes only with a second processor to run
	// them on: the bound below is about what starting them costs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	reg := obs.NewRegistry()
	a := rtbh.NewOnlineAnalyzer(ds.Meta)
	a.RegisterMetrics(reg)
	ingest, ingestBytes := measure(func() { rtbh.IngestInterleaved(a, ds, batches) })
	snap := reg.Snapshot()
	sealed := snap.Counter("online.records_compacted")
	if sealed < int64(len(flows))/2 {
		t.Fatalf("only %d of %d records sealed: the comparison covers too little of the stream", sealed, len(flows))
	}
	if merged, retained := snap.Counter("online.control.merged_updates"), snap.Gauge("online.retained_updates"); merged != retained {
		t.Errorf("online.control.merged_updates = %d for %d retained updates: the view was not extended update by update", merged, retained)
	}

	evs := events.Merge(ds.Updates, events.DefaultDelta, ds.Meta.End)
	p, err := pipeline.NewSpeculative(ds.Meta)
	if err != nil {
		t.Fatal(err)
	}
	p.Rebind(evs, events.NewIndex(evs, ds.Meta.End))
	operators, operatorBytes := measure(func() { p.ObserveRecords(flows[:sealed]) })

	n := float64(len(flows))
	t.Logf("ingest of %d records: %.3f allocs/record and %.0f B/record, the operators alone %.3f allocs/record and %.0f B/record over the %d sealed",
		len(flows), ingest/n, ingestBytes/n, operators/n, operatorBytes/n, sealed)
	if ops := operators / n; ops > 0.62 {
		t.Fatalf("the operators allocate %.3f times per record, want <= 0.62", ops)
	}
	if own := (ingest - operators) / n; own > 0.1 {
		t.Fatalf("ingest allocates %.3f allocs/record beyond its operators, want <= 0.1", own)
	}
	// Beyond its operators ingest keeps the control stream, its event view
	// and the pooled chunks: ~50 B/record. Sealing lanes that allocated
	// their ring (16 x 2,048 side entries of 16 B) at every check that seals
	// would add ~70 more.
	if own := (ingestBytes - operatorBytes) / n; own > 80 {
		t.Fatalf("ingest allocates %.0f B/record beyond its operators, want <= 80", own)
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
	if tailReplaysAgree(t, ds, flows, 8) == 0 {
		t.Fatal("no cut point had both sealed state and an unsealed tail; the comparison was vacuous")
	}
}

// tailReplaysAgree streams ds into a fresh online analyzer and at each of
// cuts cut points demands that the two replays of TailReplayStates
// finalize to the same bytes. It returns how many cut points had both
// sealed state and an unsealed tail.
func tailReplaysAgree(t *testing.T, ds *rtbh.Dataset, flows []rtbh.FlowRecord, cuts int) (sealedAndTail int) {
	t.Helper()
	reg := obs.NewRegistry()
	a := rtbh.NewOnlineAnalyzer(ds.Meta)
	a.RegisterMetrics(reg)
	fedUpd, fedFlow := 0, 0
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
			t.Fatalf("cut %d/%d: the frozen clone's replay through the lanes finalizes to %d bytes that differ from the speculative inline replay's %d",
				k, cuts, len(frozen), len(wide))
		}
		snap := reg.Snapshot()
		if snap.Counter("online.records_compacted") > 0 && snap.Gauge("online.retained_flows") > 0 {
			sealedAndTail++
		}
	}
	return sealedAndTail
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
// timers, the copy-on-write counter and the merged-updates counter against
// what they are parts of, in the style of TestGoldenEndToEnd. The seal
// checks ingest ran are timed, one span each. Clone, replay and compose are timed
// once per snapshot (federation ticks included) and sum to no more than
// the latency histogram's total. And sharing is paid per key, not per
// snapshot: between two snapshots the sealed side and the new snapshot's
// clone together copy no more sub-aggregates than the distinct keys the
// records they observed in between can write — the sealed side observed
// what was compacted since the previous snapshot, the clone the tail.
// The pending-cells gauge equals the cells a batch pass over the same
// control prefix keeps for the records sealed so far, and the two host
// gauges equal the candidates, and the promoted ones among them, of a
// speculative pass over those records.
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
		// Every control update is folded into the event view exactly once,
		// not once per seal check: the count that proves incrementality.
		if merged, retained := snap.Counter("online.control.merged_updates"), snap.Gauge("online.retained_updates"); merged != retained || retained != int64(fedUpd) {
			t.Errorf("cut %d/%d: online.control.merged_updates = %d, online.retained_updates = %d, want both %d", k, cuts, merged, retained, fedUpd)
		}

		batch, err := pipeline.New(ds.Meta, ds.Updates[:fedUpd], events.DefaultDelta)
		if err != nil {
			t.Fatal(err)
		}
		batch.ObserveRecords(flows[:compacted])
		cells := snap.Gauge("online.pending_cells")
		if want := int64(batch.PendingCells()); cells != want {
			t.Errorf("cut %d/%d: online.pending_cells = %d, a batch pass over the %d sealed records holds %d", k, cuts, cells, compacted, want)
		}

		evs := events.Merge(ds.Updates[:fedUpd], events.DefaultDelta, ds.Meta.End)
		ix := events.NewIndex(evs, ds.Meta.End)
		spec, err := pipeline.NewSpeculative(ds.Meta)
		if err != nil {
			t.Fatal(err)
		}
		spec.Rebind(evs, ix)
		spec.ObserveRecords(flows[:compacted])
		if got, want := snap.Gauge("online.hosts"), int64(spec.Hosts.Hosts()); got != want {
			t.Errorf("cut %d/%d: online.hosts = %d, a speculative pass over the %d sealed records holds %d", k, cuts, got, compacted, want)
		}
		if got, want := snap.Gauge("online.hosts_promoted"), int64(spec.Hosts.Promoted()); got != want {
			t.Errorf("cut %d/%d: online.hosts_promoted = %d, a speculative pass over the %d sealed records promotes %d", k, cuts, got, compacted, want)
		}
		tail := writtenKeys(ix, flows[compacted:fedFlow])
		bound := writtenKeys(ix, flows[prevCompacted:compacted]) + tail
		if k == cuts/2 {
			bound += tail
		}
		t.Logf("cut %d/%d: %d copies for at most %d written keys, %d pending cells, %d hosts (%d promoted)",
			k, cuts, copies-prevCopies, bound, cells, snap.Gauge("online.hosts"), snap.Gauge("online.hosts_promoted"))
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
	// Nothing contends for the operator state here, so every crossing of a
	// sealCheckEvery multiple ran its check on the ingest goroutine.
	if seal, want := snap.Timers["online.seal"], int64(len(flows)/4096); seal.Count != want {
		t.Errorf("online.seal holds %d spans, want one per 4,096 records ingested (%d)", seal.Count, want)
	}
}
