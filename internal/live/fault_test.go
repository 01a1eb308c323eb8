package live

import (
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/faultnet"
	"repro/internal/ipfix"
)

// waitCounter polls until fn returns true or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, fn func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !fn() {
		if !time.Now().Before(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSpeakerSurvivesKills drives updates through a session whose
// connections are killed and reset by a flapping-tcp plan, with the
// sequencer in the loop: every update must be delivered exactly once, in
// dispatch order, and every injected kill must be answered by exactly
// one reconnect.
func TestSpeakerSurvivesKills(t *testing.T) {
	const (
		peer = 64512
		n    = 300
	)
	plan := faultnet.NewPlan(21, faultnet.ProfileFlappingTCP)
	m := NewMetrics()
	var got []bgp.Prefix
	seq := NewSequencer(func(ts time.Time, p uint32, upd *bgp.Update) error {
		got = append(got, upd.NLRI...)
		return nil
	}, m)
	l, err := Listen("127.0.0.1:0", 65500, testSessionConfig(), Hooks{OnUpdate: seq.Arrive}, m)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	cfg := testSessionConfig()
	cfg.Wrap = plan.TCP(peer).Wrap
	sp := Dial(l.Addr(), peer, cfg, m)
	defer sp.Close()

	base := time.Unix(1_600_000_000, 0).UTC()
	for i := 0; i < n; i++ {
		pfx := bgp.Prefix{Addr: 0x0a000000 + uint32(i), Len: 32}
		_, enc := testUpdate(t, pfx, peer)
		seq.Sent(peer)
		if err := sp.Send(enc); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if err := seq.Release(base.Add(time.Duration(i)*time.Second), peer); err != nil {
			t.Fatalf("release %d: %v", i, err)
		}
	}
	if err := seq.Barrier(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	kills := plan.M.TCPKills.Value()
	if kills == 0 || plan.M.TCPResets.Value() == 0 {
		t.Fatalf("plan injected too little: kills=%d resets=%d (pick a hotter seed)",
			kills, plan.M.TCPResets.Value())
	}
	if int64(len(got)) != n {
		t.Fatalf("delivered %d updates, want %d", len(got), n)
	}
	for i, pfx := range got {
		if want := (bgp.Prefix{Addr: 0x0a000000 + uint32(i), Len: 32}); pfx != want {
			t.Fatalf("delivery %d: prefix %v, want %v (order broken across reconnects)", i, pfx, want)
		}
	}
	if sent, delivered := m.UpdatesSent.Value(), m.UpdatesDelivered.Value(); sent != delivered || sent != n {
		t.Fatalf("sent %d, delivered %d, want both %d", sent, delivered, n)
	}
	// The last kill's replacement session may still be handshaking.
	waitFor(t, 10*time.Second, "reconnects to catch up with kills", func() bool {
		return m.Reconnects.Value() >= plan.M.TCPKills.Value()
	})
	if rec := m.Reconnects.Value(); rec != kills {
		t.Fatalf("reconnects=%d, want exactly kills=%d", rec, kills)
	}
}

// TestExporterChaosAccounting streams records through a lossy-udp plan
// and reconciles the collector's sequence-gap accounting against the
// injected faults, record for record.
func TestExporterChaosAccounting(t *testing.T) {
	const n = 20_000
	plan := faultnet.NewPlan(4, faultnet.ProfileLossyUDP)
	m := NewMetrics()
	collected := 0
	// WAN-sized datagrams: ~740 of them, enough for the plan to inject
	// every kind of fault; loopback-sized ones would be 15.
	exp, col := newLoopbackPair(t, 0, 1400, func(b *ipfix.RecordBatch) error {
		collected += b.Len()
		return nil
	}, m)
	if err := exp.SetFault(plan.UDP()); err != nil {
		t.Fatal(err)
	}

	if err := exp.ExportBatch(flowBatch(n)); err != nil {
		t.Fatal(err)
	}
	if err := exp.Flush(); err != nil {
		t.Fatal(err)
	}
	// Tail losses only surface via Sync; retry until the collector has
	// accounted for every exported record.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := exp.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := col.Drain(exp.Exported(), 100*time.Millisecond); err == nil {
			break
		} else if !time.Now().Before(deadline) {
			t.Fatal(err)
		}
	}

	f := plan.M
	if f.DroppedDatagrams.Value() == 0 || f.Duplicated.Value() == 0 || f.ReorderHolds.Value() == 0 {
		t.Fatalf("plan injected too little: drops=%d dups=%d reorders=%d",
			f.DroppedDatagrams.Value(), f.Duplicated.Value(), f.ReorderHolds.Value())
	}
	if m.DecodeErrors.Value() != 0 {
		t.Fatalf("%d decode errors (templates must ride every message under chaos)", m.DecodeErrors.Value())
	}
	if m.DroppedDatagrams.Value() != 0 {
		t.Fatalf("%d datagrams shed at the ingest queue; accounting equations assume none", m.DroppedDatagrams.Value())
	}
	wantDropped := f.DroppedRecords.Value() + f.ReorderLateRecords.Value()
	if got := m.DroppedRecords.Value(); got != wantDropped {
		t.Fatalf("collector accounted %d dropped records, want injected %d (+%d late reorders)",
			got, f.DroppedRecords.Value(), f.ReorderLateRecords.Value())
	}
	wantLate := f.Duplicated.Value() + f.ReorderLateDatagrams.Value()
	if got := m.LateMsgs.Value(); got != wantLate {
		t.Fatalf("collector saw %d late messages, want %d dups + %d late reorders",
			got, f.Duplicated.Value(), f.ReorderLateDatagrams.Value())
	}
	if got, want := int64(collected), int64(n)-wantDropped; got != want {
		t.Fatalf("collected %d records, want %d (%d exported - %d lost)", got, want, n, wantDropped)
	}
	if m.CollectedRecords.Value() != int64(collected) {
		t.Fatalf("CollectedRecords=%d, sink saw %d", m.CollectedRecords.Value(), collected)
	}
}

// TestRunnerChaosDrainPartition exercises the full runner path under
// partition-heal: tail windows of datagrams vanish and only the Sync
// loop lets the drain terminate with exact accounting.
func TestRunnerChaosDrainPartition(t *testing.T) {
	plan := faultnet.NewPlan(5, faultnet.ProfilePartitionHeal)
	m := NewMetrics()
	collected := 0
	exp, col := newLoopbackPair(t, 0, 0, func(b *ipfix.RecordBatch) error {
		collected += b.Len()
		return nil
	}, m)
	if err := exp.SetFault(plan.UDP()); err != nil {
		t.Fatal(err)
	}

	const n = 3000
	if err := exp.ExportBatch(flowBatch(n)); err != nil {
		t.Fatal(err)
	}
	if err := exp.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := exp.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := col.Drain(exp.Exported(), 100*time.Millisecond); err == nil {
			break
		} else if !time.Now().Before(deadline) {
			t.Fatal(err)
		}
	}
	if plan.M.Partitions.Value() == 0 {
		t.Fatal("no partition opened")
	}
	if got, want := m.DroppedRecords.Value(), plan.M.DroppedRecords.Value(); got != want {
		t.Fatalf("accounted %d dropped records, injected %d", got, want)
	}
	if int64(collected)+m.DroppedRecords.Value() != int64(n) {
		t.Fatalf("collected %d + dropped %d != exported %d", collected, m.DroppedRecords.Value(), n)
	}
}
