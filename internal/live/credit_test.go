package live

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/faultnet"
	"repro/internal/ipfix"
)

// pacedRunner starts a runner whose only traffic is the flow stream, with
// sink as its collector's sink; cfg's session timers are the tests'.
func pacedRunner(t *testing.T, ctx context.Context, cfg RunnerConfig, m *Metrics, sink ipfix.BatchSink) *Runner {
	t.Helper()
	cfg.Session = testSessionConfig()
	r, err := NewRunner(ctx, cfg, m, func(time.Time, uint32, *bgp.Update) error { return nil }, nil, sink)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Shutdown() })
	return r
}

// TestRunnerPacesSlowSink exports 40 full messages into a two-datagram
// queue whose sink sleeps on every batch. Paced on collector credit, the
// exporter never overruns the queue: nothing is shed, every record is
// collected in export order, and the queue's high water stays within its
// length. The credit_wait timer holds the time the exporter was held
// back: at least half of what the sink slept beyond the window, at most
// the export's wall time, and nothing at all when the sink keeps up.
func TestRunnerPacesSlowSink(t *testing.T) {
	const queueLen, msgs, nap = 2, 40, time.Millisecond
	m := NewMetrics()
	next, mismatches := 0, 0
	r := pacedRunner(t, t.Context(), RunnerConfig{QueueLen: queueLen}, m, func(b *ipfix.RecordBatch) error {
		time.Sleep(nap)
		for _, rec := range b.Recs {
			if rec != flowRec(next) {
				mismatches++
			}
			next++
		}
		return nil
	})

	n := msgs * ipfix.MaxRecords(MaxDatagram, true)
	start := time.Now()
	if err := r.ExportFlowBatch(flowBatch(n)); err != nil {
		t.Fatal(err)
	}
	exportWall := time.Since(start)
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := r.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if d := m.DroppedDatagrams.Value(); d != 0 {
		t.Fatalf("dropped_datagrams = %d, want 0 under pacing", d)
	}
	if next != n || mismatches != 0 || m.CollectedRecords.Value() != int64(n) {
		t.Fatalf("collected %d of %d records, %d out of order or altered", next, n, mismatches)
	}
	if hw := m.QueueHighWater.Value(); hw > queueLen {
		t.Fatalf("queue high water %d, want at most the queue length %d", hw, queueLen)
	}

	window := creditMsgs(queueLen, false)
	waited, spans := m.CreditWait.Total(), m.CreditWait.CountSpans()
	t.Logf("%d credit waits, %v in all, over a %v export", spans, waited, exportWall)
	if floor := time.Duration(msgs-window-2) * nap / 2; spans == 0 || waited < floor || waited > exportWall {
		t.Fatalf("credit_wait: %d spans, %v in all; want some, between %v and the export's %v",
			spans, waited, floor, exportWall)
	}

	// A sink with nothing to do behind a default queue: the stream fits
	// the window, so the exporter never waits.
	idle := NewMetrics()
	r2 := pacedRunner(t, t.Context(), RunnerConfig{}, idle, func(*ipfix.RecordBatch) error { return nil })
	if err := r2.ExportFlowBatch(flowBatch(n)); err != nil {
		t.Fatal(err)
	}
	if err := r2.Drain(); err != nil {
		t.Fatal(err)
	}
	if spans := idle.CreditWait.CountSpans(); spans != 0 || idle.CollectedRecords.Value() != int64(n) {
		t.Fatalf("idle sink: %d credit waits, %d of %d records collected; want none and all",
			spans, idle.CollectedRecords.Value(), n)
	}
}

// TestRunnerPacesSlowSinkUnderLoss runs the slow-sink stream under the
// lossy-udp profile: a datagram lost on the wire returns its credit
// through gap accounting (revealed by a Sync when the collector falls
// idle), so the export neither hangs nor loses count.
func TestRunnerPacesSlowSinkUnderLoss(t *testing.T) {
	const queueLen, msgs = 2, 40
	plan := faultnet.NewPlan(3, faultnet.ProfileLossyUDP)
	m := NewMetrics()
	var collected int64
	r := pacedRunner(t, t.Context(), RunnerConfig{QueueLen: queueLen, DrainTimeout: 5 * time.Second, Fault: plan}, m,
		func(b *ipfix.RecordBatch) error {
			time.Sleep(500 * time.Microsecond)
			collected += int64(b.Len())
			return nil
		})

	n := msgs * ipfix.MaxRecords(MaxDatagram, true)
	start := time.Now()
	if err := r.ExportFlowBatch(flowBatch(n)); err != nil {
		t.Fatal(err)
	}
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("export and drain took %v, longer than DrainTimeout", took)
	}
	if err := r.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if plan.M.DroppedDatagrams.Value() == 0 {
		t.Fatal("the plan dropped no datagram (pick another seed)")
	}
	if got := collected + m.DroppedRecords.Value(); got != int64(n) || m.ExportedRecords.Value() != int64(n) {
		t.Fatalf("collected %d + dropped %d = %d, exported %d of %d",
			collected, m.DroppedRecords.Value(), got, m.ExportedRecords.Value(), n)
	}
}

// TestRunnerPaceFailsOnSinkError fails the sink mid-stream: the exporter
// waiting for credit that can no longer come returns the sink's error at
// once, not after DrainTimeout.
func TestRunnerPaceFailsOnSinkError(t *testing.T) {
	const timeout = 5 * time.Second
	errSink := errors.New("archive full")
	batches := 0
	r := pacedRunner(t, t.Context(), RunnerConfig{QueueLen: 2, DrainTimeout: timeout}, NewMetrics(),
		func(*ipfix.RecordBatch) error {
			if batches++; batches == 5 {
				return errSink
			}
			return nil
		})

	start := time.Now()
	err := r.ExportFlowBatch(flowBatch(40 * ipfix.MaxRecords(MaxDatagram, true)))
	if !errors.Is(err, errSink) {
		t.Fatalf("ExportFlowBatch = %v, want the sink's error", err)
	}
	if took := time.Since(start); took >= timeout {
		t.Fatalf("the sink error surfaced after %v, want within the %v DrainTimeout", took, timeout)
	}
}

// TestRunnerPaceStopsOnCancel blocks the sink, so credit stops, and
// cancels the run's context: the waiting export returns the context's
// error at once. Once the sink is released the drain still flushes and
// accounts every exported record. A sink that stays blocked with nothing
// cancelled ends the wait after DrainTimeout instead.
func TestRunnerPaceStopsOnCancel(t *testing.T) {
	const timeout = 5 * time.Second
	ctx, cancel := context.WithCancel(t.Context())
	m := NewMetrics()
	entered, release := make(chan struct{}), make(chan struct{})
	first := true
	r := pacedRunner(t, ctx, RunnerConfig{QueueLen: 2, DrainTimeout: timeout}, m, func(*ipfix.RecordBatch) error {
		if first {
			first = false
			close(entered)
			<-release
		}
		return nil
	})
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})

	go func() {
		<-entered
		time.Sleep(10 * time.Millisecond) // let the export block on credit
		cancel()
	}()
	start := time.Now()
	err := r.ExportFlowBatch(flowBatch(40 * ipfix.MaxRecords(MaxDatagram, true)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ExportFlowBatch = %v, want context.Canceled", err)
	}
	if took := time.Since(start); took >= timeout {
		t.Fatalf("the cancellation surfaced after %v, want within the %v DrainTimeout", took, timeout)
	}
	close(release)
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := r.Reconcile(); err != nil {
		t.Fatal(err)
	}

	// Blocked for good, nothing cancelled: the wait gives up after
	// DrainTimeout.
	const short = 100 * time.Millisecond
	stuck := make(chan struct{})
	defer close(stuck)
	r2 := pacedRunner(t, t.Context(), RunnerConfig{QueueLen: 2, DrainTimeout: short}, NewMetrics(),
		func(*ipfix.RecordBatch) error { <-stuck; return nil })
	start = time.Now()
	if err := r2.ExportFlowBatch(flowBatch(40 * ipfix.MaxRecords(MaxDatagram, true))); err == nil {
		t.Fatal("ExportFlowBatch into a stuck sink succeeded")
	}
	if took := time.Since(start); took < short || took > 20*short {
		t.Fatalf("the stuck export gave up after %v, want about the %v DrainTimeout", took, short)
	}
}
