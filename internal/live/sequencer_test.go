package live

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bgp"
)

// TestSequencerRestoresTotalOrder sends and releases an interleaved
// stream for three peers, then delivers each peer's updates from its own
// goroutine (per-peer order preserved, global order scrambled) and
// checks deliveries replay the release order with the released
// timestamps.
func TestSequencerRestoresTotalOrder(t *testing.T) {
	type delivered struct {
		ts   time.Time
		peer uint32
	}
	var got []delivered
	m := NewMetrics()
	s := NewSequencer(func(ts time.Time, peer uint32, upd *bgp.Update) error {
		got = append(got, delivered{ts, peer})
		return nil
	}, m)

	peers := []uint32{100, 200, 300}
	base := time.Unix(1000, 0)
	var want []delivered
	perPeer := make(map[uint32]int)
	for i := 0; i < 300; i++ {
		p := peers[i%len(peers)]
		ts := base.Add(time.Duration(i) * time.Second)
		s.Sent(p)
		if err := s.Release(ts, p); err != nil {
			t.Fatal(err)
		}
		want = append(want, delivered{ts, p})
		perPeer[p]++
	}

	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func(p uint32, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				s.Arrive(p, &bgp.Update{})
			}
		}(p, perPeer[p])
	}
	wg.Wait()

	if err := s.Barrier(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("delivered %d updates, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after barrier", s.Pending())
	}
	if m.UpdatesDelivered.Value() != int64(len(want)) {
		t.Fatalf("updates_delivered = %d, want %d", m.UpdatesDelivered.Value(), len(want))
	}
}

// TestSequencerUnexpectedArrival fails fast on an update nobody sent.
func TestSequencerUnexpectedArrival(t *testing.T) {
	s := NewSequencer(func(time.Time, uint32, *bgp.Update) error { return nil }, nil)
	s.Arrive(999, &bgp.Update{})
	if s.Err() == nil {
		t.Fatal("unexpected arrival not flagged")
	}
	if err := s.Barrier(time.Second); err == nil {
		t.Fatal("barrier ignored the sequencer failure")
	}
}

// TestSequencerBarrierTimeout times out when a released update never
// arrives.
func TestSequencerBarrierTimeout(t *testing.T) {
	s := NewSequencer(func(time.Time, uint32, *bgp.Update) error { return nil }, nil)
	s.Sent(100)
	if err := s.Release(time.Unix(0, 0), 100); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := s.Barrier(50 * time.Millisecond)
	if err == nil {
		t.Fatal("barrier returned without the expected delivery")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("barrier severely overshot its timeout")
	}
}

// TestBarrierIdleDoesNotAllocate pins the barrier's fast path: the driver
// calls it before every injected batch, and with no update in flight it
// returns at once without arming a deadline timer.
func TestBarrierIdleDoesNotAllocate(t *testing.T) {
	s := NewSequencer(func(time.Time, uint32, *bgp.Update) error { return nil }, nil)
	s.Sent(100)
	if err := s.Release(time.Unix(0, 0), 100); err != nil {
		t.Fatal(err)
	}
	s.Arrive(100, &bgp.Update{})
	allocs := testing.AllocsPerRun(1000, func() {
		if err := s.Barrier(time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("idle barrier allocates %v times per call, want 0", allocs)
	}
}

// TestSequencerDeliveryError propagates a route-server failure to the
// driver via Barrier.
func TestSequencerDeliveryError(t *testing.T) {
	s := NewSequencer(func(time.Time, uint32, *bgp.Update) error {
		return fmt.Errorf("route server said no")
	}, nil)
	s.Sent(100)
	if err := s.Release(time.Unix(0, 0), 100); err != nil {
		t.Fatal(err)
	}
	s.Arrive(100, &bgp.Update{})
	if err := s.Barrier(time.Second); err == nil {
		t.Fatal("delivery error not surfaced")
	}
}

// TestReleaseDeliversArrivedOnCaller sends an update ahead, lets it
// arrive before its turn — it waits, undelivered — and releases it: the
// release delivers it on the releasing goroutine, so no goroutine wakes,
// and the barrier behind it neither waits nor arms a timer.
func TestReleaseDeliversArrivedOnCaller(t *testing.T) {
	m := NewMetrics()
	var on []byte
	s := NewSequencer(func(time.Time, uint32, *bgp.Update) error {
		on = goroutineID()
		return nil
	}, m)
	s.Sent(100)
	s.Arrive(100, &bgp.Update{})
	if n := m.UpdatesDelivered.Value(); n != 0 || on != nil {
		t.Fatalf("an unreleased update was delivered (%d deliveries)", n)
	}
	if err := s.Release(time.Unix(0, 0), 100); err != nil {
		t.Fatal(err)
	}
	if n := m.UpdatesDelivered.Value(); n != 1 {
		t.Fatalf("release of an arrived update left %d deliveries, want 1", n)
	}
	if self := goroutineID(); !bytes.Equal(on, self) {
		t.Fatalf("delivered on %s, released on %s", on, self)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.Barrier(time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || m.BarrierWait.CountSpans() != 0 {
		t.Fatalf("barrier after the release allocated %v times and waited %d times, want neither",
			allocs, m.BarrierWait.CountSpans())
	}
}

// goroutineID returns the calling goroutine's "goroutine N" header.
func goroutineID() []byte {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return buf[:bytes.IndexByte(buf, '[')]
}
