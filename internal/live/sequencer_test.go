package live

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/bgp"
)

// TestSequencerRestoresTotalOrder registers an interleaved expectation
// stream for three peers, then delivers each peer's updates from its own
// goroutine (per-peer order preserved, global order scrambled) and
// checks deliveries replay the registration order with the registered
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
		s.Expect(ts, p)
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

// TestSequencerUnexpectedArrival fails fast on an update nobody
// registered.
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

// TestSequencerBarrierTimeout times out when an expected update never
// arrives.
func TestSequencerBarrierTimeout(t *testing.T) {
	s := NewSequencer(func(time.Time, uint32, *bgp.Update) error { return nil }, nil)
	s.Expect(time.Unix(0, 0), 100)
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
	s.Expect(time.Unix(0, 0), 100)
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
	s.Expect(time.Unix(0, 0), 100)
	s.Arrive(100, &bgp.Update{})
	if err := s.Barrier(time.Second); err == nil {
		t.Fatal("delivery error not surfaced")
	}
}
