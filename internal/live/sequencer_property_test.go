package live

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bgp"
	"repro/internal/stats"
)

// seqSchedule is one seeded send-ahead workload: update i goes to
// peer[i] and is released with timestamp base+i seconds. The driver sends
// in index order and releases in index order, each send at or before its
// release; how far sends run ahead varies along the schedule, from
// send-and-release at once to a whole "day" sent first.
type seqSchedule struct {
	peers int
	peer  []uint32
	// ahead[k] is true when the driver's k-th step is a send, false when
	// it is a release.
	ahead []bool
}

var seqBase = time.Unix(1_600_000_000, 0).UTC()

func newSeqSchedule(rng *stats.RNG) seqSchedule {
	sc := seqSchedule{peers: 2 + rng.Intn(6)}
	n := 20 + rng.Intn(230)
	lead := rng.Float64() // how eagerly sends run ahead of releases
	for i := 0; i < n; i++ {
		sc.peer = append(sc.peer, uint32(rng.Intn(sc.peers)))
	}
	sent, released := 0, 0
	for released < n {
		send := sent < n && (sent == released || rng.Bool(lead))
		sc.ahead = append(sc.ahead, send)
		if send {
			sent++
		} else {
			released++
		}
	}
	return sc
}

// update returns update i: its NLRI names it, so a delivery identifies
// the arrival it was matched to.
func (sc seqSchedule) update(i int) *bgp.Update {
	return &bgp.Update{NLRI: []bgp.Prefix{{Addr: uint32(i), Len: 32}}}
}

func (sc seqSchedule) ts(i int) time.Time { return seqBase.Add(time.Duration(i) * time.Second) }

// delivery is one call of the sequencer's deliver.
type delivery struct {
	ts   time.Time
	peer uint32
	id   uint32
}

// check reports whether got is exactly the first n releases, in release
// order, with the released timestamps and each peer's own updates.
func (sc seqSchedule) check(t *testing.T, seed uint64, got []delivery, n int) bool {
	t.Helper()
	if len(got) != n {
		t.Logf("seed %d: delivered %d of %d released", seed, len(got), n)
		return false
	}
	for i, d := range got {
		if want := (delivery{sc.ts(i), sc.peer[i], uint32(i)}); d != want {
			t.Logf("seed %d: delivery %d = %+v, want %+v (release order violated)", seed, i, d, want)
			return false
		}
	}
	return true
}

func recordingSequencer(got *[]delivery, m *Metrics) *Sequencer {
	return NewSequencer(func(ts time.Time, peer uint32, upd *bgp.Update) error {
		// deliver runs one at a time, in global order, with the
		// sequencer's lock held; no extra synchronization needed.
		*got = append(*got, delivery{ts, peer, upd.NLRI[0].Addr})
		return nil
	}, m)
}

// TestSequencerTotalOrderProperty is a quick.Check property over seeded
// send-ahead schedules: sends, releases and per-peer arrivals, where
// arrivals keep each peer's send order and interleave freely otherwise —
// with releases too, so an update may arrive long before its turn or
// long after. Every schedule must deliver exactly the released updates,
// in release order, with the released timestamps. Each seed runs the
// schedule twice:
//
//   - stepped: one goroutine picks every next step at random from the
//     enabled ones, so the interleaving is the seed's alone. One seed in
//     three injects an arrival with nothing sent, one in three a release
//     with nothing sent, at a random step; either must fail the
//     sequencer, and nothing may be delivered after it.
//   - concurrent: the driver on one goroutine, with barriers at random
//     releases, and one arrival goroutine per peer with seeded pacing, as
//     TCP sessions deliver.
func TestSequencerTotalOrderProperty(t *testing.T) {
	stepped := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		sc := newSeqSchedule(rng)
		fault, faultAt := rng.Intn(3), rng.Intn(len(sc.ahead)+1)
		var got []delivery
		seq := recordingSequencer(&got, nil)

		sent := make([][]int, sc.peers) // per peer, the updates sent and not arrived
		next, released, faulted := 0, 0, -1
		for step := 0; ; step++ {
			if step == faultAt && fault != 0 && faulted < 0 {
				faulted = len(got)
				// A peer with nothing outstanding of the kind: a fresh ASN
				// has nothing sent at all.
				if fault == 1 {
					seq.Arrive(uint32(sc.peers), sc.update(-1))
				} else if err := seq.Release(seqBase, uint32(sc.peers)); err == nil {
					t.Logf("seed %d: release with nothing sent accepted", seed)
					return false
				}
				if seq.Err() == nil || seq.Barrier(time.Second) == nil {
					t.Logf("seed %d: fault %d at step %d did not fail the sequencer", seed, fault, step)
					return false
				}
			}
			var arrivable []int
			for p := range sent {
				if len(sent[p]) > 0 {
					arrivable = append(arrivable, p)
				}
			}
			driverLeft := next < len(sc.ahead)
			if !driverLeft && len(arrivable) == 0 {
				break
			}
			if k := rng.Intn(len(arrivable) + 1); k < len(arrivable) || !driverLeft {
				p := arrivable[min(k, len(arrivable)-1)]
				seq.Arrive(uint32(p), sc.update(sent[p][0]))
				sent[p] = sent[p][1:]
				continue
			}
			if sc.ahead[next] {
				i := next - released // sends so far = steps - releases
				seq.Sent(sc.peer[i])
				sent[sc.peer[i]] = append(sent[sc.peer[i]], i)
			} else {
				err := seq.Release(sc.ts(released), sc.peer[released])
				if (err != nil) != (faulted >= 0) {
					t.Logf("seed %d: release %d: %v", seed, released, err)
					return false
				}
				released++
			}
			next++
		}
		if faulted >= 0 {
			if len(got) != faulted {
				t.Logf("seed %d: %d deliveries after the sequencer failed", seed, len(got)-faulted)
				return false
			}
			return sc.check(t, seed, got, faulted)
		}
		if err := seq.Err(); err != nil {
			t.Logf("seed %d: sequencer failed: %v", seed, err)
			return false
		}
		if pending := seq.Pending(); pending != 0 {
			t.Logf("seed %d: %d released updates never delivered", seed, pending)
			return false
		}
		return sc.check(t, seed, got, released)
	}

	concurrent := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		sc := newSeqSchedule(rng)
		var got []delivery
		seq := recordingSequencer(&got, nil)

		wire := make([]chan *bgp.Update, sc.peers)
		done := make(chan struct{})
		for p := range wire {
			wire[p] = make(chan *bgp.Update, len(sc.peer))
			go func(p int, prng *stats.RNG) {
				defer func() { done <- struct{}{} }()
				for upd := range wire[p] {
					if prng.Bool(0.25) {
						time.Sleep(time.Duration(prng.Intn(200)) * time.Microsecond)
					}
					seq.Arrive(uint32(p), upd)
				}
			}(p, stats.NewRNG(seed).Fork(uint64(p+1)))
		}
		sent, released := 0, 0
		ok := true
		for _, send := range sc.ahead {
			if send {
				seq.Sent(sc.peer[sent])
				wire[sc.peer[sent]] <- sc.update(sent)
				sent++
				continue
			}
			if err := seq.Release(sc.ts(released), sc.peer[released]); err != nil {
				t.Logf("seed %d: release %d: %v", seed, released, err)
				ok = false
				break
			}
			released++
			if rng.Bool(0.2) {
				if err := seq.Barrier(5 * time.Second); err != nil {
					t.Logf("seed %d: barrier after release %d: %v", seed, released, err)
					ok = false
					break
				}
				if len(got) != released {
					t.Logf("seed %d: barrier returned with %d of %d released delivered", seed, len(got), released)
					ok = false
					break
				}
			}
		}
		for p := range wire {
			close(wire[p])
		}
		for range wire {
			<-done
		}
		if !ok {
			return false
		}
		if err := seq.Barrier(5 * time.Second); err != nil {
			t.Logf("seed %d: final barrier: %v", seed, err)
			return false
		}
		return sc.check(t, seed, got, released)
	}

	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	for name, prop := range map[string]func(uint64) bool{"stepped": stepped, "concurrent": concurrent} {
		if err := quick.Check(prop, cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestSequencerDropsUnreleased interrupts a send-ahead run mid-day: of
// the updates sent ahead and never released, some arrived before the
// drop and some arrive after it. None is delivered, every one is counted
// unreleased, and the released ones still arriving are delivered.
func TestSequencerDropsUnreleased(t *testing.T) {
	m := NewMetrics()
	var got []delivery
	seq := recordingSequencer(&got, m)
	sc := seqSchedule{peer: []uint32{1, 2, 1, 2, 1}}
	for i, p := range sc.peer {
		seq.Sent(p)
		if i < 2 {
			if err := seq.Release(sc.ts(i), p); err != nil {
				t.Fatal(err)
			}
		}
	}
	seq.Arrive(1, sc.update(0)) // released: delivered
	seq.Arrive(1, sc.update(2)) // unreleased, arrived before the drop
	seq.Drop()
	seq.Arrive(2, sc.update(1)) // released, still on the wire at the drop
	seq.Arrive(2, sc.update(3)) // unreleased, arriving after the drop
	seq.Arrive(1, sc.update(4))
	if err := seq.Barrier(time.Second); err != nil {
		t.Fatal(err)
	}
	if !sc.check(t, 0, got, 2) {
		t.Fatal("drop changed what the released prefix delivered")
	}
	if n := m.UpdatesUnreleased.Value(); n != 3 {
		t.Fatalf("updates_unreleased = %d, want 3", n)
	}
	if err := seq.Release(seqBase, 1); err == nil {
		t.Fatal("release of a dropped update accepted")
	}
}
