// Package cowtest is the test-side driver for operators whose Snapshot
// shares state with the original (analysis.Cow). A single snapshot taken
// halfway (the conformance suite's isolation property) survives most
// ownership bugs: a stale memo, a stamp taken for owned after a second
// snapshot, an adopted sub-aggregate written in place. The driver instead
// walks seeded random sequences over a population of live stores and
// compares every one of them, after every step, to a reference that never
// shares anything.
package cowtest

import (
	"bytes"
	"encoding"
	"testing"

	"repro/internal/analysis"
	"repro/internal/stats"
)

// Store is the operator surface the driver exercises.
type Store[T any] interface {
	analysis.Operator[T]
	encoding.BinaryMarshaler
}

// Case describes one operator to the driver. Add and Rewrites must be
// deterministic functions of (state, x): the driver applies each call to
// a live store and to its reference.
type Case[T Store[T]] struct {
	New func() T
	// Deep is the reference Snapshot: an independent copy that shares no
	// memory with its argument.
	Deep func(T) T
	// Add folds the observation drawn from x into s.
	Add func(s T, x uint64)
	// Decode replaces s's state with the decoded encoding: its
	// UnmarshalBinary, or UnmarshalEvents under the case's event count.
	Decode func(s T, data []byte) error
	// Rewrites are the operator's other mutation paths
	// (hosts.Aggregator.Filter, Pending.RemapEvents); may be empty.
	Rewrites []func(s T, x uint64)
	// Copies, when set, reads a store's copy-on-first-write count; the run
	// then fails unless some store copied, i.e. unless sharing was exercised.
	Copies func(T) int64
}

// maxLive bounds the population; beyond it a random store is dropped, so
// sub-aggregates keep losing and gaining holders.
const maxLive = 6

// pair is one live store and the reference that mirrors it.
type pair[T any] struct{ cow, ref T }

// Run drives steps random operations from seed: bursts of Add on a random
// store, Snapshot of a random store (so snapshots of snapshots arise),
// Merge out of a snapshotted store (the snapshot is handed over, its
// origin lives on), Merge of a whole store that still has live snapshots,
// Decode over a store right after it was snapshotted, the case's
// Rewrites, and drops. After every step every live store's MarshalBinary
// must equal its reference's, byte for byte.
func Run[T Store[T]](t *testing.T, seed uint64, steps int, c Case[T]) {
	t.Helper()
	r := stats.NewRNG(seed)
	live := []pair[T]{{c.New(), c.New()}}
	pick := func() *pair[T] { return &live[r.Intn(len(live))] }
	var copied int64 // by stores that have left the population
	drop := func(i int) {
		if c.Copies != nil {
			copied += c.Copies(live[i].cow)
		}
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	marshal := func(s T) []byte {
		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return data
	}

	for step := 0; step < steps; step++ {
		var op string
		switch k := r.Intn(12); {
		case k < 5:
			op = "add"
			p := pick()
			for n := 1 + r.Intn(40); n > 0; n-- {
				x := r.Uint64()
				c.Add(p.cow, x)
				c.Add(p.ref, x)
			}
		case k < 7:
			op = "snapshot"
			p := pick()
			live = append(live, pair[T]{p.cow.Snapshot(), c.Deep(p.ref)})
		case k == 7 && len(live) > 1:
			op = "merge a snapshot of another store"
			i := r.Intn(len(live))
			j := (i + 1 + r.Intn(len(live)-1)) % len(live)
			live[i].cow.Merge(live[j].cow.Snapshot())
			live[i].ref.Merge(c.Deep(live[j].ref))
		case k == 8 && len(live) > 1:
			op = "merge another store whole"
			i := r.Intn(len(live))
			j := (i + 1 + r.Intn(len(live)-1)) % len(live)
			live[i].cow.Merge(live[j].cow)
			live[i].ref.Merge(live[j].ref)
			drop(j)
		case k == 9:
			op = "unmarshal after snapshot"
			data := marshal(pick().ref)
			p := pick()
			snap := pair[T]{p.cow.Snapshot(), c.Deep(p.ref)}
			if err := c.Decode(p.cow, data); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if err := c.Decode(p.ref, data); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			live = append(live, snap)
		case k == 10 && len(c.Rewrites) > 0:
			op = "rewrite"
			p, x := pick(), r.Uint64()
			rw := c.Rewrites[r.Intn(len(c.Rewrites))]
			rw(p.cow, x)
			rw(p.ref, x)
		default:
			op = "drop"
			if len(live) > 1 {
				drop(r.Intn(len(live)))
			}
		}
		for len(live) > maxLive {
			drop(r.Intn(len(live)))
		}
		for i := range live {
			if !bytes.Equal(marshal(live[i].cow), marshal(live[i].ref)) {
				t.Fatalf("seed %d step %d (%s): live store %d of %d diverges from its reference",
					seed, step, op, i, len(live))
			}
		}
	}
	if c.Copies != nil {
		for i := range live {
			copied += c.Copies(live[i].cow)
		}
		if copied == 0 {
			t.Fatalf("seed %d: no store ever copied a shared sub-aggregate; the sequence exercised nothing", seed)
		}
	}
}
