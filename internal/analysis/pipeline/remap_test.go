package pipeline

import (
	"bytes"
	"testing"

	"repro/internal/analysis/events"
)

// TestRemapEventsPermutationRoundTrip renames a populated pipeline's
// events by a permutation and then by its inverse: the state must differ
// in between and come back byte for byte. RemapEvents only renames, so
// each event-keyed operator rejects a map that sends two of its events to
// one ID, or leaves one unmapped, and keeps its state as it was.
func TestRemapEventsPermutationRoundTrip(t *testing.T) {
	p, err := New(testMeta(), parityUpdates(), events.DefaultDelta)
	if err != nil {
		t.Fatal(err)
	}
	p.ObserveRecords(parityStream(6000))
	want := mustMarshalState(t, p)
	n := len(p.Events)
	perm, inv, merge := make(map[int]int, n), make(map[int]int, n), make(map[int]int, n)
	for id := 0; id < n; id++ {
		perm[id] = (id + 1) % n
		inv[perm[id]] = id
		merge[id] = id / 2
	}
	if err := p.RemapEvents(perm); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(mustMarshalState(t, p), want) {
		t.Fatal("the permutation left the state as it was; the fixture holds too few events")
	}
	if err := p.RemapEvents(inv); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustMarshalState(t, p), want) {
		t.Fatal("a permutation and its inverse do not give the state back")
	}

	for _, op := range []struct {
		name    string
		remap   func(map[int]int) error
		marshal func() ([]byte, error)
	}{
		{"dropstats", p.Drop.RemapEvents, p.Drop.MarshalBinary},
		{"protomix", p.Proto.RemapEvents, p.Proto.MarshalBinary},
		{"collateral.Pending", p.Pending.RemapEvents, p.Pending.MarshalBinary},
	} {
		before, _ := op.marshal()
		for label, m := range map[string]map[int]int{"merging": merge, "empty": {}} {
			if err := op.remap(m); err == nil {
				t.Errorf("%s: RemapEvents accepted the %s map", op.name, label)
			}
			if after, _ := op.marshal(); !bytes.Equal(after, before) {
				t.Errorf("%s: the rejected %s map changed the state", op.name, label)
			}
		}
	}
}
