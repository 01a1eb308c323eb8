package federation

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/events"
	"repro/internal/analysis/pipeline"
	"repro/internal/ipfix"
)

// fuzzEnd ends the period of the fuzzed control streams, as the
// coordinator's metadata does.
var fuzzEnd = time.Date(2019, 3, 1, 0, 0, 0, 0, time.UTC)

// withState gives s a pipeline state whose event-keyed sections hold s's
// first event, so that mutations start inside them.
func withState(f *testing.F, s *Snapshot) *Snapshot {
	meta := &analysis.Metadata{
		SamplingRate: 1,
		Start:        fuzzEnd.AddDate(0, -1, 0),
		End:          fuzzEnd,
		MemberByMAC:  map[ipfix.MAC]uint32{1: 65001},
		BlackholeMAC: 2,
	}
	p, err := pipeline.New(meta, s.Updates, events.DefaultDelta)
	if err != nil {
		f.Fatal(err)
	}
	p.Drop.Add(0, 32, 65001, true, 3, 120)
	p.Proto.Add(0, 17, 0x0b000001, 123, 3, 65100, 65001)
	p.Pending.Add(0, 0x0a000007, 443, 6, true, 3)
	if s.State, err = p.MarshalState(); err != nil {
		f.Fatal(err)
	}
	if _, err := pipeline.UnmarshalState(nil, s.State, len(p.Events)); err != nil {
		f.Fatal(err)
	}
	return s
}

// FuzzSnapshotRoundTrip fuzzes the snapshot frame codec — what the
// coordinator accepts from every exchange over the transport. Arbitrary
// input must either decode or error, never panic; whenever a frame does
// decode, re-encoding the snapshot must give a frame that decodes to the
// same snapshot, and its state must decode or error under the event count
// of its own control stream, as the coordinator decodes it.
func FuzzSnapshotRoundTrip(f *testing.F) {
	for _, s := range []*Snapshot{testSnapshot(), {IXP: 0, Seq: 1}, withState(f, testSnapshot())} {
		seed, err := s.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
		f.Add(seed[:len(seed)/2]) // truncation
		skew := append([]byte(nil), seed...)
		skew[0]++ // version skew
		f.Add(skew)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var s Snapshot
		if s.UnmarshalBinary(data) != nil {
			return
		}
		again, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of a decoded snapshot failed: %v", err)
		}
		var back Snapshot
		if err := back.UnmarshalBinary(again); err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if !reflect.DeepEqual(&back, &s) {
			t.Fatalf("round trip changed the snapshot:\n got %+v\nwant %+v", &back, &s)
		}
		_, _ = pipeline.UnmarshalState(nil, s.State, len(events.Merge(s.Updates, events.DefaultDelta, fuzzEnd)))
	})
}
