package federation

import (
	"reflect"
	"testing"
)

// FuzzSnapshotRoundTrip fuzzes the snapshot frame codec — what the
// coordinator accepts from every exchange over the transport. Arbitrary
// input must either decode or error, never panic; whenever a frame does
// decode, re-encoding the snapshot must give a frame that decodes to the
// same snapshot.
func FuzzSnapshotRoundTrip(f *testing.F) {
	for _, s := range []*Snapshot{testSnapshot(), {IXP: 0, Seq: 1}} {
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
	})
}
